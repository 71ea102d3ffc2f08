//! Close-and-reopen cycles of a durable ground segment.

use crate::stats::{timed, Checks};
use earthplus_ground::{GroundService, GroundServiceConfig};

/// Closes and reopens a durable ground `times` times and checks every
/// reopen: the store must hold `entries` with no record dropped and no
/// byte truncated by recovery. The first cycle drops whatever
/// `close_first` owns (the caller syncs it first); later ones sync and
/// drop the service the previous cycle opened. Only the reopen, which
/// replays the log, is timed: an fsync's latency is the disk's, and on a
/// shared disk other tenants' too. Returns each reopen's seconds and the
/// last reopened service.
pub fn restart_cycles(
    config: &GroundServiceConfig,
    close_first: impl FnOnce(),
    entries: usize,
    times: usize,
    checks: &mut Checks,
) -> (Vec<f64>, Option<GroundService>) {
    let mut replays = Vec::with_capacity(times);
    let mut first = Some(close_first);
    let mut open: Option<GroundService> = None;
    for _ in 0..times {
        checks.call();
        if let Some(previous) = open.take() {
            previous.sync();
        }
        if let Some(close) = first.take() {
            close();
        }
        let (service, replay_s) = timed(|| GroundService::try_new(config.clone()));
        replays.push(replay_s);
        let service = match service {
            Ok(service) => service,
            Err(e) => {
                checks.expect(false, || format!("reopen failed: {e}"));
                break;
            }
        };
        let held = service.store().len();
        checks.expect(held == entries, || {
            format!("reopened store holds {held} entries, {entries} before close")
        });
        let report = service.recovery_report().copied().unwrap_or_default();
        checks.expect(
            report.corrupt_records_dropped == 0 && report.truncated_bytes == 0,
            || format!("reopen dropped or truncated records: {report:?}"),
        );
        open = Some(service);
    }
    (replays, open)
}
