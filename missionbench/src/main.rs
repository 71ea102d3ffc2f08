//! Mission benchmark of the Earth+ reproduction.
//!
//! ```text
//! cargo run --release --manifest-path missionbench/Cargo.toml -- \
//!     --workload rich_onboard --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Three closed-loop workloads, each one client thread feeding
//! pre-planned visits and contact windows to the real system:
//!
//! * `rich_onboard`: Sentinel-2-like rich content (11 locations × 13
//!   bands, 256 px, two satellites, no cloud filter) on one durable store.
//!   Stale references and mostly-changed tiles make the codec dominate.
//! * `constellation_ops`: 5 of those locations re-banded to Planet's 4
//!   bands at 512 px, 48 satellites, < 5 % cloud filter, on a two-station
//!   replicated store with pipelined shipping, metrics and flight
//!   recorder on. Fresh shared references; refstore, station and
//!   telemetry layers live.
//! * `ground_uplink`: the ground segment alone — 1024 targets, 48
//!   satellites, a two-station store; daily ingest batches of the clear
//!   captures the scene model's weather gives, contact-pass planning and
//!   on-board reference reads, then close and reopen.
//!
//! `BENCHMARK.json` lists the last two. `rich_onboard` stays runnable but
//! unlisted: its system calls fill under a fifth of its run (rendering
//! 13-band captures fills the rest), and on a shared 2-CPU host its capture
//! latencies spread by up to 30 % between runs, more than its bounds allow.
//! Its codec-heavy shape is measured by its traced run.
//!
//! Only calls into the system are timed; scene rendering is the load
//! generator and is never timed.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` feeds the same
//! inputs, in lockstep, to an untraced system and a traced one — on the
//! missions a replica of the strategy that makes each layer's public
//! calls itself — records a span around each layer call, checks the two
//! agree call by call, and prints the per-layer metrics. Spans are kept
//! in memory and written to `.missionbench/<workload>-seed<n>-spans.tsv`.
//! Each run does the same work for the same `--seconds`: whole epochs,
//! as many as fill it on the 2-CPU reference container. The last line of
//! standard output is the JSON result.

mod layers;
mod mission;
mod restart;
mod spans;
mod stats;
mod uplink;

use stats::{Checks, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Input size: the measured workloads, or the self-test's tiny ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    Full,
    Tiny,
}

/// How one run is driven.
pub struct RunArgs<'a> {
    /// Wall-clock seconds the untraced run fits whole epochs into.
    pub seconds: f64,
    /// Directory for stores and the span dump.
    pub out: &'a Path,
    /// Name used for the store directories and the span dump.
    pub tag: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("missionbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".missionbench");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("missionbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let run = RunArgs {
        seconds: args.seconds,
        out: &out,
        tag: format!("{}-seed{}", args.workload, args.seed),
    };
    let mut checks = Checks::default();
    let mut metrics: Metrics = match args.workload.as_str() {
        "rich_onboard" | "constellation_ops" => {
            let mission = if args.workload == "rich_onboard" {
                mission::rich_onboard(args.seed, args.scale)
            } else {
                mission::constellation_ops(args.seed, args.scale)
            };
            if args.trace {
                mission::run_traced(&mission, &run, &mut checks)
            } else {
                mission::run_untraced(&mission, &run, &mut checks)
            }
        }
        "ground_uplink" => {
            let workload = uplink::ground_uplink(args.seed, args.scale);
            if args.trace {
                uplink::run_traced(&workload, &run, &mut checks)
            } else {
                uplink::run_untraced(&workload, &run, &mut checks)
            }
        }
        other => {
            eprintln!("missionbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        metrics.put("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    if checks.attempted == 0 {
        checks.call();
        checks.expect(false, || "the workload made no system call".to_owned());
    }
    for note in &checks.notes {
        eprintln!("check failed: {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
