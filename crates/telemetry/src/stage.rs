//! The stage guard: the one RAII primitive that times an instrumented
//! stage into a [`Histogram`] *and* onto the flight recorder.
//!
//! A guard reads the clock once when it opens and once when it closes,
//! and feeds both sinks from those two readings: the histogram records
//! the elapsed nanoseconds, and the recorder gets a Begin/End pair whose
//! timestamps are the same two instants. With both sinks disabled it
//! reads no clock at all — unless it was opened *timed*
//! ([`StageGuard::timed`], [`StageGuard::stopwatch`]), for callers that
//! need the elapsed [`Duration`] itself ([`StageGuard::finish`]).

use crate::metrics::Histogram;
use crate::recorder::RecorderShared;
use crate::trace::{TraceEvent, TraceEventKind, TraceTrack, TraceValue};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
}

/// The telemetry crate's only clock: every timestamp and latency it
/// records is read here, so [`clock_reads`] sees all of them.
#[inline]
pub(crate) fn now() -> Instant {
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

/// How many times telemetry has read the clock on the calling thread —
/// the counter behind the "disabled instrumentation reads no clock"
/// tests.
pub fn clock_reads() -> u64 {
    CLOCK_READS.with(Cell::get)
}

/// An open stage. Created by [`crate::TraceSink::span`] /
/// [`crate::TraceSink::span_on`] (trace events, optionally plus a
/// histogram via [`StageGuard::with_histogram`]) or by
/// [`StageGuard::new`] (histogram only); closed on drop or by
/// [`StageGuard::finish`]. The default guard is idle: no sinks, no clock.
#[derive(Debug, Default)]
pub struct StageGuard {
    /// The opening clock reading; `None` when nothing needs the time.
    start: Option<Instant>,
    hist: Histogram,
    /// The recorder and the span's event, which becomes the End event
    /// (args accumulate on it); `None` when tracing is off.
    span: Option<(Arc<RecorderShared>, TraceEvent)>,
}

impl StageGuard {
    /// Opens a stage on `recorder` (Begin event now) — on `track`, or the
    /// ambient one — or an idle guard when tracing is off.
    pub(crate) fn open(
        recorder: Option<&Arc<RecorderShared>>,
        track: Option<TraceTrack>,
        lane: &'static str,
        name: &'static str,
    ) -> Self {
        let Some(shared) = recorder else {
            return Self::default();
        };
        let start = now();
        let event = TraceEvent {
            seq: 0,
            ts_ns: shared.ts_ns(start),
            trace: shared.ambient_trace(),
            track: track.unwrap_or_else(|| shared.ambient_track()),
            lane,
            name,
            kind: TraceEventKind::Begin,
            args: Vec::new(),
        };
        shared.push(event.clone());
        StageGuard {
            start: Some(start),
            hist: Histogram::disabled(),
            span: Some((shared.clone(), event)),
        }
    }

    /// Opens a stage that feeds `hist` only — no trace events. Reads no
    /// clock when `hist` is disabled. The handle is cloned (an `Arc`
    /// bump), so the guard does not borrow the histogram's owner.
    #[inline]
    pub fn new(hist: &Histogram) -> Self {
        Self::default().with_histogram(hist)
    }

    /// A guard with no sinks that always reads the clock: a stopwatch
    /// for [`StageGuard::finish`].
    pub fn stopwatch() -> Self {
        Self::default().timed()
    }

    /// Also records the stage's elapsed nanoseconds into `hist` when it
    /// closes, from the same clock readings as the trace events.
    #[inline]
    pub fn with_histogram(mut self, hist: &Histogram) -> Self {
        if hist.enabled() {
            self.start.get_or_insert_with(now);
            self.hist = hist.clone();
        }
        self
    }

    /// Makes the guard read the clock even with every sink disabled, so
    /// [`StageGuard::finish`] returns the real elapsed time.
    #[inline]
    pub fn timed(mut self) -> Self {
        self.start.get_or_insert_with(now);
        self
    }

    /// Attaches a typed argument; it rides on the span's End event. Inert
    /// when tracing is off.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: impl Into<TraceValue>) {
        if let Some((_, end)) = &mut self.span {
            end.args.push((key, value.into()));
        }
    }

    /// Time since the stage opened (zero on a guard that read no clock).
    pub fn elapsed(&self) -> Duration {
        self.start
            .map_or(Duration::ZERO, |start| now().duration_since(start))
    }

    /// Closes the stage now and returns its duration — zero unless the
    /// guard read the clock (a sink was enabled, or it was opened timed).
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(start) = self.start.take() else {
            return Duration::ZERO;
        };
        let at = now();
        let elapsed = at.duration_since(start);
        self.hist.record_duration(elapsed);
        if let Some((shared, mut end)) = self.span.take() {
            end.kind = TraceEventKind::End;
            end.ts_ns = shared.ts_ns(at);
            shared.push(end);
        }
        elapsed
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, TraceSink};

    /// Runs one stage with `hist` and `tracing`, attaching an arg.
    fn one_stage(hist: &Histogram, tracing: &TraceSink) -> Duration {
        let mut stage = tracing
            .span_on(TraceTrack::Satellite(3), "test", "work")
            .with_histogram(hist);
        stage.arg("bytes", 7u64);
        stage.finish()
    }

    #[test]
    fn each_sink_combination_records_exactly_what_is_enabled() {
        for (hist_on, trace_on) in [(false, false), (true, false), (false, true), (true, true)] {
            let hist = if hist_on {
                Histogram::live()
            } else {
                Histogram::disabled()
            };
            let recorder = FlightRecorder::new();
            let tracing = if trace_on {
                recorder.sink()
            } else {
                TraceSink::disabled()
            };
            let reads = clock_reads();
            let elapsed = one_stage(&hist, &tracing);
            let case = format!("hist {hist_on}, trace {trace_on}");
            let expected_reads = if hist_on || trace_on { 2 } else { 0 };
            assert_eq!(clock_reads() - reads, expected_reads, "{case}");
            assert_eq!(hist.snapshot().count, u64::from(hist_on), "{case}");
            if hist_on {
                assert_eq!(hist.snapshot().sum, elapsed.as_nanos() as u64, "{case}");
            } else if !trace_on {
                assert_eq!(elapsed, Duration::ZERO, "{case}");
            }
            let log = recorder.log();
            if !trace_on {
                assert!(log.is_empty(), "{case}");
                continue;
            }
            let [begin, end] = &log.events[..] else {
                panic!("{case}: expected one Begin/End pair, got {:?}", log.events);
            };
            assert_eq!(begin.kind, TraceEventKind::Begin, "{case}");
            assert_eq!(end.kind, TraceEventKind::End, "{case}");
            assert_eq!(end.track, TraceTrack::Satellite(3), "{case}");
            assert_eq!(end.args, vec![("bytes", TraceValue::U64(7))], "{case}");
            // One reading per edge feeds both sinks.
            assert_eq!(end.ts_ns - begin.ts_ns, elapsed.as_nanos() as u64, "{case}");
        }
    }

    #[test]
    fn arg_is_inert_on_a_disabled_recorder() {
        let hist = Histogram::live();
        let mut stage = TraceSink::disabled()
            .span("test", "work")
            .with_histogram(&hist);
        stage.arg("bytes", 7u64);
        assert!(stage.span.is_none());
        drop(stage);
        assert_eq!(hist.snapshot().count, 1);
    }

    #[test]
    fn timed_guards_measure_with_every_sink_off() {
        let reads = clock_reads();
        let stopwatch = StageGuard::stopwatch();
        std::thread::sleep(Duration::from_millis(1));
        assert!(stopwatch.finish() >= Duration::from_millis(1));
        let timed = TraceSink::disabled().span("test", "work").timed();
        assert!(timed.elapsed() > Duration::ZERO);
        drop(timed);
        assert_eq!(clock_reads() - reads, 5);
    }

    #[test]
    fn histogram_only_guard_records_no_trace_events() {
        let hist = Histogram::live();
        let disabled = Histogram::disabled();
        let reads = clock_reads();
        drop(StageGuard::new(&disabled));
        assert_eq!(clock_reads(), reads, "a disabled histogram reads no clock");
        let stage = StageGuard::new(&hist);
        assert!(stage.span.is_none());
        drop(stage);
        assert_eq!(hist.snapshot().count, 1);
        assert_eq!(clock_reads() - reads, 2);
    }
}
