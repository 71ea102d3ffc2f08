//! Causal-tracing acceptance test: one simulated mission with a flight
//! recorder wired through the ground config must produce, for a single
//! capture's [`TraceId`], events from the strategy, the ground service,
//! the codec, *and* the persistent refstore — the end-to-end causal
//! chain the recorder exists for. Also pins the Chrome-trace export:
//! every Begin has a matching End per track, and the JSON parses by
//! construction rules simple enough to check here (balanced braces,
//! event counts).

use earthplus::prelude::*;
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_ground::GroundServiceConfig;
use earthplus_orbit::LinkModel;
use earthplus_scene::large_constellation;
use earthplus_telemetry::{names, MetricsRegistry, TraceEventKind, TraceLog, TraceTrack};
use std::collections::HashMap;
use std::path::PathBuf;

fn test_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("earthplus-core-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn one_capture_trace_spans_strategy_ground_codec_and_refstore() {
    let root = test_dir("mission");
    let mut dataset = large_constellation(7, 256);
    dataset.duration_days = 15;
    dataset.satellite_count = 8;
    // No dataset-level cloud filter: every visit reaches the strategy, so
    // the trace stream holds repeat (non-guaranteed) captures with cache
    // lookups, plus on-board drops of the cloudiest images.
    dataset.capture_cloud_filter = None;
    let mut config = SimulationConfig::for_dataset(&dataset, 7);
    config.eval_from_day = 40;
    config.eval_days = 15;
    config.uplink = LinkModel::doves_uplink();
    let sim = MissionSimulator::from_dataset(&dataset, config);
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let targets: Vec<_> = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();

    let registry = MetricsRegistry::new();
    let recorder = FlightRecorder::new();
    recorder.register_metrics(&registry);
    let ground = GroundServiceConfig::default()
        .with_targets(targets)
        .with_persistence(&root)
        .with_telemetry(registry.sink())
        .with_tracing(recorder.sink());
    let mut strategy = EarthPlusStrategy::with_ground_config(
        EarthPlusConfig::paper().with_gamma(2.0),
        detector,
        ground,
    );
    let report = sim.run(&mut [&mut strategy]);

    // Every capture report carries a minted trace id.
    let captures = report.records("earth+");
    assert!(!captures.is_empty(), "mission produced no captures");
    assert!(
        captures.iter().all(|c| c.trace.is_some()),
        "tracing-enabled missions mint a TraceId per capture"
    );
    // Ids are unique per capture.
    let mut seen = std::collections::HashSet::new();
    for c in captures {
        assert!(seen.insert(c.trace), "duplicate trace id {}", c.trace);
    }

    // The day-windowed series and health verdicts rode along on the
    // telemetry rollup (the registry was wired, so the simulator
    // snapshotted every day boundary).
    let rollup = report.telemetry("earth+");
    let daily = rollup
        .daily
        .as_ref()
        .expect("registry-wired run has a daily series");
    assert!(
        daily.get("captures").is_some_and(|p| p.len() > 1),
        "per-day capture throughput should span multiple windows"
    );
    assert!(
        daily.get("encode_p90_ns").is_some(),
        "per-day encode p90 series missing"
    );
    assert!(!rollup.health.is_empty(), "health verdicts missing");

    let log = recorder.log();
    assert!(
        recorder.dropped_events() == 0,
        "default rings must not overflow this mission"
    );

    // Pick a kept capture whose reconstruction reached the reference pool
    // (cloud-free enough to ingest) and follow its id across subsystems.
    let mut best: Option<(&CaptureReport, Vec<&'static str>)> = None;
    for c in captures.iter().filter(|c| !c.dropped) {
        let lanes: Vec<&'static str> = {
            let mut lanes: Vec<&'static str> =
                log.events_for(c.trace).iter().map(|e| e.lane).collect();
            lanes.sort_unstable();
            lanes.dedup();
            lanes
        };
        if best.as_ref().is_none_or(|(_, b)| lanes.len() > b.len()) {
            best = Some((c, lanes));
        }
    }
    let (chosen, lanes) = best.expect("at least one kept capture");
    for lane in ["strategy", "codec", "ground", "refstore"] {
        assert!(
            lanes.contains(&lane),
            "capture {} should have {lane} events, saw {lanes:?}",
            chosen.trace
        );
    }

    // Every capture-stage event carries a real trace id (no event inside
    // a capture scope escapes attribution).
    for event in &log.events {
        if event.lane == "strategy" {
            assert!(
                event.trace.is_some(),
                "unattributed strategy event {event:?}"
            );
        }
    }

    // Begin/End events pair up per track (spans never straddle rings).
    let mut open: HashMap<_, i64> = HashMap::new();
    for event in &log.events {
        match event.kind {
            TraceEventKind::Begin => *open.entry(event.track).or_default() += 1,
            TraceEventKind::End => *open.entry(event.track).or_default() -= 1,
            TraceEventKind::Instant => {}
        }
    }
    for (track, n) in &open {
        assert_eq!(*n, 0, "unbalanced spans on {track}");
    }

    // The Chrome-trace export mentions all three subsystem processes and
    // holds one object per retained event plus metadata.
    let json = log.to_chrome_trace();
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "not a JSON object"
    );
    assert!(json.contains("\"traceEvents\""));
    for ph in ["\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"i\""] {
        assert!(json.contains(ph), "export misses {ph}");
    }
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "export must keep B/E balanced");

    // The explain dump for the chosen capture walks the same chain.
    let explain = log.explain(chosen.trace);
    for lane in ["strategy", "ground", "refstore"] {
        assert!(explain.contains(lane), "explain misses {lane}:\n{explain}");
    }

    let _ = std::fs::remove_dir_all(&root);
}

/// Sums End − Begin of every span named `(lane, name)`, pairing each End
/// with the innermost open Begin of the same name on its track.
fn span_ns(log: &TraceLog, lane: &str, name: &str) -> (u64, u64) {
    let mut open: HashMap<TraceTrack, Vec<u64>> = HashMap::new();
    let (mut spans, mut total) = (0u64, 0u64);
    for event in log
        .events
        .iter()
        .filter(|e| e.lane == lane && e.name == name)
    {
        match event.kind {
            TraceEventKind::Begin => open.entry(event.track).or_default().push(event.ts_ns),
            TraceEventKind::End => {
                let begin = open
                    .get_mut(&event.track)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("{lane}/{name}: End without Begin"));
                spans += 1;
                total += event.ts_ns - begin;
            }
            TraceEventKind::Instant => {}
        }
    }
    assert!(
        open.values().all(Vec::is_empty),
        "{lane}/{name}: unclosed spans"
    );
    (spans, total)
}

#[test]
fn histograms_and_trace_spans_share_one_clock_reading() {
    let root = test_dir("one-clock");
    let mut dataset = large_constellation(5, 128);
    dataset.duration_days = 10;
    dataset.satellite_count = 4;
    dataset.capture_cloud_filter = None;
    let mut config = SimulationConfig::for_dataset(&dataset, 5);
    config.eval_from_day = 40;
    config.eval_days = 10;
    config.uplink = LinkModel::doves_uplink();
    let sim = MissionSimulator::from_dataset(&dataset, config);
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let targets: Vec<_> = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();
    let registry = MetricsRegistry::new();
    // Rings large enough that no Begin/End is evicted.
    let recorder = FlightRecorder::with_capacity(1 << 20);
    let ground = GroundServiceConfig::default()
        .with_targets(targets)
        .with_persistence(&root)
        .with_telemetry(registry.sink())
        .with_tracing(recorder.sink());
    let mut strategy =
        EarthPlusStrategy::with_ground_config(EarthPlusConfig::paper(), detector, ground);
    let report = sim.run(&mut [&mut strategy]);
    assert_eq!(recorder.dropped_events(), 0);
    let log = recorder.log();
    let snapshot = registry.snapshot();
    let kept = report
        .records("earth+")
        .iter()
        .filter(|c| !c.dropped)
        .count() as u64;
    assert!(kept > 0, "mission kept no capture");

    // Sites whose one guard feeds both sinks: one record per span.
    for (hist, lane, name) in [
        (names::STAGE_CLOUD_NS, "strategy", "cloud_detect"),
        (names::CODEC_ENCODE_EPC2_NS, "codec", "encode.epc2"),
        (names::CODEC_DECODE_EPC2_NS, "codec", "decode.epc2"),
        (names::GROUND_INGEST_NS, "ground", "ingest"),
        (names::GROUND_PLAN_PASS_NS, "ground", "plan_pass"),
        (names::REFSTORE_APPEND_NS, "refstore", "append"),
    ] {
        let h = snapshot
            .histogram(hist)
            .unwrap_or_else(|| panic!("{hist} missing"));
        let (spans, span_total) = span_ns(&log, lane, name);
        assert!(spans > 0, "{lane}/{name}: no spans");
        assert_eq!(h.count, spans, "{hist}: one record per span");
        assert_eq!(h.sum, span_total, "{hist} vs {lane}/{name} durations");
    }
    // Per-band spans summed into one record per kept capture.
    for (hist, lane, name) in [
        (names::STAGE_CHANGE_NS, "strategy", "change_detect"),
        (names::STAGE_GROUND_PATCH_NS, "strategy", "ground.patch"),
    ] {
        let h = snapshot
            .histogram(hist)
            .unwrap_or_else(|| panic!("{hist} missing"));
        let (spans, span_total) = span_ns(&log, lane, name);
        assert!(spans >= kept, "{lane}/{name}: a span per band");
        assert_eq!(h.count, kept, "{hist}: one record per kept capture");
        assert_eq!(h.sum, span_total, "{hist} vs {lane}/{name} durations");
    }
    let _ = std::fs::remove_dir_all(&root);
}
