//! The per-layer metrics of a traced run. Every workload prints every
//! one; a layer a workload never calls reads 0.

use crate::spans::Spans;
use crate::stats::{ratio, Metrics};
use earthplus_ground::{GroundServiceStats, StationSetStats};
use earthplus_telemetry::{names, Snapshot};

/// Layer times (seconds, summed over the traced epoch) and the counts
/// each ratio divides.
#[derive(Debug, Default)]
pub struct PerLayer {
    pub encode_s: f64,
    pub decode_s: f64,
    pub encoded_mpix: f64,
    pub tiles_encoded: u64,
    pub header_bytes: u64,
    pub downlinked_bytes: u64,
    pub change_s: f64,
    pub tiles_total: u64,
    pub reference_age_days: f64,
    pub cloud_s: f64,
    pub captures: u64,
    pub dropped: u64,
    pub patch_s: f64,
    pub serve_s: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub reference_build_s: f64,
    pub ingest_s: f64,
    pub ingest_accepted: u64,
    pub ingest_rejected: u64,
    pub plan_s: f64,
    pub contacts: u64,
    pub deltas_sent: u64,
    pub uplink_bytes: u64,
    pub ship_bytes: u64,
    pub ship_retries: u64,
    pub backpressure_waits: u64,
    pub quiesce_s: f64,
    pub replay_s: f64,
    pub records_replayed: u64,
    pub dead_bytes: u64,
    pub live_bytes: u64,
    pub compaction_steps: u64,
    pub recorded_events: u64,
    pub dropped_events: u64,
    pub capture_samples: u64,
    pub pass_samples: u64,
    pub system_s: f64,
    pub unattributed_share: f64,
    pub trace_overhead_share: f64,
}

impl PerLayer {
    /// Layer times and the traced system time from the span recorder.
    pub fn from_spans(spans: &Spans) -> Self {
        PerLayer {
            encode_s: spans.layer_s("codec.encode"),
            decode_s: spans.layer_s("codec.decode"),
            change_s: spans.layer_s("change.detect"),
            cloud_s: spans.layer_s("cloud.detect"),
            patch_s: spans.layer_s("core.patch"),
            serve_s: spans.layer_s("ground.serve"),
            reference_build_s: spans.layer_s("ground.reference_build"),
            ingest_s: spans.layer_s("ground.ingest"),
            plan_s: spans.layer_s("ground.plan"),
            quiesce_s: spans.layer_s("station.quiesce"),
            system_s: spans.root_s(),
            unattributed_share: spans.unattributed_share(),
            ..PerLayer::default()
        }
    }

    /// Reads the ground service's counters, its station set's, and the
    /// store gauges from its registry snapshot.
    pub fn read_ground(
        &mut self,
        stats: &GroundServiceStats,
        stations: Option<&StationSetStats>,
        snapshot: &Snapshot,
    ) {
        self.cache_hits = stats.cache.hits;
        self.cache_misses = stats.cache.misses;
        self.ingest_accepted = stats.ingest_accepted;
        self.ingest_rejected = stats.ingest_rejected;
        self.deltas_sent = stats.deltas_sent;
        self.uplink_bytes = stats.uplink_bytes_sent;
        if let Some(s) = stations {
            self.ship_bytes = s.ship_bytes;
            self.ship_retries = s.ship_retries;
            self.backpressure_waits = s.ship_backpressure;
        }
        self.dead_bytes = snapshot.gauge(names::REFSTORE_DEAD_BYTES).unwrap_or(0);
        self.live_bytes = snapshot.gauge(names::REFSTORE_LIVE_BYTES).unwrap_or(0);
        self.compaction_steps = snapshot
            .counter(names::REFSTORE_COMPACTION_STEPS)
            .unwrap_or(0);
    }

    /// The metrics, each ratio followed by the counts it divides.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("codec.encode_s", self.encode_s, "s");
        m.put("codec.decode_s", self.decode_s, "s");
        m.put(
            "codec.encode_mpix_per_s",
            ratio(self.encoded_mpix, self.encode_s),
            "MPix/s",
        );
        m.put(
            "codec.decode_mpix_per_s",
            ratio(self.encoded_mpix, self.decode_s),
            "MPix/s",
        );
        m.put("codec.tiles_encoded", self.tiles_encoded as f64, "count");
        m.put(
            "codec.header_share",
            ratio(self.header_bytes as f64, self.downlinked_bytes as f64),
            "ratio",
        );
        m.put("codec.header_bytes", self.header_bytes as f64, "bytes");
        m.put(
            "codec.downlinked_bytes",
            self.downlinked_bytes as f64,
            "bytes",
        );
        m.put("change.detect_s", self.change_s, "s");
        m.put(
            "change.tile_fraction",
            ratio(self.tiles_encoded as f64, self.tiles_total as f64),
            "ratio",
        );
        m.put("change.tiles_total", self.tiles_total as f64, "count");
        m.put("change.reference_age_days", self.reference_age_days, "days");
        m.put("cloud.detect_s", self.cloud_s, "s");
        m.put(
            "cloud.drop_ratio",
            ratio(self.dropped as f64, self.captures as f64),
            "ratio",
        );
        m.put("cloud.captures_dropped", self.dropped as f64, "count");
        m.put("cloud.captures", self.captures as f64, "count");
        m.put("core.patch_s", self.patch_s, "s");
        m.put("ground.serve_s", self.serve_s, "s");
        let reads = self.cache_hits + self.cache_misses;
        m.put(
            "ground.cache_hit_ratio",
            ratio(self.cache_hits as f64, reads as f64),
            "ratio",
        );
        m.put("ground.cache_hits", self.cache_hits as f64, "count");
        m.put("ground.cache_reads", reads as f64, "count");
        m.put("ground.reference_build_s", self.reference_build_s, "s");
        m.put("ground.ingest_s", self.ingest_s, "s");
        let offered = self.ingest_accepted + self.ingest_rejected;
        m.put(
            "ground.ingest_accept_ratio",
            ratio(self.ingest_accepted as f64, offered as f64),
            "ratio",
        );
        m.put(
            "ground.ingest_accepted",
            self.ingest_accepted as f64,
            "count",
        );
        m.put("ground.ingest_offered", offered as f64, "count");
        m.put("ground.plan_s", self.plan_s, "s");
        m.put(
            "ground.plan_us_per_contact",
            1e6 * ratio(self.plan_s, self.contacts as f64),
            "us",
        );
        m.put("ground.contacts", self.contacts as f64, "count");
        m.put("ground.deltas_sent", self.deltas_sent as f64, "count");
        m.put("ground.uplink_bytes", self.uplink_bytes as f64, "bytes");
        m.put("station.ship_bytes", self.ship_bytes as f64, "bytes");
        m.put("station.ship_retries", self.ship_retries as f64, "count");
        m.put(
            "station.backpressure_waits",
            self.backpressure_waits as f64,
            "count",
        );
        m.put("station.quiesce_s", self.quiesce_s, "s");
        m.put("refstore.replay_s", self.replay_s, "s");
        m.put(
            "refstore.records_replayed",
            self.records_replayed as f64,
            "count",
        );
        m.put(
            "refstore.dead_ratio",
            ratio(
                self.dead_bytes as f64,
                (self.dead_bytes + self.live_bytes) as f64,
            ),
            "ratio",
        );
        m.put("refstore.dead_bytes", self.dead_bytes as f64, "bytes");
        m.put("refstore.live_bytes", self.live_bytes as f64, "bytes");
        m.put(
            "refstore.compaction_steps",
            self.compaction_steps as f64,
            "count",
        );
        m.put(
            "telemetry.recorded_events",
            self.recorded_events as f64,
            "count",
        );
        m.put(
            "telemetry.dropped_events",
            self.dropped_events as f64,
            "count",
        );
        m.put(
            "trace.capture_samples",
            self.capture_samples as f64,
            "count",
        );
        m.put("trace.pass_samples", self.pass_samples as f64, "count");
        m.put("trace.system_s", self.system_s, "s");
        m.put("unattributed_share", self.unattributed_share, "ratio");
        m.put("trace_overhead_share", self.trace_overhead_share, "ratio");
        m
    }
}
