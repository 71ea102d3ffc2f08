//! Mission-level telemetry rollup: per-satellite and constellation-wide
//! stage-timing distributions, built from the records a run already
//! collects.
//!
//! The rollup replays [`CaptureReport`]s and [`UplinkReport`]s into
//! standalone histograms *after* the mission, so it exists for every
//! strategy — with or without a live registry — and adds nothing to the
//! capture hot path. When the strategy did keep a registry (see
//! [`crate::system::EarthPlusStrategy::telemetry`]), its full
//! [`Snapshot`] rides along, carrying the codec/ground/refstore metrics
//! the records alone cannot see.

use crate::strategy::CaptureReport;
use earthplus_ground::UplinkReport;
use earthplus_orbit::SatelliteId;
use earthplus_telemetry::{
    evaluate_health, hit_rate, humanize, names, verdicts_table, HealthCheck, HealthRule,
    HealthVerdict, Histogram, HistogramSnapshot, SeriesMetric, SeriesSpec, Snapshot,
    TelemetrySeries,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Stage-timing and size distributions over one set of captures.
///
/// Latencies are the capture-level [`crate::StageTimings`] converted to
/// nanoseconds; one histogram record per capture. Dropped captures record
/// only the cloud stage — the stage that ran and made the drop decision.
#[derive(Debug, Clone, Default)]
pub struct StageRollup {
    /// Captures processed, including dropped ones.
    pub captures: u64,
    /// Captures dropped on board (> 50 % detected cloud).
    pub dropped: u64,
    /// Cloud-detection nanoseconds per capture.
    pub cloud_ns: HistogramSnapshot,
    /// Change-detection nanoseconds per (non-dropped) capture.
    pub change_ns: HistogramSnapshot,
    /// Encode nanoseconds per (non-dropped) capture.
    pub encode_ns: HistogramSnapshot,
    /// Bytes queued for downlink per (non-dropped) capture.
    pub downlink_bytes: HistogramSnapshot,
}

impl StageRollup {
    /// Builds the rollup by replaying capture records into histograms.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a CaptureReport>) -> Self {
        let cloud = Histogram::live();
        let change = Histogram::live();
        let encode = Histogram::live();
        let bytes = Histogram::live();
        let mut captures = 0u64;
        let mut dropped = 0u64;
        for r in records {
            captures += 1;
            cloud.record_secs(r.timings.cloud_s);
            if r.dropped {
                dropped += 1;
                continue;
            }
            change.record_secs(r.timings.change_s);
            encode.record_secs(r.timings.encode_s);
            bytes.record(r.downloaded_bytes);
        }
        StageRollup {
            captures,
            dropped,
            cloud_ns: cloud.snapshot(),
            change_ns: change.snapshot(),
            encode_ns: encode.snapshot(),
            downlink_bytes: bytes.snapshot(),
        }
    }

    /// Total on-board nanoseconds across all stages and captures.
    pub fn total_onboard_ns(&self) -> u64 {
        self.cloud_ns.sum + self.change_ns.sum + self.encode_ns.sum
    }
}

/// The telemetry section of a [`crate::MissionReport`], one per strategy:
/// where the milliseconds and the downlinked bytes went.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// All captures, constellation-wide.
    pub constellation: StageRollup,
    /// Per-satellite rollups, ordered by satellite id.
    pub per_satellite: Vec<(SatelliteId, StageRollup)>,
    /// Uplink bytes actually scheduled, one record per contact window.
    pub uplink_bytes: HistogramSnapshot,
    /// On-board reference-cache hit rate, when the strategy's registry
    /// snapshot carries the ground cache counters; `None` otherwise.
    pub cache_hit_rate: Option<f64>,
    /// The strategy's full registry snapshot (stage, codec, ground, and
    /// refstore metrics), when observability was wired up.
    pub snapshot: Option<Snapshot>,
    /// Per-mission-day windowed series (throughput, stage p90s, cache
    /// hit rate, refstore dead-bytes ratio, …), when the simulator could
    /// snapshot a live registry at day boundaries; `None` otherwise.
    pub daily: Option<TelemetrySeries>,
    /// Health-rule verdicts over [`TelemetryReport::daily`]; empty when
    /// no daily series exists.
    pub health: Vec<HealthVerdict>,
}

impl TelemetryReport {
    /// Builds the rollup from a finished run's records.
    pub fn from_records(
        captures: &[CaptureReport],
        uplink: &[UplinkReport],
        snapshot: Option<Snapshot>,
    ) -> Self {
        let mut by_satellite: BTreeMap<SatelliteId, Vec<&CaptureReport>> = BTreeMap::new();
        for r in captures {
            by_satellite.entry(r.satellite).or_default().push(r);
        }
        let uplink_hist = Histogram::live();
        for u in uplink {
            uplink_hist.record(u.bytes_used);
        }
        let cache_hit_rate = snapshot.as_ref().and_then(|s| {
            let hits = s.counter(names::GROUND_CACHE_HITS)?;
            let misses = s.counter(names::GROUND_CACHE_MISSES)?;
            Some(hit_rate(hits, misses))
        });
        TelemetryReport {
            constellation: StageRollup::from_records(captures),
            per_satellite: by_satellite
                .into_iter()
                .map(|(sat, records)| (sat, StageRollup::from_records(records)))
                .collect(),
            uplink_bytes: uplink_hist.snapshot(),
            cache_hit_rate,
            snapshot,
            daily: None,
            health: Vec::new(),
        }
    }

    /// Attaches a daily series and evaluates `rules` over it.
    pub fn with_daily(mut self, daily: TelemetrySeries, rules: &[HealthRule]) -> Self {
        self.health = evaluate_health(rules, &daily);
        self.daily = Some(daily);
        self
    }

    /// The standard per-day series the simulator extracts from a live
    /// registry: capture throughput, stage p90s, codec output volume,
    /// uplink spend, cache hit rate, refstore dead-bytes ratio, and
    /// flight-recorder overflow.
    pub fn mission_series_specs() -> Vec<SeriesSpec> {
        vec![
            SeriesSpec::new("captures", SeriesMetric::HistCount(names::STAGE_CLOUD_NS)),
            SeriesSpec::new(
                "cloud_p90_ns",
                SeriesMetric::HistQuantile(names::STAGE_CLOUD_NS, 0.9),
            ),
            SeriesSpec::new(
                "change_p90_ns",
                SeriesMetric::HistQuantile(names::STAGE_CHANGE_NS, 0.9),
            ),
            SeriesSpec::new(
                "encode_p90_ns",
                SeriesMetric::HistQuantile(names::STAGE_ENCODE_NS, 0.9),
            ),
            SeriesSpec::new(
                "encoded_bytes",
                SeriesMetric::HistSum(names::CODEC_ENCODE_BYTES),
            ),
            SeriesSpec::new(
                "uplink_bytes",
                SeriesMetric::Counter(names::GROUND_UPLINK_BYTES),
            ),
            SeriesSpec::new(
                "cache_hit_rate",
                SeriesMetric::HitRate {
                    hits: names::GROUND_CACHE_HITS,
                    misses: names::GROUND_CACHE_MISSES,
                },
            ),
            SeriesSpec::new(
                "refstore_dead_ratio",
                SeriesMetric::GaugeShare {
                    part: names::REFSTORE_DEAD_BYTES,
                    rest: names::REFSTORE_LIVE_BYTES,
                },
            ),
            SeriesSpec::new("trace_dropped", SeriesMetric::Counter(names::TRACE_DROPPED)),
            // Fault-tolerance series: absent (NoData) on missions that
            // run without the replicated backend or a fault plan.
            SeriesSpec::new(
                "faults_injected",
                SeriesMetric::Counter(names::FAULTS_INJECTED),
            ),
            SeriesSpec::new(
                "station_failovers",
                SeriesMetric::Counter(names::STATION_FAILOVERS),
            ),
            SeriesSpec::new(
                "ship_retries",
                SeriesMetric::Counter(names::STATION_SHIP_RETRIES),
            ),
            SeriesSpec::new(
                "degraded_serves",
                SeriesMetric::Counter(names::STATION_DEGRADED_SERVES),
            ),
            SeriesSpec::new(
                "recovery_dropped",
                SeriesMetric::Counter(names::REFSTORE_RECOVERY_DROPPED_RECORDS),
            ),
            SeriesSpec::new(
                "interrupted_windows",
                SeriesMetric::Counter(names::GROUND_PASS_INTERRUPTED),
            ),
            // Pipelined-ship series: absent on the synchronous path.
            SeriesSpec::new(
                "ship_queue_depth",
                SeriesMetric::Gauge(names::STATION_QUEUE_DEPTH),
            ),
            SeriesSpec::new(
                "ship_inflight",
                SeriesMetric::Gauge(names::STATION_INFLIGHT),
            ),
            SeriesSpec::new(
                "ship_backpressure",
                SeriesMetric::Counter(names::STATION_BACKPRESSURE),
            ),
            SeriesSpec::new(
                "group_commit_batch_p90",
                SeriesMetric::HistQuantile(names::REFSTORE_BATCH_RECORDS, 0.9),
            ),
        ]
    }

    /// The default health rules over [`TelemetryReport::mission_series_specs`]:
    /// encode-latency regression, warmed-up cache collapse, flight-recorder
    /// overflow, runaway refstore garbage, and the fault-tolerance
    /// invariants (no degraded serves while a replica lives, no records
    /// dropped by recovery, failovers bounded per day, ship queues
    /// drained at every day boundary).
    pub fn mission_health_rules() -> Vec<HealthRule> {
        vec![
            HealthRule::new(
                "encode-p90-regression",
                "encode_p90_ns",
                HealthCheck::RegressionMax {
                    factor: 4.0,
                    baseline_windows: 5,
                },
            ),
            HealthRule::new(
                "cache-hit-rate-collapse",
                "cache_hit_rate",
                HealthCheck::MinAfterWarmup {
                    limit: 0.5,
                    warmup_windows: 5,
                },
            ),
            HealthRule::new("recorder-overflow", "trace_dropped", HealthCheck::Max(0.0)),
            HealthRule::new(
                "refstore-dead-bytes",
                "refstore_dead_ratio",
                HealthCheck::Max(0.8),
            ),
            // A degraded serve means a shard had no live station at all —
            // replication failed to keep a promotable copy.
            HealthRule::new(
                "station-degraded-serves",
                "degraded_serves",
                HealthCheck::Max(0.0),
            ),
            // Recovery replay (open or failover promotion) must never
            // drop a committed record.
            HealthRule::new(
                "recovery-data-loss",
                "recovery_dropped",
                HealthCheck::Max(0.0),
            ),
            // More than a handful of promotions in one mission day is an
            // outage storm, not routine failover.
            HealthRule::new("failover-storm", "station_failovers", HealthCheck::Max(4.0)),
            // The service quiesces every pass boundary, so a day-boundary
            // snapshot must never catch a populated ship queue — sustained
            // backlog means the drain workers are not keeping up.
            HealthRule::new(
                "ship-queue-backlog",
                "ship_queue_depth",
                HealthCheck::Max(0.0),
            ),
        ]
    }

    /// Renders the rollup as aligned text: constellation-wide stage
    /// distributions, one summary row per satellite, then uplink and
    /// cache totals.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "p50", "p90", "max", "total",
        );
        for (name, h) in [
            (names::STAGE_CLOUD_NS, &self.constellation.cloud_ns),
            (names::STAGE_CHANGE_NS, &self.constellation.change_ns),
            (names::STAGE_ENCODE_NS, &self.constellation.encode_ns),
            ("downlink_bytes", &self.constellation.downlink_bytes),
        ] {
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                humanize(name, h.quantile(0.5)),
                humanize(name, h.quantile(0.9)),
                humanize(name, h.max),
                humanize(name, h.sum),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>12} {:>12} {:>12}",
            "satellite", "captures", "dropped", "onboard", "mean/cap", "downlinked",
        );
        for (sat, r) in &self.per_satellite {
            let total = r.total_onboard_ns();
            let mean = total.checked_div(r.captures).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<10} {:>9} {:>9} {:>12} {:>12} {:>12}",
                sat.to_string(),
                r.captures,
                r.dropped,
                humanize("x_ns", total),
                humanize("x_ns", mean),
                humanize("x_bytes", r.downlink_bytes.sum),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "uplink: {} contacts, {} sent ({} at p90 per contact)",
            self.uplink_bytes.count,
            humanize("x_bytes", self.uplink_bytes.sum),
            humanize("x_bytes", self.uplink_bytes.quantile(0.9)),
        );
        if let Some(rate) = self.cache_hit_rate {
            let _ = writeln!(
                out,
                "on-board reference cache hit rate: {:.1}%",
                rate * 100.0
            );
        }
        if let Some(daily) = &self.daily {
            if !daily.is_empty() {
                let _ = writeln!(out);
                let _ = writeln!(out, "per-day series:");
                out.push_str(&daily.to_table());
            }
        }
        if !self.health.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "health:");
            out.push_str(&verdicts_table(&self.health));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StageTimings;
    use earthplus_raster::LocationId;
    use earthplus_telemetry::MetricsRegistry;

    fn capture(satellite: u32, dropped: bool, bytes: u64) -> CaptureReport {
        CaptureReport {
            day: 41.0,
            satellite: SatelliteId(satellite),
            location: LocationId(0),
            cloud_fraction: 0.1,
            dropped,
            guaranteed: false,
            downloaded_bytes: bytes,
            downloaded_tile_fraction: 0.25,
            psnr_db: None,
            reference_age_days: None,
            timings: StageTimings {
                cloud_s: 1e-6,
                change_s: 2e-6,
                encode_s: 3e-6,
                ground_patch_s: 4e-6,
            },
            band_bytes: Vec::new(),
            trace: earthplus_telemetry::TraceId::NONE,
        }
    }

    #[test]
    fn rollup_splits_per_satellite_and_skips_dropped_stages() {
        let records = vec![
            capture(1, false, 1000),
            capture(0, true, 0),
            capture(0, false, 3000),
        ];
        let report = TelemetryReport::from_records(&records, &[], None);
        assert_eq!(report.constellation.captures, 3);
        assert_eq!(report.constellation.dropped, 1);
        // Cloud ran on every capture; the later stages only on kept ones.
        assert_eq!(report.constellation.cloud_ns.count, 3);
        assert_eq!(report.constellation.change_ns.count, 2);
        assert_eq!(report.constellation.downlink_bytes.sum, 4000);
        // Per-satellite rows come out ordered by id.
        let ids: Vec<u32> = report.per_satellite.iter().map(|(s, _)| s.0).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(report.per_satellite[0].1.captures, 2);
        assert_eq!(report.per_satellite[0].1.dropped, 1);
        assert_eq!(report.per_satellite[1].1.downlink_bytes.sum, 1000);
        assert!(report.cache_hit_rate.is_none());
        let table = report.to_table();
        assert!(table.contains("stage.encode_ns"), "table:\n{table}");
        assert!(table.contains("sat0"), "table:\n{table}");
    }

    #[test]
    fn cache_hit_rate_and_uplink_come_from_snapshot_and_contacts() {
        let registry = MetricsRegistry::new();
        registry.counter(names::GROUND_CACHE_HITS).add(3);
        registry.counter(names::GROUND_CACHE_MISSES).add(1);
        let uplink = vec![
            UplinkReport {
                bytes_used: 100,
                bytes_budget: 200,
                deltas_sent: 1,
                deltas_skipped: 0,
            },
            UplinkReport {
                bytes_used: 40,
                bytes_budget: 200,
                deltas_sent: 1,
                deltas_skipped: 2,
            },
        ];
        let report = TelemetryReport::from_records(&[], &uplink, Some(registry.snapshot()));
        assert_eq!(report.uplink_bytes.count, 2);
        assert_eq!(report.uplink_bytes.sum, 140);
        assert_eq!(report.cache_hit_rate, Some(0.75));
        assert!(report.to_table().contains("75.0%"));
    }
}
