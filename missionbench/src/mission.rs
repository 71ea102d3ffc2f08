//! The two mission workloads, `rich_onboard` and `constellation_ops`.
//!
//! The load generator pre-plans every visit, every contact pass and every
//! day-boundary telemetry snapshot the way `MissionSimulator::run` does,
//! then feeds them one at a time to a real `EarthPlusStrategy` (closed
//! loop, one client thread). Scene rendering happens between the timed
//! calls and is never timed.
//!
//! The traced run feeds the same steps, in lockstep, to the strategy and
//! to [`Replica`], which makes the strategy's public layer calls itself
//! and records a span around each, and checks that every capture's output
//! and every contact's uplink report equal the strategy's.
//!
//! The steps are replayed here rather than through `MissionSimulator::run`
//! for two reasons. The traced run alternates which system takes each step
//! first, so that neither always finds the rendered capture in cache; the
//! simulator calls its strategies in a fixed order. And the world (scenes,
//! weather, orbits) is seeded apart from the contact schedule, which the
//! simulator derives from one seed (see [`WORLD_SEED`]).

use crate::layers::PerLayer;
use crate::restart::restart_cycles;
use crate::spans::Spans;
use crate::stats::{median, ratio, smoothed_quantile, timed, Checks, Metrics};
use crate::{RunArgs, Scale};
use earthplus::strategy::masked_tile_mse;
use earthplus::{CaptureContext, StorageBreakdown};
use earthplus::{
    ChangeDetector, CompressionStrategy, EarthPlusConfig, EarthPlusStrategy, GroundBelief,
};
use earthplus_cloud::{train_onboard_detector, OnboardCloudDetector, TrainingConfig};
use earthplus_codec::{encode_roi_with_scratch, CodecConfig, CodecScratch, DecodeScratch};
use earthplus_ground::{
    ContactWindow, GroundService, GroundServiceConfig, ReferenceImage, ShipQueueConfig,
    StationSetConfig, UplinkReport,
};
use earthplus_orbit::{Constellation, ContactSchedule, LinkModel, SatelliteId};
use earthplus_raster::{psnr_from_mse, AlignmentModel, Band, LocationId, TileGrid, TileMask};
use earthplus_scene::{Capture, DatasetConfig, LocationScene};
use earthplus_telemetry::{names, FlightRecorder, MetricsRegistry, TraceTrack};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which ground segment a mission runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ground {
    /// One durable log-structured store, observability off.
    Persistent,
    /// Two replicated stations on pipelined ship queues, with a metrics
    /// registry and a flight recorder wired in (as in the
    /// `mission_telemetry` example).
    Stations,
}

/// First mission day of the evaluation (earlier days train the detector).
const EVAL_FROM_DAY: i64 = 40;

/// Seed of the world: terrain, events, weather and orbits. It is fixed so
/// that runs with different `--seed`s capture the same places on the same
/// days and differ in the ground-contact schedule, which decides when
/// references are uplinked and so how fresh each satellite's cache is.
/// The captured scenes vary so much between world seeds (which captures
/// are cloudy, guaranteed or mostly changed) that a run of this length
/// would otherwise measure the world more than the system.
const WORLD_SEED: u64 = 7;

/// A mission workload: its scenes and its pre-planned steps.
pub struct Mission {
    scenes: Vec<LocationScene>,
    steps: Vec<Step>,
    targets: Vec<(LocationId, Band)>,
    ground: Ground,
    /// Visits skipped by the dataset's capture cloud filter.
    filtered: usize,
    /// Nominal seconds of one epoch (set-up, every step and its rendering)
    /// on the 2-CPU reference container; sizes a run's epoch count.
    epoch_s: f64,
}

/// One closed-loop step: the day-boundary telemetry snapshot and the
/// contact pass due before a visit (either possibly absent), then the
/// visit's capture.
struct Step {
    /// Whether a mission day ended since the previous step: the simulator
    /// then snapshots the telemetry, which drains pipelined ship queues.
    snapshot: bool,
    pass: Vec<ContactWindow>,
    day: f64,
    satellite: SatelliteId,
    location: LocationId,
    scene: usize,
}

/// `rich_content`: 11 locations × 13 Sentinel-2 bands at 256 px, two
/// satellites, every visit delivered (no cloud filter).
pub fn rich_onboard(seed: u64, scale: Scale) -> Mission {
    let (size, days) = match scale {
        Scale::Full => (256, 60),
        Scale::Tiny => (128, 6),
    };
    let mut dataset = earthplus_scene::rich_content(WORLD_SEED, size);
    if scale == Scale::Tiny {
        dataset.locations.truncate(3);
    }
    plan(&dataset, seed, days, Ground::Persistent, 13.0)
}

/// The rich-content locations re-banded to Planet's 4 bands at 512 px, seen by
/// `large_constellation`'s 48 satellites through its < 5 % cloud filter.
pub fn constellation_ops(seed: u64, scale: Scale) -> Mission {
    // Passes come once per mission day (all visits of a day share its
    // capture time), so the run trades locations for days: 5 locations
    // over 100 days give about as many captures as 11 over 45, and enough
    // passes for a p90. Per-location capture rate, and so reference age,
    // does not depend on the location count.
    let (size, locations, days) = match scale {
        Scale::Full => (512, 5, 100),
        Scale::Tiny => (128, 3, 10),
    };
    let planet = earthplus_scene::large_constellation(WORLD_SEED, size);
    let mut dataset = earthplus_scene::rich_content(WORLD_SEED, size);
    dataset.locations.truncate(locations);
    for location in &mut dataset.locations {
        location.bands = Band::planet_all();
        location.gsd_m = planet.locations[0].gsd_m;
    }
    dataset.satellite_count = planet.satellite_count;
    dataset.capture_cloud_filter = planet.capture_cloud_filter;
    plan(&dataset, seed, days, Ground::Stations, 20.0)
}

/// Pre-plans the visits and contact passes exactly as
/// `MissionSimulator::run` orders them, with the contact schedule from
/// `seed`.
fn plan(dataset: &DatasetConfig, seed: u64, days: u32, ground: Ground, epoch_s: f64) -> Mission {
    let scenes: Vec<LocationScene> = dataset
        .locations
        .iter()
        .map(|c| LocationScene::new(c.clone()))
        .collect();
    let constellation = Constellation::doves(dataset.satellite_count, WORLD_SEED);
    let contacts = ContactSchedule::new(seed ^ 0xC0);
    let uplink = LinkModel::doves_uplink();
    let (from, to) = (EVAL_FROM_DAY, EVAL_FROM_DAY + days as i64);
    let mut visits = Vec::new();
    for scene in &scenes {
        visits.extend(constellation.visits(scene.config().location, from, to));
    }
    visits.sort_by(|a, b| a.day.total_cmp(&b.day));

    let mut last_contact: HashMap<SatelliteId, f64> = HashMap::new();
    let mut steps = Vec::new();
    let mut filtered = 0;
    // The simulator closes a day window at the first visit of a later day,
    // filtered or not; nothing else reaches the strategy in between, so
    // the snapshot of a filtered visit moves to the next kept step.
    let mut window_day: Option<f64> = None;
    let mut snapshot = false;
    for visit in visits {
        let day = visit.day.floor();
        if window_day.is_some_and(|w| day > w) {
            snapshot = true;
        }
        if window_day.is_none_or(|w| day > w) {
            window_day = Some(day);
        }
        let scene = scenes
            .iter()
            .position(|s| s.config().location == visit.location)
            .expect("visit of a planned location");
        if let Some(filter) = dataset.capture_cloud_filter {
            if scenes[scene].cloud_coverage(visit.day) > filter {
                filtered += 1;
                continue;
            }
        }
        let mut pass = Vec::new();
        for satellite in constellation.satellites() {
            let start = last_contact
                .get(&satellite.id)
                .copied()
                .unwrap_or(from as f64);
            for contact in contacts.contacts(satellite.id, start, visit.day) {
                pass.push(ContactWindow {
                    satellite: satellite.id,
                    day: contact.day,
                    budget_bytes: uplink.bytes_per_contact(contact.index),
                });
            }
            last_contact.insert(satellite.id, visit.day);
        }
        pass.sort_by(|a, b| a.day.total_cmp(&b.day));
        steps.push(Step {
            snapshot: std::mem::take(&mut snapshot),
            pass,
            day: visit.day,
            satellite: visit.satellite,
            location: visit.location,
            scene,
        });
    }
    let targets = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(move |&b| (l.location, b)))
        .collect();
    Mission {
        scenes,
        steps,
        targets,
        ground,
        filtered,
        epoch_s,
    }
}

/// The ground configuration a mission's system runs on, under `dir`, plus
/// the flight recorder when observability is on.
fn ground_config(mission: &Mission, dir: &Path) -> (GroundServiceConfig, Option<FlightRecorder>) {
    // θ as the strategy sets it, so a reopen sees the same configuration.
    let base = GroundServiceConfig::default()
        .with_targets(mission.targets.clone())
        .with_theta(EarthPlusConfig::paper().theta);
    match mission.ground {
        Ground::Persistent => (base.with_persistence(dir), None),
        Ground::Stations => {
            let registry = MetricsRegistry::new();
            let recorder = FlightRecorder::new();
            recorder.register_metrics(&registry);
            let stations = StationSetConfig {
                queue: ShipQueueConfig {
                    pipelined: true,
                    ..ShipQueueConfig::default()
                },
                ..StationSetConfig::default()
            };
            let config = base
                .with_stations(dir, stations)
                .with_telemetry(registry.sink())
                .with_tracing(recorder.sink());
            (config, Some(recorder))
        }
    }
}

/// What one capture produced, as compared between runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CaptureOut {
    bytes: u64,
    dropped: bool,
    psnr_db: Option<f64>,
    tile_fraction: f64,
    reference_age_days: Option<f64>,
}

/// One pass over the mission's steps.
struct Epoch {
    captures: Vec<CaptureOut>,
    passes: Vec<Vec<UplinkReport>>,
    capture_s: Vec<f64>,
    /// Each pass's seconds, with the day-boundary snapshot before it.
    pass_s: Vec<f64>,
    /// Seconds in every system call: captures, passes and snapshots.
    system_s: f64,
    /// References per second the ground ingested within each capture that
    /// ingested any, from its own ingest timer.
    ingest_rates: Vec<f64>,
    storage: StorageBreakdown,
}

/// Captured band-megapixels offered per step.
fn band_mpix(scene: &LocationScene) -> f64 {
    let c = scene.config();
    (c.width * c.height * c.bands.len()) as f64 * 1e-6
}

/// A fresh store directory for one system instance.
fn fresh_dir(out: &Path, tag: &str, n: usize) -> PathBuf {
    let dir = out.join(format!("{tag}-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Trains the on-board detector (part of every system's set-up).
fn train(mission: &Mission) -> OnboardCloudDetector {
    train_onboard_detector(&mission.scenes[0], &TrainingConfig::default())
}

fn set_up_strategy(
    mission: &Mission,
    dir: &Path,
) -> (EarthPlusStrategy, Option<FlightRecorder>, f64) {
    let ((strategy, recorder), setup_s) = timed(|| {
        let detector = train(mission);
        let (ground, recorder) = ground_config(mission, dir);
        let strategy =
            EarthPlusStrategy::with_ground_config(EarthPlusConfig::paper(), detector, ground);
        (strategy, recorder)
    });
    (strategy, recorder, setup_s)
}

impl Epoch {
    fn new(steps: usize) -> Self {
        Epoch {
            captures: Vec::with_capacity(steps),
            passes: Vec::new(),
            capture_s: Vec::with_capacity(steps),
            pass_s: Vec::new(),
            system_s: 0.0,
            ingest_rates: Vec::new(),
            storage: StorageBreakdown::default(),
        }
    }
}

/// Feeds one step to the strategy, timing each call.
fn strategy_step(
    strategy: &mut EarthPlusStrategy,
    step: &Step,
    capture: &Capture,
    epoch: &mut Epoch,
    checks: &mut Checks,
) {
    if step.snapshot || !step.pass.is_empty() {
        checks.call();
        let (reports, s) = timed(|| {
            if step.snapshot {
                strategy.telemetry_snapshot();
            }
            (!step.pass.is_empty()).then(|| strategy.on_contact_pass(&step.pass))
        });
        epoch.system_s += s;
        if let Some(reports) = reports {
            check_pass(&step.pass, &reports, checks);
            epoch.pass_s.push(s);
            epoch.passes.push(reports);
        }
    }
    let ctx = CaptureContext {
        day: step.day,
        satellite: step.satellite,
        location: step.location,
        capture,
    };
    let ingest_timer = strategy
        .ground()
        .telemetry()
        .histogram(names::GROUND_INGEST_NS);
    let before = ingest_timer.snapshot();
    checks.call();
    let (report, s) = timed(|| strategy.on_capture(&ctx));
    epoch.capture_s.push(s);
    epoch.system_s += s;
    let ingested = ingest_timer.snapshot().delta(&before);
    if ingested.count > 0 {
        epoch
            .ingest_rates
            .push(ratio(ingested.count as f64, ingested.sum as f64 * 1e-9));
    }
    let band_sum: u64 = report.band_bytes.iter().map(|&(_, b)| b).sum();
    checks.expect(band_sum == report.downloaded_bytes, || {
        format!("day {}: band bytes do not add up", step.day)
    });
    checks.expect(report.psnr_db.is_none_or(f64::is_finite), || {
        format!("day {}: non-finite PSNR", step.day)
    });
    epoch.captures.push(CaptureOut {
        bytes: report.downloaded_bytes,
        dropped: report.dropped,
        psnr_db: report.psnr_db,
        tile_fraction: report.downloaded_tile_fraction,
        reference_age_days: report.reference_age_days,
    });
}

fn run_strategy(mission: &Mission, strategy: &mut EarthPlusStrategy, checks: &mut Checks) -> Epoch {
    let mut epoch = Epoch::new(mission.steps.len());
    for step in &mission.steps {
        let capture = mission.scenes[step.scene].capture(step.day);
        strategy_step(strategy, step, &capture, &mut epoch, checks);
    }
    epoch.system_s += final_snapshot(strategy, checks);
    epoch.storage = strategy.storage();
    epoch
}

/// The snapshot closing the last day window, as the simulator takes it
/// after the last visit; returns its seconds.
fn final_snapshot(strategy: &EarthPlusStrategy, checks: &mut Checks) -> f64 {
    checks.call();
    timed(|| strategy.telemetry_snapshot()).1
}

fn check_pass(pass: &[ContactWindow], reports: &[UplinkReport], checks: &mut Checks) {
    checks.expect(reports.len() == pass.len(), || {
        format!(
            "pass of {} windows gave {} reports",
            pass.len(),
            reports.len()
        )
    });
    checks.expect(
        reports.iter().all(|r| r.bytes_used <= r.bytes_budget),
        || "uplink report over its byte budget".to_owned(),
    );
}

/// `EarthPlusStrategy` rebuilt from the layers' public calls, with a span
/// around each. It must downlink the same bytes and plan the same uplink
/// as the strategy; the traced run checks that it does.
struct Replica {
    config: EarthPlusConfig,
    codec: CodecConfig,
    codec_scratch: CodecScratch,
    decode_scratch: DecodeScratch,
    cloud_detector: OnboardCloudDetector,
    change_detector: ChangeDetector,
    service: GroundService,
    belief: GroundBelief,
    pending_bytes: HashMap<SatelliteId, u64>,
    peak_pending: u64,
    last_full: HashMap<LocationId, f64>,
    /// Work counted at the layer boundaries.
    counts: PerLayer,
    reference_age_sum: f64,
    reference_ages: u64,
    decode_failures: u64,
}

impl Replica {
    fn new(detector: OnboardCloudDetector, ground: GroundServiceConfig) -> Self {
        let config = EarthPlusConfig::paper();
        let mut codec_scratch = CodecScratch::new();
        codec_scratch.set_telemetry(&ground.telemetry);
        codec_scratch.set_tracing(&ground.tracing);
        let mut decode_scratch = DecodeScratch::new();
        decode_scratch.set_telemetry(&ground.telemetry);
        decode_scratch.set_tracing(&ground.tracing);
        Replica {
            change_detector: ChangeDetector::new(config.detection_theta(), config.tile_size),
            codec: CodecConfig::lossy().with_format(config.codec_format),
            codec_scratch,
            decode_scratch,
            cloud_detector: detector,
            service: GroundService::new(ground),
            belief: GroundBelief::new(),
            pending_bytes: HashMap::new(),
            peak_pending: 0,
            last_full: HashMap::new(),
            counts: PerLayer::default(),
            reference_age_sum: 0.0,
            reference_ages: 0,
            decode_failures: 0,
            config,
        }
    }

    /// `EarthPlusStrategy::telemetry_snapshot`: drains the ship queues,
    /// then snapshots the registry.
    fn telemetry_snapshot(&self, spans: &mut Spans, root: usize) {
        let service = &self.service;
        spans.layer(root, "station.quiesce", || {
            if let Some(stations) = service.stations() {
                stations.quiesce();
            }
        });
        let sink = &service.config().telemetry;
        spans.layer(root, "telemetry.snapshot", || {
            sink.registry().map(|r| r.snapshot())
        });
    }

    fn on_contact_pass(
        &mut self,
        contacts: &[ContactWindow],
        spans: &mut Spans,
        root: usize,
    ) -> Vec<UplinkReport> {
        for contact in contacts {
            if let Some(p) = self.pending_bytes.get_mut(&contact.satellite) {
                *p = 0;
            }
        }
        self.counts.contacts += contacts.len() as u64;
        let service = &self.service;
        spans.layer(root, "ground.plan", || service.plan_pass(contacts))
    }

    fn on_capture(
        &mut self,
        ctx: &CaptureContext<'_>,
        spans: &mut Spans,
        root: usize,
    ) -> CaptureOut {
        let capture = ctx.capture;
        let (w, h) = capture.image.dimensions();
        let grid = TileGrid::new(w, h, self.config.tile_size).expect("capture is tileable");
        // The strategy's own trace calls (no-ops unless a flight recorder
        // is wired), so the traced system records what the real one does.
        let tracing = self.service.tracing().clone();
        let trace = tracing.mint();
        let _scope = tracing.scope(trace, TraceTrack::Satellite(ctx.satellite.0));
        let mut capture_span = tracing.span("strategy", "capture");
        capture_span.arg("day", ctx.day);
        capture_span.arg("location", ctx.location.0);
        capture_span.arg("cloud_fraction", capture.cloud_fraction);
        let sink = self.service.config().telemetry.clone();
        self.counts.captures += 1;

        let detector = &self.cloud_detector;
        let (detection, cloud_s) = spans.layer(root, "cloud.detect", || {
            let mut cloud_span = tracing.span("strategy", "cloud_detect");
            let (detection, s) = timed(|| detector.detect(&capture.image));
            let detection = detection.expect("capture is tileable");
            cloud_span.arg("detected_coverage", detection.coverage);
            (detection, s)
        });
        sink.histogram(names::STAGE_CLOUD_NS).record_secs(cloud_s);
        let cloudy_tiles = detection.tile_mask;
        if detection.coverage > self.config.cloud_drop_threshold {
            tracing.instant(
                "strategy",
                "capture.dropped",
                &[("detected_coverage", detection.coverage.into())],
            );
            capture_span.arg("dropped", true);
            self.counts.dropped += 1;
            return CaptureOut {
                bytes: 0,
                dropped: true,
                psnr_db: None,
                tile_fraction: 0.0,
                reference_age_days: None,
            };
        }
        let guaranteed = ctx.day
            - self
                .last_full
                .get(&ctx.location)
                .copied()
                .unwrap_or(f64::NEG_INFINITY)
            >= self.config.guaranteed_period_days;
        let budget = self.config.tile_budget_bytes();
        capture_span.arg("guaranteed", guaranteed);
        capture_span.arg("tile_budget_bytes", budget as u64);
        let mut clear = TileMask::new(&grid);
        clear.fill();
        clear.subtract(&cloudy_tiles);
        let tile_pixels = (self.config.tile_size * self.config.tile_size) as f64;

        let (mut total_bytes, mut tile_fraction_sum) = (0u64, 0.0f64);
        let (mut mse_sum, mut mse_bands) = (0.0f64, 0u32);
        let (mut age_sum, mut age_n) = (0.0f64, 0u32);
        let (mut change_s, mut encode_s, mut patch_s) = (0.0, 0.0, 0.0);
        for (band, band_raster) in capture.image.iter() {
            let t = Instant::now();
            let mut change_span = tracing.span("strategy", "change_detect");
            let mut fresh_canonical = guaranteed;
            let mut alignment = AlignmentModel::identity();
            let changed = if guaranteed {
                clear.clone()
            } else {
                let service = &self.service;
                let served = spans.layer(root, "ground.serve", || {
                    service.serve_reference(ctx.satellite, ctx.location, band)
                });
                match served {
                    Some(reference) => {
                        let age = reference.age_days(ctx.day);
                        change_span.arg("reference_age_days", age);
                        age_sum += age;
                        age_n += 1;
                        let detector = &self.change_detector;
                        let detection = spans.layer(root, "change.detect", || {
                            detector.detect(band_raster, &reference, Some(&cloudy_tiles))
                        });
                        let detection = detection.expect("capture matches reference geometry");
                        alignment = detection.alignment;
                        detection.changed
                    }
                    None => {
                        fresh_canonical = true;
                        change_span.arg("cold_cache", true);
                        clear.clone()
                    }
                }
            };
            change_span.arg("changed_tiles", changed.count_set());
            drop(change_span);
            change_s += t.elapsed().as_secs_f64();

            let (codec, scratch) = (&self.codec, &mut self.codec_scratch);
            let (roi, s) = spans.layer(root, "codec.encode", || {
                timed(|| {
                    encode_roi_with_scratch(band_raster, &grid, &changed, codec, budget, scratch)
                })
            });
            encode_s += s;
            let roi = roi.expect("image matches grid");
            let size = roi.size_bytes() as u64;
            let payload: u64 = roi
                .tiles()
                .iter()
                .map(|t| t.image.payload_len() as u64)
                .sum();
            total_bytes += size;
            self.counts.downlinked_bytes += size;
            self.counts.header_bytes += size - payload;
            self.counts.tiles_encoded += changed.count_set() as u64;
            self.counts.tiles_total += grid.tile_count() as u64;
            self.counts.encoded_mpix += changed.count_set() as f64 * tile_pixels * 1e-6;
            tile_fraction_sum += changed.count_set() as f64 / grid.tile_count() as f64;

            let t = Instant::now();
            let ground_scope = tracing.scope(trace, TraceTrack::Station(0));
            let mut patch_span = tracing.span("strategy", "ground.patch");
            patch_span.arg("roi_bytes", size);
            let scratch = &mut self.decode_scratch;
            let decoded = spans.layer(root, "codec.decode", || {
                roi.decode_tiles_with_scratch(scratch)
            });
            let tiles = match decoded {
                Ok(tiles) if tiles.len() == roi.tile_count() => tiles,
                _ => {
                    self.decode_failures += 1;
                    Vec::new()
                }
            };
            let belief = self.belief.belief_mut(ctx.location, band, w, h);
            let mse = spans.layer(root, "core.patch", || {
                let gain = if alignment.gain.abs() < 0.25 {
                    1.0
                } else {
                    alignment.gain
                };
                for (index, tile) in tiles {
                    let normalized = if fresh_canonical {
                        tile
                    } else {
                        tile.map(|v| (v - alignment.offset) / gain)
                    };
                    grid.insert_tile(belief, index, &normalized)
                        .expect("belief matches grid");
                }
                let rendered = if fresh_canonical {
                    belief.clone()
                } else {
                    alignment.apply_to(belief)
                };
                masked_tile_mse(&rendered, band_raster, &grid, &clear)
            });
            if let Some(mse) = mse {
                mse_sum += mse;
                mse_bands += 1;
            }
            drop(patch_span);
            drop(ground_scope);
            patch_s += t.elapsed().as_secs_f64();
        }
        sink.histogram(names::STAGE_CHANGE_NS).record_secs(change_s);
        sink.histogram(names::STAGE_ENCODE_NS).record_secs(encode_s);
        sink.histogram(names::STAGE_GROUND_PATCH_NS)
            .record_secs(patch_s);
        if guaranteed {
            self.last_full.insert(ctx.location, ctx.day);
        }
        if capture.cloud_fraction < self.config.reference_cloud_max {
            let (belief, service) = (&self.belief, &self.service);
            let downsample = self.config.reference_downsample;
            for (band, _) in capture.image.iter() {
                if let Some(belief) = belief.belief(ctx.location, band) {
                    let built = spans.layer(root, "ground.reference_build", || {
                        ReferenceImage::from_capture(
                            ctx.location,
                            band,
                            ctx.day,
                            belief,
                            downsample,
                        )
                    });
                    if let Ok(reference) = built {
                        spans.layer(root, "ground.ingest", || service.ingest_downlink(reference));
                    }
                }
            }
        }
        let pending = self.pending_bytes.entry(ctx.satellite).or_insert(0);
        *pending += total_bytes;
        self.peak_pending = self.peak_pending.max(*pending);
        capture_span.arg("downloaded_bytes", total_bytes);
        if age_n > 0 {
            self.reference_age_sum += age_sum / age_n as f64;
            self.reference_ages += 1;
        }
        let bands = capture.image.band_count() as f64;
        CaptureOut {
            bytes: total_bytes,
            dropped: false,
            psnr_db: (mse_bands > 0).then(|| psnr_from_mse(mse_sum / mse_bands as f64)),
            tile_fraction: tile_fraction_sum / bands,
            reference_age_days: (age_n > 0).then(|| age_sum / age_n as f64),
        }
    }

    /// Feeds one step to the replica, each call a root span.
    fn step(
        &mut self,
        id: u64,
        step: &Step,
        capture: &Capture,
        spans: &mut Spans,
        out: &mut Epoch,
    ) {
        if step.snapshot || !step.pass.is_empty() {
            let root = spans.open(id, "pass");
            if step.snapshot {
                self.telemetry_snapshot(spans, root);
            }
            if !step.pass.is_empty() {
                let reports = self.on_contact_pass(&step.pass, spans, root);
                out.passes.push(reports);
            }
            spans.close(root);
        }
        let ctx = CaptureContext {
            day: step.day,
            satellite: step.satellite,
            location: step.location,
            capture,
        };
        let root = spans.open(id, "capture");
        let captured = self.on_capture(&ctx, spans, root);
        spans.close(root);
        out.captures.push(captured);
    }

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            captured_bytes: 2 * self.peak_pending,
            reference_bytes: self.service.peak_cache_bytes(),
        }
    }
}

/// Set-up samples every run takes at least, for a median.
const MIN_SETUPS: usize = 3;

/// Reopens timed at the end of a traced run, for a median.
const RESTARTS: usize = 31;

/// Whole epochs that fill `seconds` of wall time at `epoch_s` each (at
/// least one). The count depends on nothing measured, so every run with
/// the same `--seconds` does the same work.
pub fn epoch_count(seconds: f64, epoch_s: f64) -> usize {
    (seconds / epoch_s).round().max(1.0) as usize
}

/// The untraced run: whole epochs (set-up plus every step) filling the
/// wall-clock budget, then close-and-reopen cycles on the last system.
pub fn run_untraced(mission: &Mission, args: &RunArgs<'_>, checks: &mut Checks) -> Metrics {
    let wanted = epoch_count(args.seconds, mission.epoch_s);
    let mut setups = Vec::new();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut n = 0;
    let (strategy, config) = loop {
        let dir = fresh_dir(args.out, &args.tag, n);
        n += 1;
        let (mut strategy, _recorder, setup_s) = set_up_strategy(mission, &dir);
        setups.push(setup_s);
        let epoch = run_strategy(mission, &mut strategy, checks);
        eprintln!(
            "{}: epoch {n}: capture p50 {:.3} ms, system {:.3} s",
            args.tag,
            1e3 * median(&epoch.capture_s),
            epoch.capture_s.iter().chain(&epoch.pass_s).sum::<f64>()
        );
        if let Some(first) = epochs.first() {
            checks.expect(
                epoch.captures == first.captures && epoch.passes == first.passes,
                || "a repeated epoch downlinked or uplinked differently".to_owned(),
            );
        }
        epochs.push(epoch);
        if epochs.len() == wanted {
            break (strategy, dir);
        }
        drop(strategy);
        let _ = std::fs::remove_dir_all(&dir);
    };
    while setups.len() < MIN_SETUPS {
        let dir = fresh_dir(args.out, &args.tag, n);
        n += 1;
        let (strategy, _recorder, setup_s) = set_up_strategy(mission, &dir);
        setups.push(setup_s);
        drop(strategy);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let entries = strategy.ground().store().len();
    let ground = strategy.ground().config().clone();
    strategy.ground().sync();
    // One close-and-reopen, as an output check; the traced run times them.
    let (_, reopened) = restart_cycles(&ground, move || drop(strategy), entries, 1, checks);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&config);

    let first = &epochs[0];
    let capture_s: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.capture_s.iter().copied())
        .collect();
    let pass_s: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.pass_s.iter().copied())
        .collect();
    let busy: f64 = epochs.iter().map(|e| e.system_s).sum();
    let mpix: f64 = mission
        .steps
        .iter()
        .map(|s| band_mpix(&mission.scenes[s.scene]))
        .sum::<f64>()
        * epochs.len() as f64;
    let kept: Vec<f64> = first.captures.iter().filter_map(|c| c.psnr_db).collect();
    let bytes: u64 = first.captures.iter().map(|c| c.bytes).sum();
    eprintln!(
        "{}: {} epochs; latency samples: {} captures ({} visits filtered as cloudy), {} passes",
        args.tag,
        epochs.len(),
        capture_s.len(),
        mission.filtered,
        pass_s.len(),
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("capture_mpix_per_s", ratio(mpix, busy), "MPix/s");
    m.put(
        "capture_ms_p50",
        1e3 * smoothed_quantile(&capture_s, 0.5),
        "ms",
    );
    m.put(
        "capture_ms_p90",
        1e3 * smoothed_quantile(&capture_s, 0.9),
        "ms",
    );
    m.put("pass_ms_p50", 1e3 * smoothed_quantile(&pass_s, 0.5), "ms");
    m.put("pass_ms_p90", 1e3 * smoothed_quantile(&pass_s, 0.9), "ms");
    m.put(
        "downlink_kib_per_capture",
        ratio(bytes as f64 / 1024.0, first.captures.len() as f64),
        "KiB",
    );
    m.put("psnr_db", ratio(kept.iter().sum(), kept.len() as f64), "dB");
    m.put(
        "onboard_storage_kib",
        first.storage.total() as f64 / 1024.0,
        "KiB",
    );
    let ingest_rates: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.ingest_rates.iter().copied())
        .collect();
    m.put("ingest_refs_per_s", median(&ingest_rates), "1/s");
    m
}

/// The traced run: the strategy (untraced) and the replica (traced), each
/// on a freshly set-up system, take the same steps in lockstep — each
/// capture is rendered once and handed to both, and they take turns going
/// first — and must agree call by call.
pub fn run_traced(mission: &Mission, args: &RunArgs<'_>, checks: &mut Checks) -> Metrics {
    let (dir0, dir1) = (
        fresh_dir(args.out, &args.tag, 0),
        fresh_dir(args.out, &args.tag, 1),
    );
    let (mut strategy, recorder, _) = set_up_strategy(mission, &dir0);
    let (ground, _replica_recorder) = ground_config(mission, &dir1);
    let mut replica = Replica::new(train(mission), ground.clone());
    let mut spans = Spans::default();
    let mut truth = Epoch::new(mission.steps.len());
    let mut traced = Epoch::new(mission.steps.len());
    for (id, step) in mission.steps.iter().enumerate() {
        let capture = mission.scenes[step.scene].capture(step.day);
        let id = id as u64;
        if id.is_multiple_of(2) {
            strategy_step(&mut strategy, step, &capture, &mut truth, checks);
            replica.step(id, step, &capture, &mut spans, &mut traced);
        } else {
            replica.step(id, step, &capture, &mut spans, &mut traced);
            strategy_step(&mut strategy, step, &capture, &mut truth, checks);
        }
    }
    truth.system_s += final_snapshot(&strategy, checks);
    let root = spans.open(mission.steps.len() as u64, "snapshot");
    replica.telemetry_snapshot(&mut spans, root);
    spans.close(root);
    truth.storage = strategy.storage();
    let storage = replica.storage();
    let untraced_s = truth.system_s;
    let (recorded, dropped_events) = recorder
        .as_ref()
        .map_or((0, 0), |r| (r.recorded_events(), r.dropped_events()));
    drop(strategy);
    drop(recorder);
    let _ = std::fs::remove_dir_all(&dir0);
    let (captures, passes) = (traced.captures, traced.passes);

    // One attempted call per replica call: each must match the strategy's
    // output for the same step exactly. Equal PSNRs check the replica's
    // decode, patch and render as well as its downlinked bytes.
    checks.expect(
        captures.len() == truth.captures.len() && passes.len() == truth.passes.len(),
        || "replica and strategy took different numbers of calls".to_owned(),
    );
    for (n, (a, b)) in captures.iter().zip(&truth.captures).enumerate() {
        checks.call();
        checks.expect(a == b, || {
            format!("capture {n}: replica gave {a:?}, strategy {b:?}")
        });
    }
    for (n, (a, b)) in passes.iter().zip(&truth.passes).enumerate() {
        checks.call();
        checks.expect(a == b, || {
            format!("pass {n}: replica planned a different uplink")
        });
    }
    checks.expect(storage == truth.storage, || {
        "replica's on-board storage differs".to_owned()
    });
    checks.expect(replica.decode_failures == 0, || {
        format!(
            "{} downlinked ROIs failed to decode",
            replica.decode_failures
        )
    });

    let mut layers = PerLayer::from_spans(&spans);
    let counts = &replica.counts;
    layers.encoded_mpix = counts.encoded_mpix;
    layers.tiles_encoded = counts.tiles_encoded;
    layers.header_bytes = counts.header_bytes;
    layers.downlinked_bytes = counts.downlinked_bytes;
    layers.tiles_total = counts.tiles_total;
    layers.captures = counts.captures;
    layers.dropped = counts.dropped;
    layers.contacts = counts.contacts;
    layers.reference_age_days = ratio(replica.reference_age_sum, replica.reference_ages as f64);
    layers.read_ground(
        &replica.service.stats(),
        replica.service.stations().map(|s| s.stats()).as_ref(),
        &replica
            .service
            .telemetry()
            .registry()
            .expect("the ground service always keeps a registry")
            .snapshot(),
    );
    layers.recorded_events = recorded;
    layers.dropped_events = dropped_events;
    layers.capture_samples = captures.len() as u64;
    layers.pass_samples = passes.len() as u64;
    layers.trace_overhead_share = ratio(layers.system_s - untraced_s, untraced_s);

    let entries = replica.service.store().len();
    let service = replica.service;
    service.sync();
    let (replays, reopened) =
        restart_cycles(&ground, move || drop(service), entries, RESTARTS, checks);
    let recovery = reopened
        .as_ref()
        .and_then(|s| s.recovery_report().copied())
        .unwrap_or_default();
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir1);
    layers.replay_s = median(&replays);
    layers.records_replayed = recovery.live_records + recovery.superseded_records;
    let shares: Vec<String> = spans
        .shares()
        .iter()
        .map(|(name, share)| format!("{name} {:.1}%", 100.0 * share))
        .collect();
    eprintln!("{}: traced layer shares: {}", args.tag, shares.join(", "));
    if let Err(e) = spans.write_tsv(&args.out.join(format!("{}-spans.tsv", args.tag))) {
        eprintln!("span dump not written: {e}");
    }
    layers.to_metrics()
}
