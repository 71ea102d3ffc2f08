//! The Earth+ strategy: constellation-wide reference-based encoding.
//!
//! End-to-end flow per §4.2:
//!
//! 1. at each ground contact, the ground uploads (delta-compressed,
//!    downsampled) reference updates chosen from the constellation-wide
//!    pool, within the 250 kbps uplink budget;
//! 2. on capture, the satellite removes detected clouds, drops > 50 %
//!    cloudy images, illumination-aligns the cached reference, detects
//!    changed tiles at the reference's low resolution with threshold θ,
//!    and ROI-encodes only those tiles at γ bits/pixel;
//! 3. on download, the ground patches the changed tiles into its latest
//!    reconstruction, re-detects clouds accurately, and admits cloud-free
//!    reconstructions into the reference pool;
//! 4. once every 30 days per location, the satellite downloads the full
//!    (non-cloudy) image — the guaranteed-download safety net (§5).

use crate::change::ChangeDetector;
use crate::config::EarthPlusConfig;
use crate::strategy::{
    masked_tile_mse, CaptureContext, CaptureReport, CompressionStrategy, GroundBelief,
    StageTimings, StorageBreakdown,
};
use earthplus_cloud::OnboardCloudDetector;
use earthplus_codec::{encode_roi_with_scratch, CodecConfig, CodecScratch, DecodeScratch};
use earthplus_ground::{
    ContactWindow, GroundService, GroundServiceConfig, ReferenceImage, UplinkReport,
};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{psnr_from_mse, Band, LocationId, TileGrid, TileMask};
use earthplus_telemetry::{
    names, Histogram, Snapshot, StageGuard, TelemetrySink, TraceSink, TraceTrack,
};
use std::collections::HashMap;
use std::time::Duration;

/// The Earth+ system under simulation.
///
/// All reference traffic — ingest of cloud-free reconstructions, uplink
/// scheduling across the constellation, and on-board cache reads — routes
/// through one [`GroundService`].
pub struct EarthPlusStrategy {
    config: EarthPlusConfig,
    codec: CodecConfig,
    // Reusable encoder arena: persists across tiles, bands, and captures,
    // so the steady-state encode path allocates no scratch at all.
    codec_scratch: CodecScratch,
    // Reusable decoder arena for the ground-side tile decode (step 6):
    // same steady-state contract as the encode arena.
    decode_scratch: DecodeScratch,
    cloud_detector: OnboardCloudDetector,
    change_detector: ChangeDetector,
    // The ground segment: sharded store + pass scheduler + cache models.
    service: GroundService,
    belief: GroundBelief,
    // Per-satellite downlink queue accounting.
    pending_bytes: HashMap<SatelliteId, u64>,
    peak_pending: u64,
    last_full: HashMap<LocationId, f64>,
    // Telemetry: the sink shared with the ground service, plus the
    // per-stage histograms resolved from it once at construction. All of
    // them are no-op handles unless the caller wired a registry into the
    // ground config; the capture path's stage guards read the clock
    // either way, because `StageTimings` reports the durations.
    sink: TelemetrySink,
    // Tracing: the capture path mints one TraceId per capture and opens an
    // ambient scope on the satellite's track, so the codec / ground /
    // refstore spans recorded underneath all carry the same causal id.
    // Disabled (the default) this is one pointer check per capture.
    tracing: TraceSink,
    stage_cloud_ns: Histogram,
    stage_change_ns: Histogram,
    stage_encode_ns: Histogram,
    stage_ground_patch_ns: Histogram,
}

impl EarthPlusStrategy {
    /// Creates the strategy.
    ///
    /// `targets` lists every (location, band) the mission serves — the
    /// ground service schedules them at each contact pass.
    pub fn new(
        config: EarthPlusConfig,
        cloud_detector: OnboardCloudDetector,
        targets: Vec<(LocationId, Band)>,
    ) -> Self {
        let ground = GroundServiceConfig::default().with_targets(targets);
        Self::with_ground_config(config, cloud_detector, ground)
    }

    /// Creates the strategy on an explicit ground-segment configuration —
    /// the seam that lets the same mission run on the in-memory or the
    /// persistent reference backend (or a bounded on-board cache model)
    /// with no other code change. The θ in `config` overrides the one in
    /// `ground` so the two cannot drift apart.
    pub fn with_ground_config(
        config: EarthPlusConfig,
        cloud_detector: OnboardCloudDetector,
        ground: GroundServiceConfig,
    ) -> Self {
        // The strategy times its stages into the same sink the ground
        // service exports through, so one registry sees the whole system.
        let sink = ground.telemetry.clone();
        let tracing = ground.tracing.clone();
        let mut codec_scratch = CodecScratch::new();
        codec_scratch.set_telemetry(&sink);
        codec_scratch.set_tracing(&tracing);
        let mut decode_scratch = DecodeScratch::new();
        decode_scratch.set_telemetry(&sink);
        decode_scratch.set_tracing(&tracing);
        let service = GroundService::new(ground.with_theta(config.theta));
        EarthPlusStrategy {
            change_detector: ChangeDetector::new(config.detection_theta(), config.tile_size),
            codec: CodecConfig::lossy().with_format(config.codec_format),
            codec_scratch,
            decode_scratch,
            config,
            cloud_detector,
            service,
            belief: GroundBelief::new(),
            pending_bytes: HashMap::new(),
            peak_pending: 0,
            last_full: HashMap::new(),
            stage_cloud_ns: sink.histogram(names::STAGE_CLOUD_NS),
            stage_change_ns: sink.histogram(names::STAGE_CHANGE_NS),
            stage_encode_ns: sink.histogram(names::STAGE_ENCODE_NS),
            stage_ground_patch_ns: sink.histogram(names::STAGE_GROUND_PATCH_NS),
            sink,
            tracing,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EarthPlusConfig {
        &self.config
    }

    /// The ground-segment service (for inspection by experiments).
    pub fn ground(&self) -> &GroundService {
        &self.service
    }

    /// The encoder scratch arena (for allocation accounting in tests and
    /// the perf baseline).
    pub fn codec_scratch(&self) -> &CodecScratch {
        &self.codec_scratch
    }

    /// The decoder scratch arena used by the ground-side tile decode (for
    /// allocation accounting in tests and the perf baseline).
    pub fn decode_scratch(&self) -> &DecodeScratch {
        &self.decode_scratch
    }

    /// The telemetry sink the strategy (and its ground service) records
    /// through — disabled unless the ground config carried a registry.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.sink
    }

    /// The trace sink the strategy (and its ground service, codec, and
    /// refstore) records through — disabled unless the ground config
    /// carried a flight recorder.
    pub fn tracing(&self) -> &TraceSink {
        &self.tracing
    }
}

impl CompressionStrategy for EarthPlusStrategy {
    fn name(&self) -> &'static str {
        "earth+"
    }

    fn on_ground_contact(
        &mut self,
        satellite: SatelliteId,
        day: f64,
        uplink_budget_bytes: u64,
    ) -> UplinkReport {
        // Downlink side: the queued captures drain (downlink is orders of
        // magnitude larger than what Earth+ queues).
        if let Some(p) = self.pending_bytes.get_mut(&satellite) {
            *p = 0;
        }
        self.service
            .plan_contact(satellite, day, uplink_budget_bytes)
    }

    fn on_contact_pass(&mut self, contacts: &[ContactWindow]) -> Vec<UplinkReport> {
        for contact in contacts {
            if let Some(p) = self.pending_bytes.get_mut(&contact.satellite) {
                *p = 0;
            }
        }
        self.service.plan_pass(contacts)
    }

    fn on_capture(&mut self, ctx: &CaptureContext<'_>) -> CaptureReport {
        let capture = ctx.capture;
        let (w, h) = capture.image.dimensions();
        let grid = TileGrid::new(w, h, self.config.tile_size).expect("capture is tileable");
        let mut timings = StageTimings::default();

        // Mint this capture's causal trace id and make it ambient on the
        // satellite's track: every span and instant recorded until `_scope`
        // drops — including inside the codec, the ground service, and the
        // refstore — carries the same id, so one capture can be replayed
        // end to end from the flight recorder.
        let trace = self.tracing.mint();
        let _scope = self
            .tracing
            .scope(trace, TraceTrack::Satellite(ctx.satellite.0));
        let mut capture_span = self.tracing.span("strategy", "capture");
        capture_span.arg("day", ctx.day);
        capture_span.arg("location", ctx.location.0);
        capture_span.arg("cloud_fraction", capture.cloud_fraction);

        // 1. Cheap on-board cloud detection. Guards here are timed whatever
        // the sinks (`timings` exist with observability off); dropped
        // captures paid for detection, so it records before the drop.
        let mut cloud_stage = self
            .tracing
            .span("strategy", "cloud_detect")
            .with_histogram(&self.stage_cloud_ns)
            .timed();
        let detection = self
            .cloud_detector
            .detect(&capture.image)
            .expect("capture is tileable");
        cloud_stage.arg("detected_coverage", detection.coverage);
        timings.cloud_s = cloud_stage.finish().as_secs_f64();
        let cloudy_tiles = detection.tile_mask;

        // 2. Image dropping (> 50 % detected cloud).
        if detection.coverage > self.config.cloud_drop_threshold {
            self.tracing.instant(
                "strategy",
                "capture.dropped",
                &[("detected_coverage", detection.coverage.into())],
            );
            capture_span.arg("dropped", true);
            return CaptureReport {
                day: ctx.day,
                satellite: ctx.satellite,
                location: ctx.location,
                cloud_fraction: capture.cloud_fraction,
                dropped: true,
                guaranteed: false,
                downloaded_bytes: 0,
                downloaded_tile_fraction: 0.0,
                psnr_db: None,
                reference_age_days: None,
                timings,
                band_bytes: Vec::new(),
                trace,
            };
        }

        // 3. Guaranteed downloading: full image once per period (§5).
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
        let mut total_bytes = 0u64;
        let mut band_bytes: Vec<(Band, u64)> = Vec::new();
        let mut tile_fraction_sum = 0.0f64;
        let mut mse_sum = 0.0f64;
        let mut mse_bands = 0u32;
        let mut ref_age_sum = 0.0f64;
        let mut ref_age_n = 0u32;
        // Per-band stage times, summed exactly: one record per capture.
        let [mut change, mut encode, mut ground_patch] = [Duration::ZERO; 3];

        for (band, band_raster) in capture.image.iter() {
            // 4. Change detection against the cached reference. The fitted
            // illumination model (reference radiometry -> this capture's)
            // rides along: the ground inverts it to keep its belief mosaic
            // in one canonical illumination ([72]).
            let mut change_stage = self.tracing.span("strategy", "change_detect").timed();
            let mut fresh_canonical = guaranteed;
            let mut alignment = earthplus_raster::AlignmentModel::identity();
            let changed = if guaranteed {
                let mut all = TileMask::new(&grid);
                all.fill();
                all.subtract(&cloudy_tiles);
                all
            } else {
                match self
                    .service
                    .serve_reference(ctx.satellite, ctx.location, band)
                {
                    Some(reference) => {
                        let age = reference.age_days(ctx.day);
                        change_stage.arg("reference_age_days", age);
                        ref_age_sum += age;
                        ref_age_n += 1;
                        let detection = self
                            .change_detector
                            .detect(band_raster, &reference, Some(&cloudy_tiles))
                            .expect("capture matches reference geometry");
                        alignment = detection.alignment;
                        detection.changed
                    }
                    None => {
                        // Cold cache: everything non-cloudy is "changed"
                        // and this capture defines the canonical
                        // illumination.
                        fresh_canonical = true;
                        change_stage.arg("cold_cache", true);
                        let mut all = TileMask::new(&grid);
                        all.fill();
                        all.subtract(&cloudy_tiles);
                        all
                    }
                }
            };
            change_stage.arg("changed_tiles", changed.count_set());
            change += change_stage.finish();

            // 5. ROI-encode the changed tiles at γ bits/pixel.
            let encode_stage = StageGuard::stopwatch();
            let roi = encode_roi_with_scratch(
                band_raster,
                &grid,
                &changed,
                &self.codec,
                budget,
                &mut self.codec_scratch,
            )
            .expect("image matches grid");
            encode += encode_stage.finish();
            total_bytes += roi.size_bytes() as u64;
            band_bytes.push((band, roi.size_bytes() as u64));
            tile_fraction_sum += changed.count_set() as f64 / grid.tile_count() as f64;

            // 6. Ground: decode, normalize tiles into the belief's
            // canonical illumination, patch, and score the rendered
            // reconstruction on non-cloudy tiles.
            // The decode + patch is ground-side work: move the ambient
            // track to the station for this step so the codec's decode
            // spans land on the ground timeline (the trace id rides along
            // unchanged).
            let ground_scope = self.tracing.scope(trace, TraceTrack::Station(0));
            let mut patch_stage = self.tracing.span("strategy", "ground.patch").timed();
            patch_stage.arg("roi_bytes", roi.size_bytes() as u64);
            let belief = self.belief.belief_mut(ctx.location, band, w, h);
            let gain = if alignment.gain.abs() < 0.25 {
                1.0
            } else {
                alignment.gain
            };
            for (index, tile) in roi
                .decode_tiles_with_scratch(&mut self.decode_scratch)
                .expect("self-produced bitstream")
            {
                let normalized = if fresh_canonical {
                    tile
                } else {
                    tile.map(|v| (v - alignment.offset) / gain)
                };
                grid.insert_tile(belief, index, &normalized)
                    .expect("belief matches grid");
            }
            let mut eval = TileMask::new(&grid);
            eval.fill();
            eval.subtract(&cloudy_tiles);
            // Render the belief under this capture's illumination before
            // comparing with the (raw) capture.
            let rendered = if fresh_canonical {
                belief.clone()
            } else {
                alignment.apply_to(belief)
            };
            if let Some(mse) = masked_tile_mse(&rendered, band_raster, &grid, &eval) {
                mse_sum += mse;
                mse_bands += 1;
            }
            ground_patch += patch_stage.finish();
            drop(ground_scope);
        }

        // One record per capture (all bands), mirroring the StageTimings
        // this report carries.
        self.stage_change_ns.record_duration(change);
        self.stage_encode_ns.record_duration(encode);
        self.stage_ground_patch_ns.record_duration(ground_patch);
        timings.change_s = change.as_secs_f64();
        timings.encode_s = encode.as_secs_f64();
        timings.ground_patch_s = ground_patch.as_secs_f64();

        if guaranteed {
            self.last_full.insert(ctx.location, ctx.day);
        }

        // 7. Ground: accurate cloud re-detection admits cloud-free
        // reconstructions into the constellation-wide pool. The simulator
        // uses the scene's exact coverage as the accurate detector's
        // output; `earthplus-cloud` validates separately that
        // `GroundCloudDetector` matches it closely.
        if capture.cloud_fraction < self.config.reference_cloud_max {
            for (band, _) in capture.image.iter() {
                if let Some(belief) = self.belief.belief(ctx.location, band) {
                    if let Ok(reference) = ReferenceImage::from_capture(
                        ctx.location,
                        band,
                        ctx.day,
                        belief,
                        self.config.reference_downsample,
                    ) {
                        self.service.ingest_downlink(reference);
                    }
                }
            }
        }

        // Storage accounting.
        let pending = self.pending_bytes.entry(ctx.satellite).or_insert(0);
        *pending += total_bytes;
        self.peak_pending = self.peak_pending.max(*pending);

        let bands = capture.image.band_count() as f64;
        capture_span.arg("downloaded_bytes", total_bytes);
        CaptureReport {
            day: ctx.day,
            satellite: ctx.satellite,
            location: ctx.location,
            cloud_fraction: capture.cloud_fraction,
            dropped: false,
            guaranteed,
            downloaded_bytes: total_bytes,
            downloaded_tile_fraction: tile_fraction_sum / bands,
            psnr_db: if mse_bands > 0 {
                Some(psnr_from_mse(mse_sum / mse_bands as f64))
            } else {
                None
            },
            reference_age_days: if ref_age_n > 0 {
                Some(ref_age_sum / ref_age_n as f64)
            } else {
                None
            },
            timings,
            band_bytes,
            trace,
        }
    }

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            // Two-contact retention of queued captures (Appendix A).
            captured_bytes: 2 * self.peak_pending,
            // Worst single-satellite reference cache footprint observed.
            reference_bytes: self.service.peak_cache_bytes(),
        }
    }

    fn telemetry_snapshot(&self) -> Option<Snapshot> {
        // Day-boundary snapshot: drain any pipelined ship queues first,
        // so the queue-depth / in-flight gauges report the quiesced
        // boundary state the ship-queue-backlog health rule asserts on.
        if let Some(stations) = self.service.stations() {
            stations.quiesce();
        }
        self.sink.registry().map(|r| r.snapshot())
    }
}

impl std::fmt::Debug for EarthPlusStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.service.stats();
        f.debug_struct("EarthPlusStrategy")
            .field("config", &self.config)
            .field("pool_entries", &stats.store_entries)
            .field("satellites", &stats.satellites)
            .finish()
    }
}
