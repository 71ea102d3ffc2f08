//! Baseline strategies: Kodan, SatRoI, and Download-Everything (§6.1).

use crate::config::EarthPlusConfig;
use crate::strategy::{
    masked_tile_mse, CaptureContext, CaptureReport, CompressionStrategy, GroundBelief,
    StageTimings, StorageBreakdown,
};
use earthplus_cloud::{GroundCloudDetector, OnboardCloudDetector};
use earthplus_codec::{encode_roi, CodecConfig};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{
    psnr_from_mse, Band, IlluminationAligner, LocationId, Raster, TileGrid, TileMask,
};
use earthplus_telemetry::StageGuard;
use std::collections::HashMap;

/// **Kodan** \[37\]: "drop low-value cloud data and download remaining
/// non-cloudy areas".
///
/// Kodan runs an *accurate* (and expensive) cloud detector on board,
/// discards cloudy tiles, and encodes every non-cloudy tile of every
/// capture — it has no notion of reference and re-downloads unchanged
/// content forever.
pub struct KodanStrategy {
    config: EarthPlusConfig,
    codec: CodecConfig,
    detector: GroundCloudDetector,
    belief: GroundBelief,
    pending_bytes: HashMap<SatelliteId, u64>,
    peak_pending: u64,
}

impl KodanStrategy {
    /// Creates the baseline with the shared tile/γ configuration.
    pub fn new(config: EarthPlusConfig) -> Self {
        KodanStrategy {
            detector: GroundCloudDetector::new(config.tile_size),
            codec: CodecConfig::lossy(),
            config,
            belief: GroundBelief::new(),
            pending_bytes: HashMap::new(),
            peak_pending: 0,
        }
    }
}

impl CompressionStrategy for KodanStrategy {
    fn name(&self) -> &'static str {
        "kodan"
    }

    fn on_capture(&mut self, ctx: &CaptureContext<'_>) -> CaptureReport {
        let capture = ctx.capture;
        let (w, h) = capture.image.dimensions();
        let grid = TileGrid::new(w, h, self.config.tile_size).expect("capture is tileable");
        let mut timings = StageTimings::default();

        // Accurate on-board cloud detection (Kodan's expensive stage).
        let stage = StageGuard::stopwatch();
        let (_, detection) = self
            .detector
            .detect(&capture.image)
            .expect("capture is tileable");
        timings.cloud_s = stage.finish().as_secs_f64();
        let cloudy_tiles = detection.tile_mask;

        let mut non_cloudy = TileMask::new(&grid);
        non_cloudy.fill();
        non_cloudy.subtract(&cloudy_tiles);

        let budget = self.config.tile_budget_bytes();
        let mut total_bytes = 0u64;
        let mut band_bytes: Vec<(Band, u64)> = Vec::new();
        let mut mse_sum = 0.0;
        let mut mse_bands = 0u32;
        for (band, band_raster) in capture.image.iter() {
            let stage = StageGuard::stopwatch();
            let roi = encode_roi(band_raster, &grid, &non_cloudy, &self.codec, budget)
                .expect("image matches grid");
            timings.encode_s += stage.finish().as_secs_f64();
            total_bytes += roi.size_bytes() as u64;
            band_bytes.push((band, roi.size_bytes() as u64));
            let belief = self.belief.belief_mut(ctx.location, band, w, h);
            roi.patch_into(belief).expect("belief matches grid");
            if let Some(mse) = masked_tile_mse(belief, band_raster, &grid, &non_cloudy) {
                mse_sum += mse;
                mse_bands += 1;
            }
        }

        let pending = self.pending_bytes.entry(ctx.satellite).or_insert(0);
        *pending += total_bytes;
        self.peak_pending = self.peak_pending.max(*pending);

        CaptureReport {
            day: ctx.day,
            satellite: ctx.satellite,
            location: ctx.location,
            cloud_fraction: capture.cloud_fraction,
            dropped: false,
            guaranteed: false,
            downloaded_bytes: total_bytes,
            downloaded_tile_fraction: non_cloudy.count_set() as f64 / grid.tile_count() as f64,
            psnr_db: if mse_bands > 0 {
                Some(psnr_from_mse(mse_sum / mse_bands as f64))
            } else {
                None
            },
            reference_age_days: None,
            timings,
            band_bytes,
            trace: earthplus_telemetry::TraceId::NONE,
        }
    }

    fn on_ground_contact(
        &mut self,
        satellite: SatelliteId,
        _day: f64,
        uplink_budget_bytes: u64,
    ) -> earthplus_ground::UplinkReport {
        if let Some(p) = self.pending_bytes.get_mut(&satellite) {
            *p = 0;
        }
        earthplus_ground::UplinkReport {
            bytes_budget: uplink_budget_bytes,
            ..Default::default()
        }
    }

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            captured_bytes: 2 * self.peak_pending,
            reference_bytes: 0,
        }
    }
}

/// **SatRoI** \[61\]: reference-based encoding "using a fixed reference
/// image".
///
/// The first cloud-free capture each satellite takes of a location becomes
/// its permanent full-resolution reference; change detection runs at full
/// resolution; the reference is never refreshed, so it ages for the whole
/// mission.
pub struct SatRoiStrategy {
    config: EarthPlusConfig,
    codec: CodecConfig,
    cloud_detector: OnboardCloudDetector,
    references: HashMap<(SatelliteId, LocationId, Band), (f64, Raster)>,
    belief: GroundBelief,
    pending_bytes: HashMap<SatelliteId, u64>,
    peak_pending: u64,
    peak_reference: u64,
}

impl SatRoiStrategy {
    /// Creates the baseline. It shares Earth+'s cheap on-board cloud
    /// detector (Figure 16 times them identically).
    pub fn new(config: EarthPlusConfig, cloud_detector: OnboardCloudDetector) -> Self {
        SatRoiStrategy {
            codec: CodecConfig::lossy(),
            config,
            cloud_detector,
            references: HashMap::new(),
            belief: GroundBelief::new(),
            pending_bytes: HashMap::new(),
            peak_pending: 0,
            peak_reference: 0,
        }
    }
}

impl CompressionStrategy for SatRoiStrategy {
    fn name(&self) -> &'static str {
        "satroi"
    }

    fn on_capture(&mut self, ctx: &CaptureContext<'_>) -> CaptureReport {
        let capture = ctx.capture;
        let (w, h) = capture.image.dimensions();
        let grid = TileGrid::new(w, h, self.config.tile_size).expect("capture is tileable");
        let mut timings = StageTimings::default();

        let stage = StageGuard::stopwatch();
        let detection = self
            .cloud_detector
            .detect(&capture.image)
            .expect("capture is tileable");
        timings.cloud_s = stage.finish().as_secs_f64();
        let cloudy_tiles = detection.tile_mask;

        if detection.coverage > self.config.cloud_drop_threshold {
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
                trace: earthplus_telemetry::TraceId::NONE,
            };
        }

        let budget = self.config.tile_budget_bytes();
        let aligner = IlluminationAligner::new();
        let mut total_bytes = 0u64;
        let mut band_bytes: Vec<(Band, u64)> = Vec::new();
        let mut tile_fraction_sum = 0.0;
        let mut mse_sum = 0.0;
        let mut mse_bands = 0u32;
        let mut ref_age_sum = 0.0;
        let mut ref_age_n = 0u32;

        let may_become_reference = detection.coverage < self.config.reference_cloud_max;

        for (band, band_raster) in capture.image.iter() {
            let key = (ctx.satellite, ctx.location, band);
            // Full-resolution change detection against the fixed reference.
            let stage = StageGuard::stopwatch();
            let mut fresh_canonical = false;
            let mut alignment = earthplus_raster::AlignmentModel::identity();
            let changed = match self.references.get(&key) {
                Some((ref_day, reference)) => {
                    ref_age_sum += ctx.day - ref_day;
                    ref_age_n += 1;
                    alignment = aligner
                        .fit_robust(reference, band_raster, None, 2.0 * self.config.theta)
                        .expect("shapes match");
                    let aligned = alignment.apply_to(reference);
                    let scores = grid
                        .tile_mean_abs_diff(&aligned, band_raster)
                        .expect("shapes match");
                    let mut mask = TileMask::from_scores(&grid, &scores, self.config.theta);
                    mask.subtract(&cloudy_tiles);
                    mask
                }
                None => {
                    fresh_canonical = true;
                    let mut all = TileMask::new(&grid);
                    all.fill();
                    all.subtract(&cloudy_tiles);
                    all
                }
            };
            timings.change_s += stage.finish().as_secs_f64();

            let stage = StageGuard::stopwatch();
            let roi = encode_roi(band_raster, &grid, &changed, &self.codec, budget)
                .expect("image matches grid");
            timings.encode_s += stage.finish().as_secs_f64();
            total_bytes += roi.size_bytes() as u64;
            band_bytes.push((band, roi.size_bytes() as u64));
            tile_fraction_sum += changed.count_set() as f64 / grid.tile_count() as f64;

            // Ground: normalize downloaded tiles into the reference's
            // illumination before patching (as for Earth+, [72]).
            let belief = self.belief.belief_mut(ctx.location, band, w, h);
            let gain = if alignment.gain.abs() < 0.25 {
                1.0
            } else {
                alignment.gain
            };
            for (index, tile) in roi.decode_tiles().expect("self-produced bitstream") {
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
            let rendered = if fresh_canonical {
                belief.clone()
            } else {
                alignment.apply_to(belief)
            };
            if let Some(mse) = masked_tile_mse(&rendered, band_raster, &grid, &eval) {
                mse_sum += mse;
                mse_bands += 1;
            }

            // Fix the reference on the first cloud-free capture.
            if may_become_reference && !self.references.contains_key(&key) {
                self.references.insert(key, (ctx.day, band_raster.clone()));
            }
        }

        let reference_bytes: u64 = self
            .references
            .values()
            .map(|(_, r)| (r.len() as u64 * 12).div_ceil(8))
            .sum();
        self.peak_reference = self.peak_reference.max(reference_bytes);
        let pending = self.pending_bytes.entry(ctx.satellite).or_insert(0);
        *pending += total_bytes;
        self.peak_pending = self.peak_pending.max(*pending);

        let bands = capture.image.band_count() as f64;
        CaptureReport {
            day: ctx.day,
            satellite: ctx.satellite,
            location: ctx.location,
            cloud_fraction: capture.cloud_fraction,
            dropped: false,
            guaranteed: false,
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
            trace: earthplus_telemetry::TraceId::NONE,
        }
    }

    fn on_ground_contact(
        &mut self,
        satellite: SatelliteId,
        _day: f64,
        uplink_budget_bytes: u64,
    ) -> earthplus_ground::UplinkReport {
        if let Some(p) = self.pending_bytes.get_mut(&satellite) {
            *p = 0;
        }
        earthplus_ground::UplinkReport {
            bytes_budget: uplink_budget_bytes,
            ..Default::default()
        }
    }

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            captured_bytes: 2 * self.peak_pending,
            reference_bytes: self.peak_reference,
        }
    }
}

/// Download-everything: encode every tile of every capture at γ (the
/// "Download everything" bar of Figure 19; compression ratio 1 by
/// definition of the changed-area metric).
pub struct DownloadEverythingStrategy {
    config: EarthPlusConfig,
    codec: CodecConfig,
    belief: GroundBelief,
    pending_bytes: HashMap<SatelliteId, u64>,
    peak_pending: u64,
}

impl DownloadEverythingStrategy {
    /// Creates the baseline.
    pub fn new(config: EarthPlusConfig) -> Self {
        DownloadEverythingStrategy {
            codec: CodecConfig::lossy(),
            config,
            belief: GroundBelief::new(),
            pending_bytes: HashMap::new(),
            peak_pending: 0,
        }
    }
}

impl CompressionStrategy for DownloadEverythingStrategy {
    fn name(&self) -> &'static str {
        "download-everything"
    }

    fn on_capture(&mut self, ctx: &CaptureContext<'_>) -> CaptureReport {
        let capture = ctx.capture;
        let (w, h) = capture.image.dimensions();
        let grid = TileGrid::new(w, h, self.config.tile_size).expect("capture is tileable");
        let mut all = TileMask::new(&grid);
        all.fill();
        let budget = self.config.tile_budget_bytes();
        let mut timings = StageTimings::default();
        let mut total_bytes = 0u64;
        let mut band_bytes: Vec<(Band, u64)> = Vec::new();
        let mut mse_sum = 0.0;
        let mut mse_bands = 0u32;
        for (band, band_raster) in capture.image.iter() {
            let stage = StageGuard::stopwatch();
            let roi = encode_roi(band_raster, &grid, &all, &self.codec, budget)
                .expect("image matches grid");
            timings.encode_s += stage.finish().as_secs_f64();
            total_bytes += roi.size_bytes() as u64;
            band_bytes.push((band, roi.size_bytes() as u64));
            let belief = self.belief.belief_mut(ctx.location, band, w, h);
            roi.patch_into(belief).expect("belief matches grid");
            if let Some(mse) = masked_tile_mse(belief, band_raster, &grid, &all) {
                mse_sum += mse;
                mse_bands += 1;
            }
        }
        let pending = self.pending_bytes.entry(ctx.satellite).or_insert(0);
        *pending += total_bytes;
        self.peak_pending = self.peak_pending.max(*pending);
        CaptureReport {
            day: ctx.day,
            satellite: ctx.satellite,
            location: ctx.location,
            cloud_fraction: capture.cloud_fraction,
            dropped: false,
            guaranteed: false,
            downloaded_bytes: total_bytes,
            downloaded_tile_fraction: 1.0,
            psnr_db: if mse_bands > 0 {
                Some(psnr_from_mse(mse_sum / mse_bands as f64))
            } else {
                None
            },
            reference_age_days: None,
            timings,
            band_bytes,
            trace: earthplus_telemetry::TraceId::NONE,
        }
    }

    fn on_ground_contact(
        &mut self,
        satellite: SatelliteId,
        _day: f64,
        uplink_budget_bytes: u64,
    ) -> earthplus_ground::UplinkReport {
        if let Some(p) = self.pending_bytes.get_mut(&satellite) {
            *p = 0;
        }
        earthplus_ground::UplinkReport {
            bytes_budget: uplink_budget_bytes,
            ..Default::default()
        }
    }

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            captured_bytes: 2 * self.peak_pending,
            reference_bytes: 0,
        }
    }
}

impl std::fmt::Debug for KodanStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KodanStrategy").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for SatRoiStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SatRoiStrategy")
            .field("references", &self.references.len())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for DownloadEverythingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DownloadEverythingStrategy")
            .finish_non_exhaustive()
    }
}
