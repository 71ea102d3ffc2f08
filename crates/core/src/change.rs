//! Downsampled-reference change detection (§4.3).
//!
//! Earth+ detects changed tiles by comparing the freshly captured image —
//! downsampled to the reference's resolution — against the (cloud-free,
//! illumination-aligned) reference. "Low-resolution images are sufficient
//! to decide *which* tiles have changed, which is easier than quantifying
//! how much each pixel in the tile has changed" (§4.3). A deliberately low
//! threshold θ compensates for the false negatives downsampling can cause.

use earthplus_ground::ReferenceImage;
use earthplus_raster::{
    downsample_box, AlignmentModel, IlluminationAligner, Raster, RasterError, TileGrid, TileMask,
};

/// The change detector.
#[derive(Debug, Clone, Copy)]
pub struct ChangeDetector {
    /// Mean-absolute-difference threshold θ.
    pub theta: f32,
    /// Tile side length at full resolution.
    pub tile_size: usize,
}

/// Outcome of change detection for one band of one capture.
#[derive(Debug, Clone)]
pub struct ChangeDetection {
    /// Tiles detected as changed (cloudy tiles excluded).
    pub changed: TileMask,
    /// Raw per-tile difference scores (flat tile order), useful for
    /// threshold sweeps.
    pub scores: Vec<f32>,
    /// The fitted illumination model mapping the reference's radiometry to
    /// this capture's. The ground uses its inverse to normalize downloaded
    /// tiles into the reference's canonical illumination before patching
    /// its reconstruction (relative radiometric normalization, \[72\]).
    pub alignment: AlignmentModel,
}

impl ChangeDetector {
    /// Creates a detector.
    pub fn new(theta: f32, tile_size: usize) -> Self {
        ChangeDetector { theta, tile_size }
    }

    /// Detects changed tiles in `capture` (one full-resolution band)
    /// against a downsampled reference.
    ///
    /// `cloud_tiles`, when given, masks tiles that are cloudy in the new
    /// capture: they are neither compared nor reported as changed (cloud
    /// removal zero-fills them upstream; they are dropped, not downloaded).
    ///
    /// # Errors
    ///
    /// Returns a [`RasterError`] when shapes are inconsistent.
    pub fn detect(
        &self,
        capture: &Raster,
        reference: &ReferenceImage,
        cloud_tiles: Option<&TileMask>,
    ) -> Result<ChangeDetection, RasterError> {
        if capture.dimensions() != (reference.full_width, reference.full_height) {
            return Err(RasterError::DimensionMismatch {
                left: capture.dimensions(),
                right: (reference.full_width, reference.full_height),
            });
        }
        let grid = TileGrid::new(capture.width(), capture.height(), self.tile_size)?;
        // Bring the capture down to the reference resolution using the
        // reference's own box-downsampling factor, so both sides average
        // over identical pixel blocks.
        let capture_low = downsample_box(capture, reference.downsample)?;
        let low_w = reference.lowres.width();
        let low_h = reference.lowres.height();
        if capture_low.dimensions() != (low_w, low_h) {
            return Err(RasterError::DimensionMismatch {
                left: capture_low.dimensions(),
                right: (low_w, low_h),
            });
        }

        // Robust illumination alignment on (low-resolution) non-cloudy
        // pixels: truly-changed pixels would otherwise bias the global fit
        // and smear phantom change across every tile.
        let low_mask = cloud_tiles.map(|tiles| lowres_clear_mask(&grid, tiles, low_w, low_h));
        let aligner = IlluminationAligner::new();
        let alignment = aligner.fit_robust(
            &reference.lowres,
            &capture_low,
            low_mask.as_deref(),
            2.0 * self.theta,
        )?;

        // Per-tile mean absolute difference, measured on the low-res grid:
        // each full-res tile maps to a (possibly fractional) low-res block.
        // The illumination model is applied to the reference on the fly,
        // fusing what used to be two whole-image traversals (materialize
        // the aligned reference, then diff it) into one pass per tile.
        let scores = tile_scores(&grid, &capture_low, &reference.lowres, alignment);

        let mut changed = TileMask::from_scores(&grid, &scores, self.theta);
        if let Some(cloudy) = cloud_tiles {
            changed.subtract(cloudy);
        }
        Ok(ChangeDetection {
            changed,
            scores,
            alignment,
        })
    }

    /// Ground-truth change mask between two full-resolution rasters (used
    /// by experiments to measure detector false negatives — Figure 8).
    ///
    /// # Errors
    ///
    /// Returns a [`RasterError`] when shapes differ.
    pub fn true_changes(&self, before: &Raster, after: &Raster) -> Result<TileMask, RasterError> {
        let grid = TileGrid::new(after.width(), after.height(), self.tile_size)?;
        let scores = grid.tile_mean_abs_diff(before, after)?;
        Ok(TileMask::from_scores(&grid, &scores, self.theta))
    }
}

/// Per-tile difference scores evaluated on the low-resolution pair, with
/// `alignment` applied to the reference sample-by-sample (bit-identical to
/// materializing `alignment.apply_to(reference_low)` first, without the
/// intermediate raster or its traversal). Each tile's block is walked via
/// zero-copy row views rather than per-pixel bounds-checked lookups.
fn tile_scores(
    grid: &TileGrid,
    capture_low: &Raster,
    reference_low: &Raster,
    alignment: AlignmentModel,
) -> Vec<f32> {
    let low_w = capture_low.width();
    let low_h = capture_low.height();
    let sx = low_w as f64 / grid.width() as f64;
    let sy = low_h as f64 / grid.height() as f64;
    let mut scores = Vec::with_capacity(grid.tile_count());
    for t in grid.iter() {
        let (x0, y0, w, h) = grid.tile_rect(t);
        // The tile's footprint in low-res pixel coordinates.
        let lx0 = (x0 as f64 * sx).floor() as usize;
        let ly0 = (y0 as f64 * sy).floor() as usize;
        let lx1 = (((x0 + w) as f64 * sx).ceil() as usize).clamp(lx0 + 1, low_w);
        let ly1 = (((y0 + h) as f64 * sy).ceil() as usize).clamp(ly0 + 1, low_h);
        let cap = capture_low.view(lx0, ly0, lx1 - lx0, ly1 - ly0);
        let refr = reference_low.view(lx0, ly0, lx1 - lx0, ly1 - ly0);
        let mut sum = 0.0f64;
        let mut n = 0u32;
        for (crow, rrow) in cap.rows().zip(refr.rows()) {
            for (&c, &r) in crow.iter().zip(rrow) {
                sum += (c - alignment.apply(r)).abs() as f64;
                n += 1;
            }
        }
        scores.push(if n == 0 { 0.0 } else { (sum / n as f64) as f32 });
    }
    scores
}

/// Expands a tile-level cloud mask to a low-resolution pixel mask of clear
/// (non-cloudy) pixels.
fn lowres_clear_mask(
    grid: &TileGrid,
    cloud_tiles: &TileMask,
    low_w: usize,
    low_h: usize,
) -> Vec<bool> {
    let mut mask = vec![true; low_w * low_h];
    let sx = grid.width() as f64 / low_w as f64;
    let sy = grid.height() as f64 / low_h as f64;
    for y in 0..low_h {
        for x in 0..low_w {
            let fx = ((x as f64 + 0.5) * sx) as usize;
            let fy = ((y as f64 + 0.5) * sy) as usize;
            if let Some(t) = grid.tile_of_pixel(fx.min(grid.width() - 1), fy.min(grid.height() - 1))
            {
                if cloud_tiles.get(t) {
                    mask[y * low_w + x] = false;
                }
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{Band, LocationId, PlanetBand};

    fn band() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    fn textured(w: usize, h: usize) -> Raster {
        Raster::from_fn(w, h, |x, y| {
            0.3 + 0.2 * (((x * 7 + y * 13) % 53) as f32 / 53.0)
        })
    }

    fn make_reference(full: &Raster, downsample: usize) -> ReferenceImage {
        ReferenceImage::from_capture(LocationId(0), band(), 0.0, full, downsample).unwrap()
    }

    #[test]
    fn unchanged_image_reports_no_changes() {
        let base = textured(256, 256);
        let reference = make_reference(&base, 8);
        let det = ChangeDetector::new(0.01, 64);
        let result = det.detect(&base, &reference, None).unwrap();
        assert_eq!(result.changed.count_set(), 0);
    }

    #[test]
    fn illumination_shift_alone_reports_no_changes() {
        // A global linear illumination change must be absorbed by the
        // aligner, not reported as change (Figure 9's confounder).
        let base = textured(256, 256);
        let capture = base.map(|v| 1.15 * v - 0.02);
        let reference = make_reference(&base, 8);
        let det = ChangeDetector::new(0.01, 64);
        let result = det.detect(&capture, &reference, None).unwrap();
        assert_eq!(result.changed.count_set(), 0);
    }

    #[test]
    fn localized_change_detected_in_right_tile() {
        let base = textured(256, 256);
        let mut capture = base.clone();
        for y in 64..128 {
            for x in 128..192 {
                capture.set(x, y, (capture.get(x, y) + 0.2).min(1.0));
            }
        }
        let reference = make_reference(&base, 8);
        let det = ChangeDetector::new(0.01, 64);
        let result = det.detect(&capture, &reference, None).unwrap();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let expected = grid.flat_index(earthplus_raster::TileIndex::new(2, 1));
        assert!(result.changed.get_flat(expected), "changed tile missed");
        // The change is localized: at most the tile and close neighbours.
        assert!(result.changed.count_set() <= 3, "{:?}", result.changed);
    }

    #[test]
    fn cloudy_tiles_are_excluded() {
        let base = textured(256, 256);
        let mut capture = base.clone();
        // Change everywhere.
        capture.map_in_place(|v| (v + 0.3).min(1.0));
        // ...but the aligner will absorb a global additive shift, so also
        // decorrelate one region heavily.
        for y in 0..64 {
            for x in 0..64 {
                capture.set(x, y, 1.0 - capture.get(x, y));
            }
        }
        let reference = make_reference(&base, 8);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mut clouds = TileMask::new(&grid);
        clouds.set(earthplus_raster::TileIndex::new(0, 0), true);
        let det = ChangeDetector::new(0.01, 64);
        let result = det.detect(&capture, &reference, Some(&clouds)).unwrap();
        assert!(!result.changed.get(earthplus_raster::TileIndex::new(0, 0)));
    }

    #[test]
    fn heavier_downsampling_misses_small_changes() {
        // The Figure 8 phenomenon: a small change averaged out by extreme
        // downsampling goes undetected, while mild downsampling catches it.
        let base = textured(512, 512);
        let mut capture = base.clone();
        // A small 16x16 change inside one tile.
        for y in 100..116 {
            for x in 100..116 {
                capture.set(x, y, (capture.get(x, y) + 0.25).min(1.0));
            }
        }
        let det = ChangeDetector::new(0.01, 64);
        let mild = det
            .detect(&capture, &make_reference(&base, 4), None)
            .unwrap();
        let extreme = det
            .detect(&capture, &make_reference(&base, 128), None)
            .unwrap();
        assert!(mild.changed.count_set() >= 1, "mild downsampling missed it");
        assert!(
            extreme.changed.count_set() <= mild.changed.count_set(),
            "extreme downsampling should not find more"
        );
    }

    #[test]
    fn scores_have_one_entry_per_tile() {
        let base = textured(256, 256);
        let reference = make_reference(&base, 8);
        let det = ChangeDetector::new(0.01, 64);
        let result = det.detect(&base, &reference, None).unwrap();
        assert_eq!(result.scores.len(), 16);
    }

    #[test]
    fn true_changes_ground_truth() {
        let a = textured(128, 128);
        let mut b = a.clone();
        for y in 0..64 {
            for x in 64..128 {
                b.set(x, y, 0.99);
            }
        }
        let det = ChangeDetector::new(0.01, 64);
        let truth = det.true_changes(&a, &b).unwrap();
        assert_eq!(truth.count_set(), 1);
        assert!(truth.get(earthplus_raster::TileIndex::new(1, 0)));
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let base = textured(256, 256);
        let reference = make_reference(&base, 8);
        let det = ChangeDetector::new(0.01, 64);
        let wrong = textured(128, 128);
        assert!(det.detect(&wrong, &reference, None).is_err());
    }
}
