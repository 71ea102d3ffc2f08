//! Uplink planning: squeezing reference updates through 250 kbps (§4.3).
//!
//! Three mechanisms keep reference sharing within the existing uplink:
//! the references are heavily downsampled ([`crate::reference`]), only the
//! *changed* low-resolution pixels relative to the satellite's cached copy
//! are uploaded ([`compute_delta`]), and when even that does not fit, some
//! locations are skipped for this contact and served stale from the
//! on-board cache ([`crate::ConstellationScheduler::plan_pass`], §5
//! *Handling bandwidth fluctuation*).

use crate::reference::ReferenceImage;
use earthplus_raster::{Band, LocationId};

/// Bytes per transmitted low-resolution sample (12-bit value padded with
/// position-coding overhead).
const BYTES_PER_DELTA_PIXEL: u64 = 2;
/// Fixed per-message header: location, band, day, and shape metadata.
const MESSAGE_HEADER_BYTES: u64 = 16;

/// One reference update message for a satellite.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceDelta {
    /// Target location.
    pub location: LocationId,
    /// Target band.
    pub band: Band,
    /// Capture day of the new reference.
    pub day: f64,
    /// Changed low-resolution pixels `(flat index, new value)`; empty when
    /// `full` is used instead.
    pub pixels: Vec<(u32, f32)>,
    /// Full reference, sent when the satellite has nothing cached.
    pub full: Option<ReferenceImage>,
    /// Total low-resolution pixels of the reference (for the bitmap cost).
    pub total_pixels: u32,
}

impl ReferenceDelta {
    /// Transmission cost in bytes.
    ///
    /// Full install: every sample at 12 bits. Delta: a presence bitmap over
    /// the low-resolution grid plus the changed samples.
    pub fn size_bytes(&self) -> u64 {
        if let Some(full) = &self.full {
            return MESSAGE_HEADER_BYTES + full.size_bytes();
        }
        let bitmap = (self.total_pixels as u64).div_ceil(8);
        MESSAGE_HEADER_BYTES + bitmap + self.pixels.len() as u64 * BYTES_PER_DELTA_PIXEL
    }

    /// Whether this message changes nothing (fresh cache).
    pub fn is_empty(&self) -> bool {
        self.full.is_none() && self.pixels.is_empty()
    }
}

/// Computes the update message bringing a satellite's cached reference up
/// to the pool's freshest one.
///
/// Returns `None` when the cache is already at least as fresh.
pub fn compute_delta(
    pool_ref: &ReferenceImage,
    cached: Option<&ReferenceImage>,
    theta: f32,
) -> Option<ReferenceDelta> {
    match cached {
        None => Some(ReferenceDelta {
            location: pool_ref.location,
            band: pool_ref.band,
            day: pool_ref.captured_day,
            pixels: Vec::new(),
            full: Some(pool_ref.clone()),
            total_pixels: pool_ref.lowres.len() as u32,
        }),
        Some(cached) if cached.captured_day >= pool_ref.captured_day => None,
        Some(cached) => {
            if cached.lowres.dimensions() != pool_ref.lowres.dimensions() {
                // Resolution changed (reconfiguration): resend in full.
                return Some(ReferenceDelta {
                    location: pool_ref.location,
                    band: pool_ref.band,
                    day: pool_ref.captured_day,
                    pixels: Vec::new(),
                    full: Some(pool_ref.clone()),
                    total_pixels: pool_ref.lowres.len() as u32,
                });
            }
            let pixels: Vec<(u32, f32)> = pool_ref
                .lowres
                .as_slice()
                .iter()
                .zip(cached.lowres.as_slice())
                .enumerate()
                .filter(|(_, (new, old))| (*new - *old).abs() > theta)
                .map(|(i, (new, _))| (i as u32, *new))
                .collect();
            Some(ReferenceDelta {
                location: pool_ref.location,
                band: pool_ref.band,
                day: pool_ref.captured_day,
                pixels,
                full: None,
                total_pixels: pool_ref.lowres.len() as u32,
            })
        }
    }
}

/// Outcome of planning one contact's uplink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UplinkReport {
    /// Bytes actually scheduled on the uplink.
    pub bytes_used: u64,
    /// The contact's byte budget.
    pub bytes_budget: u64,
    /// Update messages sent.
    pub deltas_sent: usize,
    /// Updates that did not fit and were skipped (served stale from the
    /// on-board cache instead).
    pub deltas_skipped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::DEFAULT_REFERENCE_DOWNSAMPLE;
    use earthplus_raster::{PlanetBand, Raster};

    fn band() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    fn make_ref(day: f64, pattern: impl Fn(usize) -> f32) -> ReferenceImage {
        // A 10×10 reference at the shared paper operating point; the
        // uplink-ratio assertions below track the config constant instead
        // of a hard-coded 51.
        let mut lowres = Raster::new(10, 10);
        for i in 0..100 {
            lowres.as_mut_slice()[i] = pattern(i);
        }
        ReferenceImage {
            location: LocationId(0),
            band: band(),
            captured_day: day,
            lowres,
            downsample: DEFAULT_REFERENCE_DOWNSAMPLE,
            full_width: DEFAULT_REFERENCE_DOWNSAMPLE * 10,
            full_height: DEFAULT_REFERENCE_DOWNSAMPLE * 10,
        }
    }

    #[test]
    fn delta_on_cold_cache_is_full_install() {
        let new = make_ref(5.0, |_| 0.5);
        let d = compute_delta(&new, None, 0.01).unwrap();
        assert!(d.full.is_some());
        assert!(d.size_bytes() > new.size_bytes());
    }

    #[test]
    fn delta_contains_only_changed_pixels() {
        let old = make_ref(3.0, |_| 0.5);
        let new = make_ref(7.0, |i| if i < 10 { 0.9 } else { 0.5 });
        let d = compute_delta(&new, Some(&old), 0.01).unwrap();
        assert!(d.full.is_none());
        assert_eq!(d.pixels.len(), 10);
        assert!(d.size_bytes() < old.size_bytes() + MESSAGE_HEADER_BYTES);
    }

    #[test]
    fn fresher_cache_needs_no_delta() {
        let old = make_ref(9.0, |_| 0.5);
        let new = make_ref(7.0, |_| 0.9);
        assert!(compute_delta(&new, Some(&old), 0.01).is_none());
    }

    #[test]
    fn unchanged_content_gives_empty_delta() {
        let old = make_ref(3.0, |_| 0.5);
        let new = make_ref(7.0, |_| 0.5);
        let d = compute_delta(&new, Some(&old), 0.01).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn compression_ratio_ladder_matches_figure_17_shape() {
        // uncompressed -> downsampled (2601x) -> + delta updates (>>2601x).
        let full_side = DEFAULT_REFERENCE_DOWNSAMPLE * 10;
        let full_px = full_side * full_side;
        let uncompressed_bytes = (full_px * 12 / 8) as u64;
        let old = make_ref(3.0, |i| (i % 7) as f32 / 7.0);
        let new = make_ref(8.0, |i| if i < 5 { 0.95 } else { (i % 7) as f32 / 7.0 });
        let downsampled_bytes = new.size_bytes();
        let delta_bytes = compute_delta(&new, Some(&old), 0.01).unwrap().size_bytes();
        let r_downsample = uncompressed_bytes as f64 / downsampled_bytes as f64;
        let r_delta = uncompressed_bytes as f64 / delta_bytes as f64;
        assert!(r_downsample > 2000.0, "downsample ratio {r_downsample}");
        assert!(r_delta > 2.0 * r_downsample, "delta ratio {r_delta}");
    }
}
