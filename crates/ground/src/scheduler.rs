//! The constellation-wide uplink scheduler.
//!
//! Planning one satellite's contact greedily and in isolation cannot see
//! that the same reference is about to be uploaded to three satellites,
//! or that another satellite's contact two hours later has slack.
//! [`ConstellationScheduler`] plans a whole *pass* — every satellite's
//! contact windows since the last planning round — as one
//! staleness-weighted queue: the update worth the most freshness wins the
//! next bytes, wherever in the constellation they are. A single contact
//! is simply a pass of one window. Per-contact
//! byte budgets are supplied by the caller from the link model, so
//! bandwidth fluctuation and outages (§5, *Handling bandwidth
//! fluctuation*) are handled exactly as before: a degraded contact simply
//! offers fewer bytes, and whatever does not fit is served stale from the
//! on-board cache.

use crate::backend::ReferenceBackend;
use crate::cache::EvictingReferenceCache;
use crate::reference::ReferenceImage;
use crate::uplink::{compute_delta, ReferenceDelta, UplinkReport};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId};
use std::collections::HashMap;

/// One satellite ground-contact window offered to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactWindow {
    /// The satellite in contact.
    pub satellite: SatelliteId,
    /// Mission day of the contact.
    pub day: f64,
    /// Bytes the uplink can carry during this contact (already reflects
    /// any bandwidth fluctuation or outage).
    pub budget_bytes: u64,
}

struct Candidate {
    satellite: SatelliteId,
    /// Index into the pass's `targets`, and so into its memoized reads.
    target: usize,
    delta: ReferenceDelta,
    /// Freshness gain in days; infinite for a cold cache (a full install
    /// outranks any delta).
    staleness: f64,
    cost: u64,
}

/// Staleness-weighted scheduler batching reference updates across all
/// satellites' contact windows in a pass.
#[derive(Debug, Clone, Copy)]
pub struct ConstellationScheduler {
    /// Pixel-difference threshold for delta inclusion.
    pub theta: f32,
}

impl ConstellationScheduler {
    /// Creates a scheduler.
    pub fn new(theta: f32) -> Self {
        ConstellationScheduler { theta }
    }

    /// Plans one pass over `contacts` (any mix of satellites, each with
    /// its own budget) and applies the scheduled updates to the
    /// satellites' caches. A satellite seen for the first time gets a
    /// cache from `new_cache`, so capacity bounds and eviction policy are
    /// the caller's decision, not the scheduler's. The scheduler is
    /// backend-agnostic: `store` may be the in-memory sharded store or
    /// the durable log-structured one, and the plan is identical for
    /// identical store contents (candidates are totally ordered by
    /// staleness, cost, location, band, and satellite).
    ///
    /// The store is touched at most once per target and pass for each of
    /// `fresh_day` and `get`: every target's freshness is probed once, and
    /// a stale target's reference is read once, on the first satellite
    /// that needs it, then shared by every other satellite's delta and by
    /// any full re-send after a mid-pass eviction.
    ///
    /// Returns one [`UplinkReport`] per contact window, in input order.
    /// An update that fits in none of its satellite's windows is counted
    /// as skipped on that satellite's last window — it stays pending, and
    /// the satellite serves the stale cached reference meanwhile.
    pub fn plan_pass(
        &self,
        store: &dyn ReferenceBackend,
        caches: &mut HashMap<SatelliteId, EvictingReferenceCache>,
        targets: &[(LocationId, Band)],
        contacts: &[ContactWindow],
        new_cache: impl Fn() -> EvictingReferenceCache,
    ) -> Vec<UplinkReport> {
        let mut reports: Vec<UplinkReport> = contacts
            .iter()
            .map(|c| UplinkReport {
                bytes_budget: c.budget_bytes,
                ..UplinkReport::default()
            })
            .collect();

        // Each satellite's windows in day order (indices into `contacts`).
        let mut windows_of: HashMap<SatelliteId, Vec<usize>> = HashMap::new();
        for (i, contact) in contacts.iter().enumerate() {
            windows_of.entry(contact.satellite).or_default().push(i);
        }
        for windows in windows_of.values_mut() {
            windows.sort_by(|&a, &b| {
                contacts[a]
                    .day
                    .partial_cmp(&contacts[b].day)
                    .expect("contact days are finite")
            });
        }

        // Build the constellation-wide candidate queue.
        let fresh: Vec<Option<f64>> = targets
            .iter()
            .map(|&(location, band)| store.fresh_day(location, band))
            .collect();
        let mut reads: Vec<Option<ReferenceImage>> = vec![None; targets.len()];
        let mut candidates: Vec<Candidate> = Vec::new();
        for &satellite in windows_of.keys() {
            let cache = caches.entry(satellite).or_insert_with(&new_cache);
            for (target, (&(location, band), &pool_day)) in targets.iter().zip(&fresh).enumerate() {
                let Some(pool_day) = pool_day else {
                    continue;
                };
                let cached = cache.peek(location, band);
                let cached_day = cached.map(|c| c.captured_day);
                if cached_day.is_some_and(|d| d >= pool_day) {
                    continue;
                }
                let pool_ref = reads[target].get_or_insert_with(|| {
                    store
                        .get(location, band)
                        .expect("probed reference still present")
                });
                let Some(delta) = compute_delta(pool_ref, cached, self.theta) else {
                    continue;
                };
                if delta.is_empty() {
                    // Content identical (nothing changed on the ground):
                    // advance the cache timestamp for free.
                    cache.apply_delta(location, band, delta.day, &[], None);
                    continue;
                }
                let staleness = cached_day.map_or(f64::INFINITY, |d| delta.day - d);
                let cost = delta.size_bytes();
                candidates.push(Candidate {
                    satellite,
                    target,
                    delta,
                    staleness,
                    cost,
                });
            }
        }

        // Largest freshness gain first; cheaper first among equals so a
        // constricted pass freshens as many locations as possible.
        candidates.sort_by(|a, b| {
            b.staleness
                .partial_cmp(&a.staleness)
                .expect("staleness is finite or +inf")
                .then(a.cost.cmp(&b.cost))
                .then(a.delta.location.cmp(&b.delta.location))
                .then(a.delta.band.cmp(&b.delta.band))
                .then(a.satellite.cmp(&b.satellite))
        });

        let mut remaining: Vec<u64> = contacts.iter().map(|c| c.budget_bytes).collect();
        for candidate in candidates {
            let cache = caches
                .get_mut(&candidate.satellite)
                .expect("cache created above");
            // Re-validate against the cache *now*: a capacity-bounded
            // cache may have evicted this entry while an earlier update in
            // the same pass was installed, in which case the pixel delta
            // would patch nothing — re-send in full at its real cost.
            let (location, band) = (candidate.delta.location, candidate.delta.band);
            let delta = if candidate.delta.full.is_none() && cache.peek(location, band).is_none() {
                let pool_ref = reads[candidate.target]
                    .as_ref()
                    .expect("queued candidate's reference was read");
                match compute_delta(pool_ref, None, self.theta) {
                    Some(delta) => delta,
                    None => continue,
                }
            } else {
                candidate.delta
            };
            let cost = delta.size_bytes();
            let windows = &windows_of[&candidate.satellite];
            let slot = windows.iter().copied().find(|&i| remaining[i] >= cost);
            match slot {
                Some(i) => {
                    remaining[i] -= cost;
                    reports[i].bytes_used += cost;
                    reports[i].deltas_sent += 1;
                    cache.apply_delta(
                        delta.location,
                        delta.band,
                        delta.day,
                        &delta.pixels,
                        delta.full.as_ref(),
                    );
                }
                None => {
                    let last = *windows.last().expect("satellite has a window");
                    reports[last].deltas_skipped += 1;
                }
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ReferenceImage, DEFAULT_REFERENCE_DOWNSAMPLE};
    use crate::store::ShardedReferenceStore;
    use earthplus_raster::{PlanetBand, Raster};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The in-memory store, counting the reads the scheduler makes.
    #[derive(Debug, Default)]
    struct CountingStore {
        inner: ShardedReferenceStore,
        gets: AtomicU64,
        probes: AtomicU64,
    }

    impl CountingStore {
        /// `(get, fresh_day)` calls so far.
        fn reads(&self) -> (u64, u64) {
            (
                self.gets.load(Ordering::Relaxed),
                self.probes.load(Ordering::Relaxed),
            )
        }
    }

    impl ReferenceBackend for CountingStore {
        fn offer(&self, reference: ReferenceImage) -> bool {
            self.inner.offer(reference)
        }

        fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
            self.gets.fetch_add(1, Ordering::Relaxed);
            self.inner.get(location, band)
        }

        fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64> {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.inner.fresh_day(location, band)
        }

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn size_bytes(&self) -> u64 {
            self.inner.size_bytes()
        }

        fn keys(&self) -> Vec<(LocationId, Band)> {
            self.inner.keys()
        }
    }

    fn red() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    fn make_ref(location: u32, day: f64, pattern: impl Fn(usize) -> f32) -> ReferenceImage {
        let mut lowres = Raster::new(10, 10);
        for i in 0..100 {
            lowres.as_mut_slice()[i] = pattern(i);
        }
        ReferenceImage {
            location: LocationId(location),
            band: red(),
            captured_day: day,
            lowres,
            downsample: DEFAULT_REFERENCE_DOWNSAMPLE,
            full_width: DEFAULT_REFERENCE_DOWNSAMPLE * 10,
            full_height: DEFAULT_REFERENCE_DOWNSAMPLE * 10,
        }
    }

    fn window(satellite: u32, day: f64, budget: u64) -> ContactWindow {
        ContactWindow {
            satellite: SatelliteId(satellite),
            day,
            budget_bytes: budget,
        }
    }

    #[test]
    fn pass_spreads_updates_across_satellites() {
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 5.0, |_| 0.4));
        let targets = vec![(LocationId(0), red())];
        let mut caches = HashMap::new();
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, 1 << 20), window(1, 1.1, 1 << 20)],
            EvictingReferenceCache::default,
        );
        // Both satellites get the full install in their own window.
        assert_eq!(reports[0].deltas_sent, 1);
        assert_eq!(reports[1].deltas_sent, 1);
        assert_eq!(caches.len(), 2);
    }

    #[test]
    fn stalest_location_wins_constricted_budget_per_satellite() {
        // Two locations cached at very different ages on satellite 0,
        // whose contact fits exactly one update; satellite 1 has slack for
        // both. The shared queue must spend satellite 0's scarce bytes on
        // the stalest location and still fill satellite 1 completely.
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 20.0, |_| 0.9));
        store.offer(make_ref(1, 20.0, |_| 0.9));
        let targets = vec![(LocationId(0), red()), (LocationId(1), red())];
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        for satellite in [SatelliteId(0), SatelliteId(1)] {
            let cache = caches.entry(satellite).or_default();
            cache.install(make_ref(0, 2.0, |_| 0.4)); // very stale
            cache.install(make_ref(1, 18.0, |_| 0.4)); // nearly fresh
        }
        let one = compute_delta(
            &store.get(LocationId(0), red()).unwrap(),
            caches[&SatelliteId(0)].peek(LocationId(0), red()),
            0.01,
        )
        .unwrap()
        .size_bytes();
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, one), window(1, 1.5, 10 * one)],
            EvictingReferenceCache::default,
        );
        // Satellite 0: only the stalest location fit; the other is
        // skipped and served stale from the on-board cache.
        assert_eq!(reports[0].deltas_sent, 1);
        assert_eq!(reports[0].deltas_skipped, 1);
        assert!(reports[0].bytes_used <= reports[0].bytes_budget);
        let cache0 = &caches[&SatelliteId(0)];
        assert_eq!(
            cache0.peek(LocationId(0), red()).unwrap().captured_day,
            20.0
        );
        assert_eq!(
            cache0.peek(LocationId(1), red()).unwrap().captured_day,
            18.0
        );
        // Satellite 1 had slack for both updates in the same pass.
        assert_eq!(reports[1].deltas_sent, 2);
        assert_eq!(reports[1].deltas_skipped, 0);
    }

    #[test]
    fn multi_window_satellite_overflows_into_later_contact() {
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 5.0, |_| 0.4));
        store.offer(make_ref(1, 5.0, |_| 0.4));
        let targets = vec![(LocationId(0), red()), (LocationId(1), red())];
        let mut caches = HashMap::new();
        let scheduler = ConstellationScheduler::new(0.01);
        let one = compute_delta(&store.get(LocationId(0), red()).unwrap(), None, 0.01)
            .unwrap()
            .size_bytes();
        // Two windows for the same satellite, each fitting one install.
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, one), window(0, 1.2, one)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 1);
        assert_eq!(reports[1].deltas_sent, 1);
        assert_eq!(caches[&SatelliteId(0)].len(), 2);
    }

    #[test]
    fn zero_budget_outage_skips_everything() {
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 5.0, |_| 0.4));
        let targets = vec![(LocationId(0), red())];
        let mut caches = HashMap::new();
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, 0)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 0);
        assert_eq!(reports[0].deltas_skipped, 1);
        assert!(caches[&SatelliteId(0)].is_empty());
    }

    #[test]
    fn reconfigured_resolution_is_resent_in_full_and_replaces_cache() {
        // The cached reference has 10x10 geometry; the pool's fresher one
        // is 5x5 (downsample reconfiguration). The scheduler must charge a
        // full install and the cache must adopt the new geometry.
        let store = ShardedReferenceStore::default();
        let full = Raster::filled(100, 100, 0.8);
        let reconfigured =
            ReferenceImage::from_capture(LocationId(0), red(), 9.0, &full, 20).unwrap();
        assert_eq!(reconfigured.lowres.dimensions(), (5, 5));
        store.offer(reconfigured);
        let targets = vec![(LocationId(0), red())];
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        caches
            .entry(SatelliteId(0))
            .or_default()
            .install(make_ref(0, 3.0, |_| 0.4));
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 9.5, 1 << 20)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 1);
        let cached = caches[&SatelliteId(0)].peek(LocationId(0), red()).unwrap();
        assert_eq!(cached.lowres.dimensions(), (5, 5));
        assert_eq!(cached.captured_day, 9.0);
    }

    #[test]
    fn mid_pass_eviction_triggers_full_resend_at_real_cost() {
        // Capacity-bounded cache holding one reference: the pass first
        // installs new location 1 (cold, infinite staleness), which
        // evicts the stale location-0 entry; location 0's planned pixel
        // delta would then patch nothing, so the scheduler must re-send
        // it in full and charge the full-install cost.
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 20.0, |_| 0.9));
        store.offer(make_ref(1, 20.0, |_| 0.9));
        let targets = vec![(LocationId(0), red()), (LocationId(1), red())];
        let one = make_ref(0, 20.0, |_| 0.9).size_bytes();
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        let mut cache = EvictingReferenceCache::new(Some(one));
        cache.install(make_ref(0, 2.0, |_| 0.4));
        caches.insert(SatelliteId(0), cache);
        let full_cost = compute_delta(&store.get(LocationId(1), red()).unwrap(), None, 0.01)
            .unwrap()
            .size_bytes();
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 20.5, 1 << 20)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 2);
        assert_eq!(
            reports[0].bytes_used,
            2 * full_cost,
            "evicted entry must be re-sent in full, not charged as a no-op delta"
        );
        // Capacity still holds: exactly one entry survives, fresh.
        let cache = &caches[&SatelliteId(0)];
        assert_eq!(cache.len(), 1);
        let survivor_day = cache
            .peek(LocationId(0), red())
            .or_else(|| cache.peek(LocationId(1), red()))
            .unwrap()
            .captured_day;
        assert_eq!(survivor_day, 20.0);
    }

    #[test]
    fn identical_content_advances_timestamp_for_free() {
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 9.0, |_| 0.5));
        let targets = vec![(LocationId(0), red())];
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        caches
            .entry(SatelliteId(0))
            .or_default()
            .install(make_ref(0, 3.0, |_| 0.5));
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, 10_000)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].bytes_used, 0);
        assert_eq!(
            caches[&SatelliteId(0)]
                .peek(LocationId(0), red())
                .unwrap()
                .captured_day,
            9.0
        );
    }

    #[test]
    fn pass_reads_each_target_once_however_many_satellites() {
        // Four satellites, four targets: one cold cache, one stale, one
        // fresh, one stale with identical content. Every stale target is
        // read once for the whole pass, not once per satellite.
        let store = CountingStore::default();
        let targets: Vec<(LocationId, Band)> = (0..4).map(|l| (LocationId(l), red())).collect();
        for l in 0..4 {
            store.offer(make_ref(l, 9.0, |i| (i % 7) as f32 / 7.0));
        }
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        for (sat, day) in [(1, 3.0), (2, 9.0)] {
            let cache = caches.entry(SatelliteId(sat)).or_default();
            for l in 0..4 {
                cache.install(make_ref(l, day, |_| 0.4));
            }
        }
        let cache = caches.entry(SatelliteId(3)).or_default();
        for l in 0..4 {
            cache.install(make_ref(l, 3.0, |i| (i % 7) as f32 / 7.0));
        }
        let contacts: Vec<ContactWindow> = (0..4).map(|s| window(s, 9.5, 1 << 20)).collect();
        let reports = ConstellationScheduler::new(0.01).plan_pass(
            &store,
            &mut caches,
            &targets,
            &contacts,
            EvictingReferenceCache::default,
        );
        let sent: Vec<usize> = reports.iter().map(|r| r.deltas_sent).collect();
        assert_eq!(sent, [4, 4, 0, 0]);
        let (gets, probes) = store.reads();
        assert!(gets <= 4, "{gets} store reads for 4 targets");
        assert!(probes <= 4, "{probes} freshness probes for 4 targets");
    }

    #[test]
    fn mid_pass_eviction_resend_reuses_the_pass_read() {
        // The capacity-bounded scenario of
        // `mid_pass_eviction_triggers_full_resend_at_real_cost`: the full
        // re-send of the evicted target must not read the store again.
        let store = CountingStore::default();
        store.offer(make_ref(0, 20.0, |_| 0.9));
        store.offer(make_ref(1, 20.0, |_| 0.9));
        let targets = vec![(LocationId(0), red()), (LocationId(1), red())];
        let one = make_ref(0, 20.0, |_| 0.9).size_bytes();
        let mut cache = EvictingReferenceCache::new(Some(one));
        cache.install(make_ref(0, 2.0, |_| 0.4));
        let mut caches = HashMap::from([(SatelliteId(0), cache)]);
        let full_cost = compute_delta(&make_ref(1, 20.0, |_| 0.9), None, 0.01)
            .unwrap()
            .size_bytes();
        let reports = ConstellationScheduler::new(0.01).plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 20.5, 1 << 20)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 2);
        assert_eq!(reports[0].bytes_used, 2 * full_cost, "re-sent in full");
        let (gets, probes) = store.reads();
        assert!(gets <= 2, "{gets} store reads for 2 targets");
        assert!(probes <= 2, "{probes} freshness probes for 2 targets");
    }
}
