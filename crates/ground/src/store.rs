//! The sharded, concurrent ground-side reference store.
//!
//! Downlink stations decode captures in parallel; admitting the resulting
//! cloud-free references into one `Mutex<HashMap>` serializes every
//! ingest. [`ShardedReferenceStore`] splits the keyspace across
//! `RwLock`-guarded shards keyed by a hash of `(LocationId, Band)`, so
//! writers only contend when they land on the same shard and readers (the
//! uplink scheduler) never block each other.

use crate::reference::ReferenceImage;
use earthplus_raster::{Band, LocationId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

/// Cheap FNV-1a hasher for shard selection. Shard routing only needs a
/// few well-mixed bits and runs on every store operation, so the default
/// SipHash is measurable overhead here; the per-shard `HashMap`s keep
/// their DoS-resistant default hasher.
#[derive(Debug, Default)]
struct ShardHasher(u64);

impl Hasher for ShardHasher {
    fn finish(&self) -> u64 {
        // Final avalanche so consecutive LocationIds spread over shards.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = if self.0 == 0 {
            0xCBF2_9CE4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// Shard an operation on `(location, band)` routes to, out of
/// `shard_count` shards.
///
/// Shared by every backend: [`ShardedReferenceStore`] uses it to pick an
/// in-memory shard, [`crate::ReplicatedReferenceStore`] to pick a shard
/// directory — so multi-ground-station sharding maps one-to-one onto disk
/// layout, and a shard's files can be rehomed to another station without
/// re-routing keys.
pub fn shard_index(location: LocationId, band: Band, shard_count: usize) -> usize {
    let mut hasher = ShardHasher::default();
    (location, band).hash(&mut hasher);
    (hasher.finish() as usize) % shard_count.max(1)
}

/// Outcome of one (possibly parallel) batch ingest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// References admitted (fresher than what the store held).
    pub accepted: u64,
    /// References rejected (the store already held a copy at least as
    /// fresh).
    pub rejected: u64,
}

impl IngestReport {
    /// Total references offered.
    pub fn offered(&self) -> u64 {
        self.accepted + self.rejected
    }
}

type Shard = RwLock<HashMap<(LocationId, Band), ReferenceImage>>;

/// Concurrent pool of the freshest cloud-free reference per
/// `(location, band)`, sharded by key hash.
///
/// Freshest-wins: a reference replaces the stored one only if strictly
/// fresher. Every method takes `&self`, so the store can be shared across
/// the ingest worker pool and the uplink scheduler without external
/// locking; one shard (`new(1)`) is the single-lock baseline. Parallel
/// batch ingest is [`crate::ReferenceBackend::ingest_batch`].
#[derive(Debug)]
pub struct ShardedReferenceStore {
    shards: Vec<Shard>,
}

impl ShardedReferenceStore {
    /// Default shard count: enough to make cross-thread collisions rare on
    /// workstation core counts without bloating iteration.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a store with `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedReferenceStore {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, location: LocationId, band: Band) -> &Shard {
        &self.shards[shard_index(location, band, self.shards.len())]
    }

    /// Offers a new cloud-free reference; kept if fresher than the current
    /// one. Returns whether the store updated.
    pub fn offer(&self, reference: ReferenceImage) -> bool {
        let key = (reference.location, reference.band);
        let shard = self.shard_of(reference.location, reference.band);
        let mut map = shard.write().expect("store shard poisoned");
        match map.get(&key) {
            Some(existing) if existing.captured_day >= reference.captured_day => false,
            _ => {
                map.insert(key, reference);
                true
            }
        }
    }

    /// The freshest reference for a location/band, cloned out of the
    /// shard. References are heavily downsampled (~100 low-res pixels at
    /// the paper's 51× factor), so the clone is cheap.
    pub fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
        self.shard_of(location, band)
            .read()
            .expect("store shard poisoned")
            .get(&(location, band))
            .cloned()
    }

    /// The capture day of the freshest reference, without cloning it —
    /// the scheduler's cheap staleness probe.
    pub fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64> {
        self.shard_of(location, band)
            .read()
            .expect("store shard poisoned")
            .get(&(location, band))
            .map(|r| r.captured_day)
    }

    /// Number of (location, band) entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("store shard poisoned").len())
            .sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bytes across all shards.
    pub fn size_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("store shard poisoned")
                    .values()
                    .map(|r| r.size_bytes())
                    .sum::<u64>()
            })
            .sum()
    }

    /// Every (location, band) key currently held.
    pub fn keys(&self) -> Vec<(LocationId, Band)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.read().expect("store shard poisoned").keys().copied());
        }
        out
    }
}

impl Default for ShardedReferenceStore {
    fn default() -> Self {
        Self::new(Self::DEFAULT_SHARDS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ReferenceBackend;
    use earthplus_raster::{PlanetBand, Raster};

    fn reference(location: u32, band: Band, day: f64) -> ReferenceImage {
        let full = Raster::filled(64, 64, day as f32 / 100.0);
        ReferenceImage::from_capture(LocationId(location), band, day, &full, 8).unwrap()
    }

    fn red() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    #[test]
    fn freshest_wins_like_reference_pool() {
        let store = ShardedReferenceStore::new(4);
        assert!(store.offer(reference(0, red(), 5.0)));
        assert!(!store.offer(reference(0, red(), 3.0)));
        assert!(store.offer(reference(0, red(), 9.0)));
        assert_eq!(store.len(), 1);
        assert_eq!(store.fresh_day(LocationId(0), red()), Some(9.0));
    }

    #[test]
    fn keys_and_sizes_span_all_shards() {
        let store = ShardedReferenceStore::new(3);
        for loc in 0..20u32 {
            store.offer(reference(loc, red(), 1.0));
        }
        assert_eq!(store.len(), 20);
        assert_eq!(store.keys().len(), 20);
        let one = store.get(LocationId(0), red()).unwrap().size_bytes();
        assert_eq!(store.size_bytes(), 20 * one);
    }

    #[test]
    fn parallel_ingest_matches_serial_result() {
        // Offer the same keys at several freshness levels from many
        // threads; the freshest copy must win regardless of interleaving.
        let mut batch = Vec::new();
        for day in [3.0, 9.0, 5.0, 1.0] {
            for loc in 0..32u32 {
                batch.push(reference(loc, red(), day));
            }
        }
        let store = ShardedReferenceStore::new(8);
        let report = store.ingest_batch(batch, 8);
        assert_eq!(report.offered(), 4 * 32);
        assert_eq!(store.len(), 32);
        for loc in 0..32u32 {
            assert_eq!(store.fresh_day(LocationId(loc), red()), Some(9.0));
        }
    }

    #[test]
    fn single_thread_ingest_counts_accepts_exactly() {
        let store = ShardedReferenceStore::new(2);
        let batch = vec![
            reference(0, red(), 1.0),
            reference(0, red(), 2.0),
            reference(0, red(), 2.0), // stale duplicate
        ];
        let report = store.ingest_batch(batch, 1);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn zero_shard_request_clamps() {
        let store = ShardedReferenceStore::new(0);
        assert_eq!(store.shard_count(), 1);
        store.offer(reference(0, red(), 1.0));
        assert!(store.get(LocationId(0), red()).is_some());
    }
}
