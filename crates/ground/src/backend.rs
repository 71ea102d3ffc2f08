//! The pluggable reference-store backend seam.
//!
//! [`ReferenceBackend`] abstracts the store surface `GroundService` and
//! the constellation scheduler actually use, so the same service,
//! scheduler, and mission simulator run unchanged on the in-memory
//! [`ShardedReferenceStore`] or on the durable
//! [`crate::ReplicatedReferenceStore`] — the backend is picked by
//! [`crate::GroundServiceConfig`], not by the call sites.

use crate::reference::ReferenceImage;
use crate::store::{shard_index, IngestReport, ShardedReferenceStore};
use earthplus_raster::{Band, LocationId};
use std::sync::atomic::{AtomicU64, Ordering};

/// The store surface the ground segment schedules against.
///
/// Every method takes `&self`: implementations provide interior
/// mutability (shard locks), so one backend can be shared by concurrent
/// downlink decoders and the uplink scheduler.
///
/// Semantics every implementation must honour:
/// * **freshest-wins** — `offer` keeps a reference only if strictly
///   fresher than the stored generation for its `(location, band)`;
/// * **probe coherence** — `fresh_day` and `get` agree: a probed day is
///   servable until a fresher `offer` lands.
///
/// The surface is infallible; backends over fallible media panic on
/// runtime storage errors rather than silently dropping references (see
/// the [`crate::station`] module docs for the policy).
pub trait ReferenceBackend: Send + Sync + std::fmt::Debug {
    /// Offers a new cloud-free reference; kept if fresher than the
    /// current generation. Returns whether the store updated.
    fn offer(&self, reference: ReferenceImage) -> bool;

    /// The freshest reference for a location/band, cloned/decoded out of
    /// the store.
    fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage>;

    /// The capture day of the freshest reference, without materialising
    /// it — the scheduler's cheap staleness probe.
    fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64>;

    /// Number of (location, band) entries.
    fn len(&self) -> usize;

    /// Whether the store holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical stored bytes (the 12-bit reference model), comparable
    /// across backends regardless of on-disk framing.
    fn size_bytes(&self) -> u64;

    /// Every (location, band) key currently held.
    fn keys(&self) -> Vec<(LocationId, Band)>;

    /// Ingests a batch of downlinked references on up to `threads`
    /// workers. The default fans chunks out over [`ReferenceBackend::offer`]
    /// ([`parallel_offer`]), which is correct for any backend because
    /// `offer` re-checks freshness under its own synchronisation.
    fn ingest_batch(&self, references: Vec<ReferenceImage>, threads: usize) -> IngestReport {
        parallel_offer(self, references, threads)
    }

    /// Flushes whatever durability the backend offers (no-op in memory).
    fn sync(&self) {}
}

/// Fans a batch out over `offer` on a `std::thread` worker pool: the
/// batch is split into owned contiguous chunks, one per worker, so
/// references move into the store instead of being cloned.
pub fn parallel_offer<B: ReferenceBackend + ?Sized>(
    backend: &B,
    mut references: Vec<ReferenceImage>,
    threads: usize,
) -> IngestReport {
    let threads = threads.max(1).min(references.len().max(1));
    let accepted = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let chunk = references.len().div_ceil(threads).max(1);
    let mut chunks: Vec<Vec<ReferenceImage>> = Vec::with_capacity(threads);
    while references.len() > chunk {
        let tail = references.split_off(references.len() - chunk);
        chunks.push(tail);
    }
    chunks.push(references);
    std::thread::scope(|scope| {
        for chunk in chunks {
            let (accepted, rejected) = (&accepted, &rejected);
            scope.spawn(move || {
                let mut local_accepted = 0u64;
                let mut local_rejected = 0u64;
                for reference in chunk {
                    if backend.offer(reference) {
                        local_accepted += 1;
                    } else {
                        local_rejected += 1;
                    }
                }
                accepted.fetch_add(local_accepted, Ordering::Relaxed);
                rejected.fetch_add(local_rejected, Ordering::Relaxed);
            });
        }
    });
    IngestReport {
        accepted: accepted.into_inner(),
        rejected: rejected.into_inner(),
    }
}

/// Routes a batch into per-shard groups (index `i` holds shard `i`'s
/// references, arrival order preserved) — the grouping step behind the
/// durable backend's group-commit ingest: one batch append (and one ship)
/// per touched shard instead of one per reference.
pub(crate) fn shard_batches(
    references: Vec<ReferenceImage>,
    shards: usize,
) -> Vec<Vec<ReferenceImage>> {
    let shards = shards.max(1);
    let mut groups: Vec<Vec<ReferenceImage>> = (0..shards).map(|_| Vec::new()).collect();
    for reference in references {
        let idx = shard_index(reference.location, reference.band, shards);
        groups[idx].push(reference);
    }
    groups
}

/// A shared backend is a backend: lets the service box an
/// `Arc<ReplicatedReferenceStore>` (or any other backend) while keeping a
/// second handle for control-plane calls (failover, replication pumps).
impl<T: ReferenceBackend> ReferenceBackend for std::sync::Arc<T> {
    fn offer(&self, reference: ReferenceImage) -> bool {
        (**self).offer(reference)
    }

    fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
        (**self).get(location, band)
    }

    fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64> {
        (**self).fresh_day(location, band)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn size_bytes(&self) -> u64 {
        (**self).size_bytes()
    }

    fn keys(&self) -> Vec<(LocationId, Band)> {
        (**self).keys()
    }

    fn ingest_batch(&self, references: Vec<ReferenceImage>, threads: usize) -> IngestReport {
        (**self).ingest_batch(references, threads)
    }

    fn sync(&self) {
        (**self).sync()
    }
}

impl ReferenceBackend for ShardedReferenceStore {
    fn offer(&self, reference: ReferenceImage) -> bool {
        ShardedReferenceStore::offer(self, reference)
    }

    fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
        ShardedReferenceStore::get(self, location, band)
    }

    fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64> {
        ShardedReferenceStore::fresh_day(self, location, band)
    }

    fn len(&self) -> usize {
        ShardedReferenceStore::len(self)
    }

    fn size_bytes(&self) -> u64 {
        ShardedReferenceStore::size_bytes(self)
    }

    fn keys(&self) -> Vec<(LocationId, Band)> {
        ShardedReferenceStore::keys(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{PlanetBand, Raster};

    fn reference(location: u32, day: f64) -> ReferenceImage {
        let full = Raster::filled(64, 64, 0.4);
        ReferenceImage::from_capture(
            LocationId(location),
            Band::Planet(PlanetBand::Red),
            day,
            &full,
            8,
        )
        .unwrap()
    }

    #[test]
    fn sharded_store_honours_trait_surface() {
        let store = ShardedReferenceStore::new(4);
        let backend: &dyn ReferenceBackend = &store;
        assert!(backend.is_empty());
        assert!(backend.offer(reference(0, 2.0)));
        assert!(!backend.offer(reference(0, 1.0)));
        assert_eq!(backend.len(), 1);
        assert_eq!(
            backend.fresh_day(LocationId(0), Band::Planet(PlanetBand::Red)),
            Some(2.0)
        );
        assert_eq!(backend.keys().len(), 1);
        backend.sync(); // no-op, must not panic
    }

    #[test]
    fn shard_batches_routes_and_preserves_arrival_order() {
        let batch: Vec<ReferenceImage> = (0..16u32)
            .flat_map(|loc| [reference(loc, 1.0), reference(loc, 2.0)])
            .collect();
        let shards = 4;
        let groups = shard_batches(batch, shards);
        assert_eq!(groups.len(), shards);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 32);
        for (idx, group) in groups.iter().enumerate() {
            let mut last_day_per_loc: std::collections::HashMap<u32, f64> =
                std::collections::HashMap::new();
            for reference in group {
                assert_eq!(
                    shard_index(reference.location, reference.band, shards),
                    idx,
                    "reference routed to the wrong group"
                );
                // Arrival order within a key survives the grouping, so a
                // batch append sees generations in offer order.
                if let Some(prev) = last_day_per_loc.get(&reference.location.0) {
                    assert!(*prev < reference.captured_day);
                }
                last_day_per_loc.insert(reference.location.0, reference.captured_day);
            }
        }
    }

    #[test]
    fn default_parallel_offer_matches_inherent_batch() {
        let batch: Vec<ReferenceImage> = (0..24u32)
            .flat_map(|loc| [reference(loc, 1.0), reference(loc, 2.0)])
            .collect();
        let store = ShardedReferenceStore::new(4);
        let report = parallel_offer(&store, batch, 4);
        assert_eq!(report.offered(), 48);
        // Freshest-wins must hold under any interleaving: every location
        // ends on day 2, however the chunks raced.
        assert_eq!(ReferenceBackend::len(&store), 24);
        for loc in 0..24u32 {
            assert_eq!(
                ReferenceBackend::fresh_day(&store, LocationId(loc), Band::Planet(PlanetBand::Red)),
                Some(2.0)
            );
        }
    }
}
