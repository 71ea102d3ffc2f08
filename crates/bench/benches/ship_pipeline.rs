//! Pipelined-ship and group-commit micro-benchmarks.
//!
//! Two questions, measured rather than asserted:
//!
//! 1. **ship path** — the same 256-offer downlink burst into a
//!    two-station replicated store, once on the synchronous path (every
//!    offer ships its shard inline, under the shard lock) and once on
//!    the pipelined path (offers enqueue on per-station ship queues and
//!    background workers drain them). The pipelined run is timed through
//!    `quiesce()` + drop, so it pays for the *same* completed transfers
//!    — the win it can show is overlap, not deferred work.
//! 2. **group commit** — the same burst into the durable single-station
//!    backend, per-record `offer` vs grouped `ingest_batch`, with
//!    `fsync_appends` off and on. With fsync on the grouped path issues
//!    one fsync per filled segment run instead of one per record — the
//!    amortization the batched ingest exists for.
//!
//! Note: on a single-core host the pipelined arm cannot overlap its
//! drain workers with the offering thread and should measure at parity
//! (plus queue overhead); the separation appears with real hardware
//! parallelism.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use earthplus::{TelemetrySink, TraceSink};
use earthplus_ground::{
    ReferenceBackend, ReferenceImage, ReplicatedReferenceStore, ShipQueueConfig, StationSetConfig,
};
use earthplus_raster::{Band, LocationId, PlanetBand, Raster};
use earthplus_refstore::RefLogConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh unique scratch directory per iteration (criterion interleaves
/// setup and timing, so a fixed name would collide with itself).
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "earthplus-bench-ship-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A downlink burst: 256 references over 48 keys with colliding
/// generations, so freshest-wins and re-ship coalescing both happen.
fn downlink_burst() -> Vec<ReferenceImage> {
    (0..256u32)
        .map(|i| {
            let full = Raster::filled(64, 64, (i % 7) as f32 / 7.0);
            ReferenceImage::from_capture(
                LocationId(i % 48),
                Band::Planet(PlanetBand::Red),
                10.0 + (i / 48) as f64,
                &full,
                8,
            )
            .expect("downsample factor fits")
        })
        .collect()
}

fn bench_ship_path(c: &mut Criterion) {
    let burst = downlink_burst();
    let mut group = c.benchmark_group("ship_pipeline");
    group.sample_size(10);
    for (label, queue) in [
        ("sync", ShipQueueConfig::default()),
        (
            "pipelined",
            ShipQueueConfig {
                pipelined: true,
                ..ShipQueueConfig::default()
            },
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new("offer_256_2stations", label),
            &queue,
            |b, queue| {
                b.iter_batched(
                    || {
                        let dir = fresh_dir(label);
                        let (store, _) = ReplicatedReferenceStore::open(
                            &dir,
                            4,
                            StationSetConfig {
                                stations: 2,
                                replicas: 1,
                                queue: *queue,
                                ..StationSetConfig::default()
                            },
                            None,
                            &TelemetrySink::disabled(),
                            &TraceSink::disabled(),
                        )
                        .expect("bench store opens");
                        (dir, store, burst.clone())
                    },
                    |(dir, store, burst)| {
                        for reference in burst {
                            store.offer(reference);
                        }
                        store.quiesce();
                        let entries = store.len();
                        drop(store); // joins drain workers
                        let _ = std::fs::remove_dir_all(&dir);
                        entries
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_group_commit(c: &mut Criterion) {
    let burst = downlink_burst();
    let mut group = c.benchmark_group("group_commit");
    group.sample_size(10);
    for fsync in [false, true] {
        let log = RefLogConfig {
            fsync_appends: fsync,
            ..RefLogConfig::default()
        };
        let tag = if fsync { "fsync" } else { "nofsync" };
        let open = |label: &str| {
            let dir = fresh_dir(label);
            let (store, _) = ReplicatedReferenceStore::open(
                &dir,
                4,
                StationSetConfig::one_station(log),
                None,
                &TelemetrySink::disabled(),
                &TraceSink::disabled(),
            )
            .expect("bench store opens");
            (dir, store)
        };
        group.bench_with_input(
            BenchmarkId::new("per_record_256", tag),
            &burst,
            |b, burst| {
                b.iter_batched(
                    || {
                        let (dir, store) = open("single");
                        (dir, store, burst.clone())
                    },
                    |(dir, store, burst)| {
                        for reference in burst {
                            store.offer(reference);
                        }
                        let entries = store.len();
                        drop(store);
                        let _ = std::fs::remove_dir_all(&dir);
                        entries
                    },
                    BatchSize::LargeInput,
                )
            },
        );
        group.bench_with_input(BenchmarkId::new("grouped_256", tag), &burst, |b, burst| {
            b.iter_batched(
                || {
                    let (dir, store) = open("grouped");
                    (dir, store, burst.clone())
                },
                |(dir, store, burst)| {
                    store.ingest_batch(burst, 1);
                    let entries = store.len();
                    drop(store);
                    let _ = std::fs::remove_dir_all(&dir);
                    entries
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ship_path, bench_group_commit);
criterion_main!(benches);
