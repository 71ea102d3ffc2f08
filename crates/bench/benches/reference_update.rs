//! Reference-update micro-benchmark: delta computation and cache
//! application under the 250 kbps uplink (§4.3 machinery).

use criterion::{criterion_group, criterion_main, Criterion};
use earthplus::{
    compute_delta, ConstellationScheduler, ContactWindow, EvictingReferenceCache, ReferenceImage,
    ShardedReferenceStore,
};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId, PlanetBand};
use earthplus_scene::terrain::LocationArchetype;
use earthplus_scene::{LocationScene, SceneConfig};
use std::collections::HashMap;

fn bench_reference(c: &mut Criterion) {
    let scene = LocationScene::new(SceneConfig::quick(13, LocationArchetype::Coastal));
    let band = Band::Planet(PlanetBand::Red);
    let old_full = scene.ground_reflectance(band, 40.0);
    let new_full = scene.ground_reflectance(band, 45.0);
    let old = ReferenceImage::from_capture(LocationId(0), band, 40.0, &old_full, 51).unwrap();
    let new = ReferenceImage::from_capture(LocationId(0), band, 45.0, &new_full, 51).unwrap();

    let mut group = c.benchmark_group("reference_update");
    group.bench_function("downsample_51x", |b| {
        b.iter(|| ReferenceImage::from_capture(LocationId(0), band, 45.0, &new_full, 51).unwrap())
    });
    group.bench_function("compute_delta", |b| {
        b.iter(|| compute_delta(&new, Some(&old), 0.01))
    });
    group.bench_function("plan_contact_40_targets", |b| {
        // 10 locations x 4 bands awaiting updates under one contact budget.
        let pool = ShardedReferenceStore::new(1);
        let mut targets = Vec::new();
        for loc in 0..10u32 {
            for band in Band::planet_all() {
                let mut r = new.clone();
                r.location = LocationId(loc);
                r.band = band;
                pool.offer(r);
                targets.push((LocationId(loc), band));
            }
        }
        let scheduler = ConstellationScheduler::new(0.01);
        let contact = ContactWindow {
            satellite: SatelliteId(0),
            day: 45.0,
            budget_bytes: 18_750_000,
        };
        b.iter_batched(
            HashMap::new,
            |mut caches| {
                scheduler.plan_pass(&pool, &mut caches, &targets, &[contact], || {
                    EvictingReferenceCache::new(None)
                })
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_reference);
criterion_main!(benches);
