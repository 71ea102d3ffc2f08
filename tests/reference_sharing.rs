//! Integration tests for the constellation-wide reference machinery:
//! cross-satellite sharing, uplink budgeting, and fluctuation handling.

use earthplus::prelude::*;
use earthplus::{metrics, GroundService, GroundServiceConfig, ReferenceImage};
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_orbit::{LinkModel, SatelliteId};
use earthplus_raster::{Band, LocationId, PlanetBand};
use earthplus_scene::{large_constellation, LocationScene};

#[test]
fn references_flow_across_satellites() {
    // With 48 satellites, consecutive captures of the same location come
    // from different satellites, yet each must find a fresh reference in
    // its cache (uploaded from the pool the *previous* satellites fed).
    let mut dataset = large_constellation(77, 256);
    dataset.duration_days = 60;
    let sim = MissionSimulator::from_dataset(&dataset, SimulationConfig::for_dataset(&dataset, 77));
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let targets: Vec<_> = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();
    let mut earthplus = EarthPlusStrategy::new(EarthPlusConfig::paper(), detector, targets);
    let report = sim.run(&mut [&mut earthplus]);
    let records = report.records("earth+");

    let distinct_sats: std::collections::HashSet<_> = records.iter().map(|r| r.satellite).collect();
    assert!(
        distinct_sats.len() >= 3,
        "mission used {} satellites",
        distinct_sats.len()
    );

    // After the first capture, non-guaranteed captures should run with a
    // reference (the uplink delivered it), and its age should reflect the
    // constellation's near-daily cloud-free cadence, far below a single
    // satellite's ~50 days.
    let with_ref = records
        .iter()
        .skip(1)
        .filter(|r| !r.dropped && !r.guaranteed)
        .filter(|r| r.reference_age_days.is_some())
        .count();
    let without_ref = records
        .iter()
        .skip(1)
        .filter(|r| !r.dropped && !r.guaranteed)
        .filter(|r| r.reference_age_days.is_none())
        .count();
    assert!(
        with_ref > without_ref,
        "most steady-state captures should find a cached reference \
         ({with_ref} with vs {without_ref} without)"
    );
    let age = metrics::reference_age_stats(records);
    assert!(age.count > 0);
    assert!(
        age.mean < 15.0,
        "mean reference age {:.1} too old",
        age.mean
    );
}

#[test]
fn uplink_starvation_degrades_gracefully() {
    // Throttle the uplink so hard that most reference updates are skipped;
    // Earth+ must keep functioning (stale references, more downloads) and
    // never exceed the budget.
    let mut dataset = large_constellation(79, 256);
    dataset.duration_days = 45;
    let mut config = SimulationConfig::for_dataset(&dataset, 79);
    config.uplink = LinkModel::constant(0.0); // total uplink outage
    let sim = MissionSimulator::from_dataset(&dataset, config);
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let targets: Vec<_> = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();
    let mut starved =
        EarthPlusStrategy::new(EarthPlusConfig::paper(), detector.clone(), targets.clone());
    let report_starved = sim.run(&mut [&mut starved]);

    let mut nominal_config = SimulationConfig::for_dataset(&dataset, 79);
    nominal_config.uplink = LinkModel::doves_uplink();
    let sim_nominal = MissionSimulator::from_dataset(&dataset, nominal_config);
    let mut nominal = EarthPlusStrategy::new(EarthPlusConfig::paper(), detector, targets);
    let report_nominal = sim_nominal.run(&mut [&mut nominal]);

    for r in &report_starved.uplink["earth+"] {
        assert!(r.bytes_used <= r.bytes_budget, "budget violated: {r:?}");
    }
    let skipped: usize = report_starved.uplink["earth+"]
        .iter()
        .map(|u| u.deltas_skipped)
        .sum();
    assert!(skipped > 0, "starvation should force skips");

    // Starved Earth+ downloads at least as much as nominal Earth+ (stale
    // references cost downlink), but still delivers imagery.
    let starved_bytes = metrics::mean_bytes_per_capture(report_starved.records("earth+"));
    let nominal_bytes = metrics::mean_bytes_per_capture(report_nominal.records("earth+"));
    assert!(
        starved_bytes >= nominal_bytes * 0.95,
        "starved {starved_bytes} nominal {nominal_bytes}"
    );
    assert!(metrics::psnr_stats(report_starved.records("earth+")).count > 0);
}

#[test]
fn pool_and_cache_stay_consistent_through_planning() {
    let scene = LocationScene::new(earthplus_scene::SceneConfig::quick(
        5,
        earthplus_scene::terrain::LocationArchetype::River,
    ));
    let band = Band::Planet(PlanetBand::Red);
    let service = GroundService::new(
        GroundServiceConfig::default()
            .with_theta(0.01)
            .with_targets(vec![(LocationId(0), band)]),
    );
    let satellite = SatelliteId(0);
    // Feed the pool with successively fresher references and plan after
    // each; the cache must track the pool's content exactly (unbounded
    // budget).
    for day in [10.0, 20.0, 30.0] {
        let full = scene.ground_reflectance(band, day);
        service.ingest_downlink(
            ReferenceImage::from_capture(LocationId(0), band, day, &full, 8).unwrap(),
        );
        service.plan_contact(satellite, day, u64::MAX);
        let cached = service
            .with_cache(satellite, |cache| cache.peek(LocationId(0), band).cloned())
            .flatten()
            .unwrap();
        let pooled = service.store().get(LocationId(0), band).unwrap();
        assert_eq!(cached.captured_day, pooled.captured_day);
        for (c, p) in cached
            .lowres
            .as_slice()
            .iter()
            .zip(pooled.lowres.as_slice())
        {
            assert!(
                (c - p).abs() <= 0.01 + 1e-6,
                "cache diverged from pool beyond the delta threshold"
            );
        }
    }
}
