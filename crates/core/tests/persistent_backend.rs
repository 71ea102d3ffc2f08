//! The acceptance test of the pluggable reference backend: the same
//! simulated mission, run once on the in-memory store and once on the
//! durable log-structured store, must produce *identical* uplink
//! schedules and capture accounting — persistence is a storage property,
//! not a behaviour change. Plus the storage-model cross-check: the
//! persistent archive's on-disk accounting must tie out, byte for byte,
//! with the logical reference model the in-memory store reports.

use earthplus::prelude::*;
use earthplus::{TelemetrySink, TraceSink};
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_ground::{
    GroundServiceConfig, ReferenceBackend, ReplicatedReferenceStore, StationSetConfig,
};
use earthplus_orbit::LinkModel;
use earthplus_refstore::{framed_len, RefLogConfig};
use earthplus_scene::large_constellation;
use std::path::PathBuf;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "earthplus-core-backend-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_mission() -> (MissionSimulator, earthplus_scene::DatasetConfig) {
    let mut dataset = large_constellation(7, 256);
    dataset.duration_days = 15;
    dataset.satellite_count = 8;
    let mut config = SimulationConfig::for_dataset(&dataset, 7);
    config.eval_from_day = 40;
    config.eval_days = 15;
    config.uplink = LinkModel::doves_uplink();
    let sim = MissionSimulator::from_dataset(&dataset, config);
    (sim, dataset)
}

#[test]
fn mission_schedules_identical_on_both_backends_and_storage_ties_out() {
    let root = test_dir("mission");
    let (sim, dataset) = small_mission();
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let targets: Vec<_> = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();
    let config = EarthPlusConfig::paper().with_gamma(2.0);

    let mut in_memory = EarthPlusStrategy::new(config, detector.clone(), targets.clone());
    let report_mem = sim.run(&mut [&mut in_memory]);

    let ground = GroundServiceConfig::default()
        .with_targets(targets)
        .with_persistence(&root);
    let mut persistent = EarthPlusStrategy::with_ground_config(config, detector, ground);
    let report_disk = sim.run(&mut [&mut persistent]);

    // Identical uplink schedules, window by window.
    let uplink_mem = &report_mem.uplink["earth+"];
    let uplink_disk = &report_disk.uplink["earth+"];
    assert_eq!(uplink_mem.len(), uplink_disk.len());
    assert!(
        !uplink_mem.is_empty(),
        "mission produced no contact windows"
    );
    for (m, d) in uplink_mem.iter().zip(uplink_disk) {
        assert_eq!(m.deltas_sent, d.deltas_sent);
        assert_eq!(m.deltas_skipped, d.deltas_skipped);
        assert_eq!(m.bytes_used, d.bytes_used);
        assert_eq!(m.bytes_budget, d.bytes_budget);
    }

    // Identical capture accounting (bytes and tile selection are exact;
    // PSNR is float-derived from the same arithmetic, so also exact).
    let captures_mem = report_mem.records("earth+");
    let captures_disk = report_disk.records("earth+");
    assert_eq!(captures_mem.len(), captures_disk.len());
    assert!(!captures_mem.is_empty(), "mission produced no captures");
    for (m, d) in captures_mem.iter().zip(captures_disk) {
        assert_eq!(m.day, d.day);
        assert_eq!(m.downloaded_bytes, d.downloaded_bytes);
        assert_eq!(m.downloaded_tile_fraction, d.downloaded_tile_fraction);
        assert_eq!(m.psnr_db, d.psnr_db);
        assert_eq!(m.reference_age_days, d.reference_age_days);
    }

    // Identical ground-service state at mission end.
    let stats_mem = in_memory.ground().stats();
    let stats_disk = persistent.ground().stats();
    assert_eq!(stats_mem.store_entries, stats_disk.store_entries);
    assert_eq!(stats_mem.store_bytes, stats_disk.store_bytes);
    assert_eq!(stats_mem.deltas_sent, stats_disk.deltas_sent);
    assert_eq!(stats_mem.uplink_bytes_sent, stats_disk.uplink_bytes_sent);
    assert_eq!(stats_mem.ingest_accepted, stats_disk.ingest_accepted);

    // Storage-model cross-check: every live on-disk record costs exactly
    // frame overhead + payload header + 4 bytes per low-res sample, so
    // the logical reference model (what the in-memory store reports)
    // predicts the persistent archive's live bytes with no slack.
    let shards = persistent.ground().config().shards;
    let mut expected_live = 0u64;
    let mut expected_logical = 0u64;
    {
        let store = in_memory.ground().store();
        for (location, band) in store.keys() {
            let reference = store.get(location, band).expect("listed key readable");
            let samples = reference.lowres.len() as u64;
            expected_live += framed_len(
                earthplus_ground::ReferenceImage::RECORD_PAYLOAD_HEADER as u64 + 4 * samples,
            );
            expected_logical += reference.size_bytes();
        }
    }
    drop(persistent); // release the shard directories
    let (archive, report) = ReplicatedReferenceStore::open(
        &root,
        shards,
        StationSetConfig::one_station(RefLogConfig::default()),
        None,
        &TelemetrySink::disabled(),
        &TraceSink::disabled(),
    )
    .unwrap();
    assert!(report.clean());
    assert_eq!(archive.stats().store.live_bytes, expected_live);
    assert_eq!(ReferenceBackend::size_bytes(&archive), expected_logical);
    assert!(
        archive.disk_bytes().unwrap() >= archive.stats().store.live_bytes,
        "files hold at least the live records"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn service_restart_resumes_with_identical_store() {
    let root = test_dir("restart");
    let (sim, dataset) = small_mission();
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let targets: Vec<_> = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();
    let config = EarthPlusConfig::paper().with_gamma(2.0);
    let ground = GroundServiceConfig::default()
        .with_targets(targets)
        .with_persistence(&root);

    let mut strategy =
        EarthPlusStrategy::with_ground_config(config, detector.clone(), ground.clone());
    sim.run(&mut [&mut strategy]);
    let entries = strategy.ground().store().len();
    let bytes = strategy.ground().store().size_bytes();
    let keys = strategy.ground().store().keys();
    assert!(entries > 0, "mission ingested no references");
    drop(strategy); // ground segment "restart"

    let revived = EarthPlusStrategy::with_ground_config(config, detector, ground);
    let report = revived
        .ground()
        .recovery_report()
        .expect("persistent backend reports recovery");
    assert!(report.clean(), "clean shutdown must recover cleanly");
    assert_eq!(report.live_records as usize, entries);
    let store = revived.ground().store();
    assert_eq!(store.len(), entries);
    assert_eq!(store.size_bytes(), bytes);
    assert_eq!(store.keys(), keys);
    let _ = std::fs::remove_dir_all(&root);
}
