//! Crash-recovery property tests for the durable reference store.
//!
//! The build environment has no network access, so instead of `proptest`
//! these properties run over cases drawn from a small deterministic PRNG
//! (splitmix64), same as `property_invariants.rs`. The properties:
//!
//! 1. **kill-and-replay byte identity** — write N references, drop the
//!    store mid-stream, reopen, finish: the recovered index is
//!    byte-identical (segments, offsets, lengths, days) to a store that
//!    never crashed;
//! 2. **torn-tail truncation** — a partial final record is truncated to
//!    the last valid record and every committed record survives;
//! 3. **CRC-corrupt dropping** — a flipped byte mid-segment kills exactly
//!    that record; the rest survive;
//! 4. **replay idempotence** — open/close cycles never change state;
//! 5. **backend equivalence** — the same ingest stream through
//!    `GroundService` on the in-memory and durable backends yields the
//!    same store state and *identical* uplink schedules;
//! 6. **group-commit crash equivalence** — a log written by
//!    `append_batch` and one written by per-record `append` recover to
//!    identical state from the same torn-tail cut, and both keep
//!    accepting writes afterwards.

use earthplus_ground::{
    ContactWindow, GroundService, GroundServiceConfig, ReferenceBackend, ReferenceImage,
    ReplicatedReferenceStore, StationSetConfig,
};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId, Raster};
use earthplus_refstore::{framed_len, list_segments, RefLog, RefLogConfig, SEGMENT_HEADER_LEN};
use earthplus_telemetry::{TelemetrySink, TraceSink};
use std::path::PathBuf;

/// Deterministic splitmix64 PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in [lo, hi].
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "earthplus-refstore-proptest-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn red() -> Band {
    Band::Planet(earthplus_raster::PlanetBand::Red)
}

fn reference(location: u32, day: f64, value: f32) -> ReferenceImage {
    let full = Raster::filled(64, 64, value);
    ReferenceImage::from_capture(LocationId(location), red(), day, &full, 8).unwrap()
}

/// A randomized ingest stream: (key, day, payload) triples over a small
/// keyspace with colliding generations, so freshest-wins gets exercised.
fn ingest_stream(rng: &mut Rng, n: usize) -> Vec<((LocationId, Band), f64, Vec<u8>)> {
    (0..n)
        .map(|_| {
            let loc = rng.range(0, 12) as u32;
            let day = rng.range(1, 40) as f64;
            let payload: Vec<u8> = (0..rng.range(8, 200))
                .map(|_| rng.next_u64() as u8)
                .collect();
            ((LocationId(loc), red()), day, payload)
        })
        .collect()
}

fn small_segments() -> RefLogConfig {
    RefLogConfig {
        segment_max_bytes: 2048, // force rotation so kills span segments
        auto_compact: false,     // layout under test, not compaction
        ..RefLogConfig::default()
    }
}

#[test]
fn kill_and_replay_index_is_byte_identical_to_clean_run() {
    let mut rng = Rng::new(0xDEAD_5707);
    for case in 0..8 {
        let stream = ingest_stream(&mut rng, 120);
        let kill_at = rng.range(1, stream.len() - 1);

        let clean_dir = test_dir(&format!("clean-{case}"));
        let (mut clean, _) = RefLog::open(&clean_dir, small_segments()).unwrap();
        for (key, day, payload) in &stream {
            clean.append(*key, *day, payload).unwrap();
        }

        let killed_dir = test_dir(&format!("killed-{case}"));
        let (mut killed, _) = RefLog::open(&killed_dir, small_segments()).unwrap();
        for (key, day, payload) in &stream[..kill_at] {
            killed.append(*key, *day, payload).unwrap();
        }
        drop(killed); // crash: no shutdown hook, no flush call
        let (mut killed, report) = RefLog::open(&killed_dir, small_segments()).unwrap();
        assert!(report.clean(), "case {case}: clean kill must recover clean");
        for (key, day, payload) in &stream[kill_at..] {
            killed.append(*key, *day, payload).unwrap();
        }

        assert_eq!(
            killed.index_entries(),
            clean.index_entries(),
            "case {case} (kill at {kill_at}): recovered index must be byte-identical"
        );
        assert_eq!(killed.stats(), clean.stats());
        for key in clean.keys() {
            let a = clean.get(&key).unwrap().unwrap();
            let b = killed.get(&key).unwrap().unwrap();
            assert_eq!(a.payload, b.payload, "case {case}: payload mismatch");
        }
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&killed_dir);
    }
}

#[test]
fn torn_tail_is_truncated_to_last_valid_record() {
    let mut rng = Rng::new(0x7042_7411);
    for case in 0..8 {
        let dir = test_dir(&format!("torn-{case}"));
        // One big segment so the torn tail lands in the active file.
        let config = RefLogConfig {
            auto_compact: false,
            ..RefLogConfig::default()
        };
        let (mut log, _) = RefLog::open(&dir, config).unwrap();
        let stream = ingest_stream(&mut rng, 40);
        let mut accepted = Vec::new();
        for (key, day, payload) in &stream {
            if log.append(*key, *day, payload).unwrap() {
                accepted.push((*key, *day, payload.clone()));
            }
        }
        let entries_before = log.index_entries();
        drop(log);

        // Crash mid-append: a random prefix of one more frame lands.
        let (seg_path, tail_len) = {
            let segs = list_segments(&dir).unwrap();
            let (_, path) = segs.last().unwrap().clone();
            let tail = rng.range(1, 40) as u64;
            (path, tail)
        };
        let garbage: Vec<u8> = (0..tail_len).map(|_| rng.next_u64() as u8).collect();
        let mut bytes = std::fs::read(&seg_path).unwrap();
        let clean_len = bytes.len() as u64;
        bytes.extend_from_slice(&garbage);
        std::fs::write(&seg_path, &bytes).unwrap();

        let (log, report) = RefLog::open(&dir, config).unwrap();
        assert_eq!(
            report.truncated_bytes, tail_len,
            "case {case}: torn bytes must be counted exactly"
        );
        assert_eq!(report.corrupt_records_dropped, 0);
        assert_eq!(log.index_entries(), entries_before, "case {case}");
        drop(log);
        assert_eq!(
            std::fs::metadata(&seg_path).unwrap().len(),
            clean_len,
            "case {case}: file must be truncated back to the last valid record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crc_corrupt_record_is_dropped_others_survive() {
    let mut rng = Rng::new(0x00C0_44C7);
    for case in 0..8 {
        let dir = test_dir(&format!("crc-{case}"));
        let config = RefLogConfig {
            auto_compact: false,
            ..RefLogConfig::default()
        };
        let (mut log, _) = RefLog::open(&dir, config).unwrap();
        // Distinct keys, one generation each: every record stays live, so
        // frame offsets are exactly cumulative framed lengths.
        let payloads: Vec<(u32, Vec<u8>)> = (0..20u32)
            .map(|loc| {
                let payload: Vec<u8> = (0..rng.range(8, 120))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                (loc, payload)
            })
            .collect();
        for (loc, payload) in &payloads {
            log.append((LocationId(*loc), red()), 1.0, payload).unwrap();
        }
        drop(log);

        // Flip one byte anywhere in a random non-final record's frame —
        // including its length and CRC words: the scanner's resync must
        // confine the damage to that record either way.
        let victim = rng.range(0, payloads.len() - 2);
        let mut offset = SEGMENT_HEADER_LEN;
        for (_, payload) in payloads.iter().take(victim) {
            offset += framed_len(payload.len() as u64);
        }
        let victim_len = framed_len(payloads[victim].1.len() as u64);
        let flip_at = offset + rng.range(0, victim_len as usize) as u64;
        let seg_path = list_segments(&dir).unwrap()[0].1.clone();
        let mut bytes = std::fs::read(&seg_path).unwrap();
        bytes[flip_at as usize] ^= 0x01;
        std::fs::write(&seg_path, &bytes).unwrap();

        let (log, report) = RefLog::open(&dir, config).unwrap();
        assert_eq!(
            report.corrupt_records_dropped, 1,
            "case {case}: exactly the flipped record is dropped"
        );
        assert_eq!(report.truncated_bytes, 0, "case {case}: nothing truncated");
        assert_eq!(log.len(), payloads.len() - 1, "case {case}");
        for (loc, payload) in &payloads {
            let got = log.get(&(LocationId(*loc), red())).unwrap();
            if *loc as usize == victim {
                assert!(got.is_none(), "case {case}: victim must be gone");
            } else {
                assert_eq!(
                    got.unwrap().payload,
                    *payload,
                    "case {case}: survivor {loc} intact"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn replay_is_idempotent_over_repeated_reopens() {
    let mut rng = Rng::new(0x01DE_0707);
    let dir = test_dir("idempotent");
    let (mut log, _) = RefLog::open(&dir, small_segments()).unwrap();
    for (key, day, payload) in ingest_stream(&mut rng, 150) {
        log.append(key, day, &payload).unwrap();
    }
    let entries = log.index_entries();
    let stats = log.stats();
    drop(log);
    for round in 0..5 {
        let (log, report) = RefLog::open(&dir, small_segments()).unwrap();
        assert!(report.clean(), "round {round}");
        assert_eq!(log.index_entries(), entries, "round {round}");
        assert_eq!(log.stats(), stats, "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_append_crash_recovery_matches_sequential() {
    // Group commit writes the same bytes as one-at-a-time appends, so a
    // crash mid-stream — a torn tail cut at an arbitrary byte of the
    // newest segment — must recover to exactly the state a sequential
    // log reaches from the same cut. Streams draw colliding generations
    // so within-batch supersede is exercised too.
    let mut rng = Rng::new(0xBA7C_4A54);
    for case in 0..6 {
        let stream = ingest_stream(&mut rng, 60);
        let seq_dir = test_dir(&format!("batch-seq-{case}"));
        let grp_dir = test_dir(&format!("batch-grp-{case}"));
        let (mut seq, _) = RefLog::open(&seq_dir, small_segments()).unwrap();
        let (mut grp, _) = RefLog::open(&grp_dir, small_segments()).unwrap();
        let mut seq_outcomes = Vec::new();
        for (key, day, payload) in &stream {
            seq_outcomes.push(seq.append(*key, *day, payload).unwrap());
        }
        let mut grp_outcomes = Vec::new();
        for group in stream.chunks(rng.range(3, 9)) {
            let records: Vec<_> = group
                .iter()
                .map(|(key, day, payload)| (*key, *day, payload.as_slice()))
                .collect();
            grp_outcomes.extend(grp.append_batch(&records).unwrap());
        }
        assert_eq!(
            seq_outcomes, grp_outcomes,
            "case {case}: accept/reject outcomes differ between batch and sequential"
        );
        assert_eq!(seq.index_entries(), grp.index_entries(), "case {case}");
        drop(seq);
        drop(grp); // crash: no shutdown hook, no flush call

        // Tear the same number of bytes off both logs' newest segment.
        // The cut may land mid-frame (a torn batch tail) or swallow
        // whole trailing frames; either way the two logs see identical
        // bytes, so they must recover identically.
        let cut = {
            let segs = list_segments(&grp_dir).unwrap();
            let len = std::fs::metadata(&segs.last().unwrap().1).unwrap().len();
            rng.range(1, (len - SEGMENT_HEADER_LEN) as usize) as u64
        };
        for dir in [&seq_dir, &grp_dir] {
            let path = list_segments(dir).unwrap().last().unwrap().1.clone();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.truncate(bytes.len() - cut as usize);
            std::fs::write(&path, &bytes).unwrap();
        }

        let (mut seq, seq_report) = RefLog::open(&seq_dir, small_segments()).unwrap();
        let (mut grp, grp_report) = RefLog::open(&grp_dir, small_segments()).unwrap();
        assert_eq!(
            seq_report, grp_report,
            "case {case} (cut {cut}): recovery reports differ"
        );
        assert_eq!(
            seq.index_entries(),
            grp.index_entries(),
            "case {case} (cut {cut}): recovered indexes differ"
        );
        assert_eq!(seq.stats(), grp.stats(), "case {case}");
        for key in seq.keys() {
            assert_eq!(
                seq.get(&key).unwrap().unwrap().payload,
                grp.get(&key).unwrap().unwrap().payload,
                "case {case}: surviving payload differs for {key:?}"
            );
        }

        // Both recovered logs keep accepting group commits, and stay in
        // lockstep: re-deliver the whole stream as one batch (the
        // at-least-once path a ground station takes after a crash).
        let records: Vec<_> = stream
            .iter()
            .map(|(key, day, payload)| (*key, *day, payload.as_slice()))
            .collect();
        assert_eq!(
            seq.append_batch(&records).unwrap(),
            grp.append_batch(&records).unwrap(),
            "case {case}: post-recovery batch outcomes differ"
        );
        assert_eq!(seq.index_entries(), grp.index_entries(), "case {case}");
        assert_eq!(seq.len(), grp.len());
        let _ = std::fs::remove_dir_all(&seq_dir);
        let _ = std::fs::remove_dir_all(&grp_dir);
    }
}

#[test]
fn backends_agree_on_ingest_and_uplink_schedules() {
    let mut rng = Rng::new(0x0BAC_E9D0);
    let dir = test_dir("equivalence");
    // Serial ingest so the accepted/rejected *counts* are deterministic
    // (the final store state is interleaving-independent either way).
    let config = GroundServiceConfig {
        ingest_threads: 1,
        ..GroundServiceConfig::default()
    };
    let in_memory = GroundService::new(config.clone());
    let persistent = GroundService::new(config.with_persistence(&dir));

    // Interleave randomized ingest rounds and constellation passes.
    for round in 0..6 {
        let batch: Vec<ReferenceImage> = (0..rng.range(4, 24))
            .map(|_| {
                let loc = rng.range(0, 9) as u32;
                let day = rng.range(1, 30) as f64;
                let value = (rng.next_u64() % 97) as f32 / 97.0;
                reference(loc, day, value)
            })
            .collect();
        let report_mem = in_memory.ingest_downlink_batch(batch.clone());
        let report_disk = persistent.ingest_downlink_batch(batch);
        assert_eq!(
            report_mem, report_disk,
            "round {round}: ingest reports differ"
        );

        let contacts: Vec<ContactWindow> = (0..3u32)
            .map(|sat| ContactWindow {
                satellite: SatelliteId(sat),
                day: 31.0 + round as f64,
                budget_bytes: rng.range(200, 4000) as u64,
            })
            .collect();
        let plan_mem = in_memory.plan_pass(&contacts);
        let plan_disk = persistent.plan_pass(&contacts);
        assert_eq!(
            plan_mem, plan_disk,
            "round {round}: uplink schedules diverge between backends"
        );
    }

    let store_mem = in_memory.store();
    let store_disk = persistent.store();
    assert_eq!(store_mem.len(), store_disk.len());
    assert_eq!(store_mem.size_bytes(), store_disk.size_bytes());
    let mut keys_mem = store_mem.keys();
    keys_mem.sort();
    assert_eq!(keys_mem, store_disk.keys());
    for (location, band) in keys_mem {
        assert_eq!(
            store_mem.get(location, band),
            store_disk.get(location, band),
            "stored reference differs for {location:?}"
        );
    }

    // And the persistent half survives a restart with the same content.
    let stats = persistent.stats();
    drop(persistent);
    let (revived, report) = ReplicatedReferenceStore::open(
        &dir,
        GroundServiceConfig::default().shards,
        StationSetConfig::one_station(RefLogConfig::default()),
        None,
        &TelemetrySink::disabled(),
        &TraceSink::disabled(),
    )
    .unwrap();
    assert!(report.clean());
    assert_eq!(revived.len(), stats.store_entries);
    assert_eq!(ReferenceBackend::size_bytes(&revived), stats.store_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
