//! The `ground_uplink` workload: the ground segment alone.
//!
//! 256 locations × 4 Planet bands (1024 uplink targets), 48 satellites, a
//! durable two-station store. Each round is one mission day: the day's
//! clear captures arrive (their references are built and ingested as one
//! downlink batch), then the day's contact pass is planned, then every
//! satellite visiting a location the next day reads its on-board
//! references. The run ends with close-and-reopen cycles.
//!
//! Set-up opens the durable store and seeds it from the archive: a
//! reference built from the day before the first round for every target,
//! ingested as one batch, so the ground starts with a full catalogue as a
//! running ground segment has.
//!
//! With no on-board calls, a "capture" here is the ground's side of one:
//! a reference built from a clear capture and its share of the day's
//! ingest batch. Capture latency is that per-capture time averaged over
//! each day's downlink (one sample a day), and capture throughput counts
//! the captured pixels the ground absorbed.
//!
//! Every rate comes from the models the missions run on. Visits are the
//! Doves constellation's. A visit yields a reference when the location's
//! cloud climate (the scene model's temperate climate, 24 % clear days)
//! draws less cover than the strategy's `reference_cloud_max`, the bar the
//! strategy applies before it ingests a capture. The ground's
//! reconstruction of a clear capture is the scene model's cloud-free
//! ground truth for that day: terrain, seasonal cycle, snow and change
//! events. It is rendered, untimed, for a few archetype scenes at a fifth
//! of the capture size and enlarged to it; each location shows one of
//! them under its own weather.

use crate::layers::PerLayer;
use crate::mission::epoch_count;
use crate::restart::restart_cycles;
use crate::spans::Spans;
use crate::stats::{median, ratio, smoothed_quantile, timed, Checks, Metrics};
use crate::{RunArgs, Scale};
use earthplus::EarthPlusConfig;
use earthplus_ground::{
    ContactWindow, GroundService, GroundServiceConfig, ReferenceImage, StationSetConfig,
    UplinkReport, DEFAULT_REFERENCE_DOWNSAMPLE,
};
use earthplus_orbit::{Constellation, ContactSchedule, LinkModel, SatelliteId};
use earthplus_raster::{psnr_from_mse, Band, LocationId, Raster};
use earthplus_scene::{LocationArchetype, LocationScene, SceneConfig};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// First mission day of the rounds.
const FROM_DAY: i64 = 40;
/// Archetype scenes whose ground truth the locations show.
const TEMPLATES: usize = 8;
/// The templates are rendered at 1/`ENLARGE` of the capture size.
const ENLARGE: usize = 5;
/// Seed of the world: the templates' terrain and change events, the
/// locations' weather and the orbits. As on the missions it is fixed, and
/// `--seed` drives the contact schedule, which decides what each pass can
/// uplink; the world would otherwise set how many captures each day
/// brings, and with it the latency percentiles.
const WORLD_SEED: u64 = 7;

/// The workload's pre-planned rounds.
pub struct GroundWorkload {
    size: usize,
    bands: Vec<Band>,
    targets: Vec<(LocationId, Band)>,
    templates: Vec<LocationScene>,
    rounds: Vec<Round>,
}

struct Round {
    /// Capture time of the day's visits.
    day: f64,
    /// Locations captured clear that day.
    captures: Vec<LocationId>,
    contacts: Vec<ContactWindow>,
    /// Next day's visits: each satellite reads every band of its location.
    reads: Vec<(SatelliteId, LocationId)>,
}

/// Plans the rounds of `ground_uplink` from `seed`.
pub fn ground_uplink(seed: u64, scale: Scale) -> GroundWorkload {
    let (locations, satellites, days, size) = match scale {
        // 510 px: references of 10×10 samples, as `constellation_ops`'
        // 512 px captures give.
        Scale::Full => (256u32, 48, 100, 10 * DEFAULT_REFERENCE_DOWNSAMPLE),
        Scale::Tiny => (16, 8, 6, 2 * DEFAULT_REFERENCE_DOWNSAMPLE),
    };
    let bands = Band::planet_all();
    let archetype = |i: usize| LocationArchetype::ALL[i % LocationArchetype::ALL.len()];
    // Only the locations' weather is read, which does not depend on the
    // scene size; a small one keeps their terrain cheap to build.
    let weather: Vec<LocationScene> = (0..locations)
        .map(|l| {
            let archetype = archetype(l as usize % TEMPLATES);
            let config =
                SceneConfig::new(WORLD_SEED, LocationId(l), archetype, 16, 16, bands.clone());
            LocationScene::new(config)
        })
        .collect();
    let templates = (0..TEMPLATES)
        .map(|t| {
            let small = size / ENLARGE;
            LocationScene::new(SceneConfig::new(
                WORLD_SEED,
                LocationId(t as u32),
                archetype(t),
                small,
                small,
                bands.clone(),
            ))
        })
        .collect();
    let cloud_max = EarthPlusConfig::paper().reference_cloud_max;
    let constellation = Constellation::doves(satellites, WORLD_SEED);
    let schedule = ContactSchedule::new(seed ^ 0xC0);
    let link = LinkModel::doves_uplink();
    let visits = |day: i64| -> Vec<(SatelliteId, LocationId, f64)> {
        weather
            .iter()
            .flat_map(|scene| constellation.visits(scene.config().location, day, day + 1))
            .map(|v| (v.satellite, v.location, v.day))
            .collect()
    };
    let rounds = (FROM_DAY..FROM_DAY + days as i64)
        .map(|day| {
            let today = visits(day);
            let captures = today
                .iter()
                .filter(|&&(_, l, at)| weather[l.0 as usize].cloud_coverage(at) < cloud_max)
                .map(|&(_, l, _)| l)
                .collect();
            let mut contacts: Vec<ContactWindow> = constellation
                .satellites()
                .iter()
                .flat_map(|s| schedule.contacts(s.id, day as f64, (day + 1) as f64))
                .map(|c| ContactWindow {
                    satellite: c.satellite,
                    day: c.day,
                    budget_bytes: link.bytes_per_contact(c.index),
                })
                .collect();
            contacts.sort_by(|a, b| a.day.total_cmp(&b.day));
            Round {
                day: today.first().map_or(day as f64, |v| v.2),
                captures,
                contacts,
                reads: visits(day + 1)
                    .into_iter()
                    .map(|(s, l, _)| (s, l))
                    .collect(),
            }
        })
        .collect();
    let targets = (0..locations)
        .flat_map(|l| bands.iter().map(move |&b| (LocationId(l), b)))
        .collect();
    GroundWorkload {
        size,
        bands,
        targets,
        templates,
        rounds,
    }
}

impl GroundWorkload {
    /// Every template's cloud-free ground truth on `day`, per band,
    /// enlarged to the capture size: what the ground reconstructs from a
    /// clear capture of a location showing that template.
    fn render_day(&self, day: f64) -> Vec<Vec<Raster>> {
        self.templates
            .iter()
            .map(|scene| {
                self.bands
                    .iter()
                    .map(|&band| enlarge(&scene.ground_reflectance(band, day), self.size))
                    .collect()
            })
            .collect()
    }

    fn ground_config(&self, dir: &Path) -> GroundServiceConfig {
        GroundServiceConfig::default()
            .with_targets(self.targets.clone())
            .with_stations(dir, StationSetConfig::default())
    }

    fn capture_mpix(&self) -> f64 {
        (self.size * self.size * self.bands.len()) as f64 * 1e-6
    }
}

/// `small` with each sample repeated into a block, `size` samples a side.
fn enlarge(small: &Raster, size: usize) -> Raster {
    let mut data = Vec::with_capacity(size * size);
    for y in 0..size {
        let row = small.row((y * small.height() / size).min(small.height() - 1));
        data.extend((0..size).map(|x| row[(x * small.width() / size).min(small.width() - 1)]));
    }
    Raster::from_vec(size, size, data).expect("size² samples")
}

/// What one epoch produced and how long each call took.
#[derive(Default)]
struct Epoch {
    /// Seconds per capture of each day's downlink: its reference builds
    /// and its ingest batch, over its captures.
    downlink_s: Vec<f64>,
    pass_s: Vec<f64>,
    /// References per second of each ingest batch.
    ingest_rates: Vec<f64>,
    /// Seconds in every system call: reference builds, ingest batches,
    /// passes and reads.
    system_s: f64,
    reference_bytes: u64,
    captures: u64,
    passes: Vec<Vec<UplinkReport>>,
    /// Squared error and pixel count of served references against the
    /// reference the ground built for the same capture day.
    served_sq_err: f64,
    served_px: u64,
}

/// One system under test in an epoch: its ground service, and the span
/// recorder when it is the traced lane.
struct Lane<'a> {
    service: &'a GroundService,
    spans: Option<&'a mut Spans>,
    epoch: Epoch,
}

impl<'a> Lane<'a> {
    fn new(service: &'a GroundService, spans: Option<&'a mut Spans>) -> Self {
        Lane {
            service,
            spans,
            epoch: Epoch::default(),
        }
    }

    /// Times `f` as one system call; in the traced lane it is a root span
    /// `call` holding one layer span `layer`.
    fn call<R>(
        &mut self,
        id: u64,
        call: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let (r, s) = match self.spans.as_deref_mut() {
            Some(spans) => {
                let root = spans.open(id, call);
                let r = timed(|| spans.layer(root, layer, f));
                spans.close(root);
                r
            }
            None => timed(f),
        };
        self.epoch.system_s += s;
        (r, s)
    }
}

/// Runs every round against each lane's service in lockstep: each day's
/// ground truth is rendered once and handed to every lane, and the lanes
/// take turns going first, so they see the same inputs at the same time.
///
/// `built` holds the references the ground was seeded with; served
/// references are compared with the ones built for the same target and day.
fn run_epoch(
    workload: &GroundWorkload,
    lanes: &mut [Lane<'_>],
    mut built: HashMap<Key, Raster>,
    checks: &mut Checks,
) {
    for (id, round) in workload.rounds.iter().enumerate() {
        let id = id as u64;
        let mut order: Vec<usize> = (0..lanes.len()).collect();
        if !id.is_multiple_of(2) {
            order.reverse();
        }
        let truth = workload.render_day(round.day);
        let mut batches: Vec<Vec<ReferenceImage>> = vec![Vec::new(); lanes.len()];
        let mut downlink_s = vec![0.0; lanes.len()];
        for &location in &round.captures {
            let full = &truth[location.0 as usize % TEMPLATES];
            for &k in &order {
                let lane = &mut lanes[k];
                checks.call();
                let (refs, s) = lane.call(id, "capture", "ground.reference_build", || {
                    workload
                        .bands
                        .iter()
                        .zip(full)
                        .map(|(&band, raster)| {
                            ReferenceImage::from_capture(
                                location,
                                band,
                                round.day,
                                raster,
                                DEFAULT_REFERENCE_DOWNSAMPLE,
                            )
                        })
                        .collect::<Vec<_>>()
                });
                for reference in refs {
                    match reference {
                        Ok(reference) => {
                            lane.epoch.reference_bytes += reference.size_bytes();
                            built
                                .entry(key(&reference))
                                .or_insert_with(|| reference.lowres.clone());
                            batches[k].push(reference);
                        }
                        Err(e) => checks.expect(false, || format!("reference build failed: {e}")),
                    }
                }
                downlink_s[k] += s;
                lane.epoch.captures += 1;
            }
        }

        for &k in &order {
            let lane = &mut lanes[k];
            let service = lane.service;
            let batch = std::mem::take(&mut batches[k]);
            let offered = batch.len() as u64;
            checks.call();
            let (report, s) = lane.call(id, "ingest_batch", "ground.ingest", || {
                service.ingest_downlink_batch(batch)
            });
            lane.epoch.ingest_rates.push(ratio(offered as f64, s));
            if offered > 0 {
                let captures = offered / workload.bands.len() as u64;
                lane.epoch
                    .downlink_s
                    .push((downlink_s[k] + s) / captures as f64);
            }
            checks.expect(report.accepted + report.rejected == offered, || {
                format!("ingest batch of {offered} reported {report:?}")
            });

            checks.call();
            let (reports, s) = lane.call(id, "pass", "ground.plan", || {
                service.plan_pass(&round.contacts)
            });
            lane.epoch.pass_s.push(s);
            checks.expect(
                reports.len() == round.contacts.len()
                    && reports.iter().all(|r| r.bytes_used <= r.bytes_budget),
                || format!("round {id}: uplink reports do not match the pass"),
            );
            lane.epoch.passes.push(reports);

            // One call reading every band each visiting satellite needs;
            // traced, each read is its own layer span.
            checks.call();
            let mut served = Vec::with_capacity(round.reads.len() * workload.bands.len());
            let t = Instant::now();
            match lane.spans.as_deref_mut() {
                Some(spans) => {
                    let root = spans.open(id, "reads");
                    for &(satellite, location) in &round.reads {
                        for &band in &workload.bands {
                            served.push(spans.layer(root, "ground.serve", || {
                                service.serve_reference(satellite, location, band)
                            }));
                        }
                    }
                    spans.close(root);
                }
                None => {
                    for &(satellite, location) in &round.reads {
                        for &band in &workload.bands {
                            served.push(service.serve_reference(satellite, location, band));
                        }
                    }
                }
            }
            lane.epoch.system_s += t.elapsed().as_secs_f64();
            for reference in served.into_iter().flatten() {
                let key = key(&reference);
                match built.get(&key) {
                    Some(original) => {
                        for (a, b) in reference.lowres.as_slice().iter().zip(original.as_slice()) {
                            lane.epoch.served_sq_err += ((a - b) as f64).powi(2);
                        }
                        lane.epoch.served_px += original.as_slice().len() as u64;
                    }
                    None => checks.expect(false, || {
                        format!("served a reference of a day the ground never built: {key:?}")
                    }),
                }
            }
        }
    }
}

/// A reference's target and capture day.
type Key = (LocationId, Band, u64);

fn key(reference: &ReferenceImage) -> Key {
    (
        reference.location,
        reference.band,
        reference.captured_day.to_bits(),
    )
}

/// A ground set up on a fresh store.
struct Setup {
    service: GroundService,
    seconds: f64,
    /// The low-resolution samples of every reference it was seeded with.
    seeded: HashMap<Key, Raster>,
}

/// Sets up the ground under `dir`: opens an empty durable store, then
/// builds and ingests one archived reference per target. Rendering the
/// archive is load generation and untimed.
fn open(workload: &GroundWorkload, dir: &Path, checks: &mut Checks) -> Option<Setup> {
    let _ = std::fs::remove_dir_all(dir);
    let day = workload.rounds.first().map_or(FROM_DAY as f64, |r| r.day) - 1.0;
    let archive = workload.render_day(day);
    let ((service, references), build_s) = timed(|| {
        let service = GroundService::try_new(workload.ground_config(dir));
        let references: Result<Vec<ReferenceImage>, _> = workload
            .targets
            .iter()
            .map(|&(location, band)| {
                let b = workload.bands.iter().position(|&x| x == band);
                let full = &archive[location.0 as usize % TEMPLATES][b.expect("a target band")];
                ReferenceImage::from_capture(
                    location,
                    band,
                    day,
                    full,
                    DEFAULT_REFERENCE_DOWNSAMPLE,
                )
            })
            .collect();
        (service, references)
    });
    let (service, references) = match (service, references) {
        (Ok(service), Ok(references)) => (service, references),
        (Err(e), _) => {
            checks.expect(false, || format!("store open failed: {e}"));
            return None;
        }
        (_, Err(e)) => {
            checks.expect(false, || format!("archived reference build failed: {e}"));
            return None;
        }
    };
    let seeded = references
        .iter()
        .map(|r| (key(r), r.lowres.clone()))
        .collect();
    let offered = references.len() as u64;
    let (report, ingest_s) = timed(|| service.ingest_downlink_batch(references));
    checks.expect(report.accepted == offered, || {
        format!("an empty store accepted {report:?} of {offered} archived references")
    });
    Some(Setup {
        service,
        seconds: build_s + ingest_s,
        seeded,
    })
}

/// Set-ups timed before the first epoch, besides each epoch's own.
const SETUPS: usize = 5;
/// Reopens timed at the end of a traced run, for a median.
const RESTARTS: usize = 31;

/// Nominal seconds of one epoch on the 2-CPU reference container.
const EPOCH_S: f64 = 20.0;

/// The untraced run: whole epochs, each on a freshly set-up store, filling
/// the wall-clock budget, then a close-and-reopen of the last store.
pub fn run_untraced(workload: &GroundWorkload, args: &RunArgs<'_>, checks: &mut Checks) -> Metrics {
    let wanted = epoch_count(args.seconds, EPOCH_S);
    let mut setups = Vec::new();
    let spare = args.out.join(format!("{}-spare", args.tag));
    for _ in 0..SETUPS {
        if let Some(setup) = open(workload, &spare, checks) {
            setups.push(setup.seconds);
        }
        let _ = std::fs::remove_dir_all(&spare);
    }
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut last = None;
    let mut n = 0;
    loop {
        let dir = args.out.join(format!("{}-{n}", args.tag));
        n += 1;
        let Some(Setup {
            service,
            seconds,
            seeded,
        }) = open(workload, &dir, checks)
        else {
            break;
        };
        setups.push(seconds);
        let mut lanes = [Lane::new(&service, None)];
        run_epoch(workload, &mut lanes, seeded, checks);
        let [Lane { epoch, .. }] = lanes;
        if let Some(first) = epochs.first() {
            checks.expect(epoch.passes == first.passes, || {
                "a repeated epoch planned the uplink differently".to_owned()
            });
        }
        epochs.push(epoch);
        if epochs.len() == wanted {
            last = Some((service, dir));
            break;
        }
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut storage_kib = 0.0;
    if let Some((service, dir)) = last {
        storage_kib = service.peak_cache_bytes() as f64 / 1024.0;
        let entries = service.store().len();
        let config = service.config().clone();
        service.sync();
        // One close-and-reopen, as an output check; the traced run times
        // them.
        let (_, reopened) = restart_cycles(&config, move || drop(service), entries, 1, checks);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut m = Metrics::default();
    let Some(first) = epochs.first() else {
        return m;
    };
    let downlink_s: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.downlink_s.iter().copied())
        .collect();
    let pass_s: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.pass_s.iter().copied())
        .collect();
    let busy: f64 = epochs.iter().map(|e| e.system_s).sum();
    let captures: u64 = epochs.iter().map(|e| e.captures).sum();
    let ingest_rates: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.ingest_rates.iter().copied())
        .collect();
    eprintln!(
        "{}: {} epochs; latency samples: {} days' downlinks of {} captures, {} passes",
        args.tag,
        epochs.len(),
        downlink_s.len(),
        captures,
        pass_s.len(),
    );
    m.put("setup_s", median(&setups), "s");
    m.put(
        "capture_mpix_per_s",
        ratio(captures as f64 * workload.capture_mpix(), busy),
        "MPix/s",
    );
    m.put(
        "capture_ms_p50",
        1e3 * smoothed_quantile(&downlink_s, 0.5),
        "ms",
    );
    m.put(
        "capture_ms_p90",
        1e3 * smoothed_quantile(&downlink_s, 0.9),
        "ms",
    );
    m.put("pass_ms_p50", 1e3 * smoothed_quantile(&pass_s, 0.5), "ms");
    m.put("pass_ms_p90", 1e3 * smoothed_quantile(&pass_s, 0.9), "ms");
    m.put(
        "downlink_kib_per_capture",
        ratio(first.reference_bytes as f64 / 1024.0, first.captures as f64),
        "KiB",
    );
    checks.expect(first.served_px > 0, || {
        "no reference was served back to a satellite".to_owned()
    });
    let mse = ratio(first.served_sq_err, first.served_px as f64);
    m.put("psnr_db", psnr_from_mse(mse), "dB");
    m.put("onboard_storage_kib", storage_kib, "KiB");
    m.put("ingest_refs_per_s", median(&ingest_rates), "1/s");
    m
}

/// The traced run: an untraced and a traced system run the same rounds in
/// lockstep, each on its own fresh store; the traced one's uplink reports
/// must equal the untraced one's.
pub fn run_traced(workload: &GroundWorkload, args: &RunArgs<'_>, checks: &mut Checks) -> Metrics {
    let (dir0, dir1) = (
        args.out.join(format!("{}-0", args.tag)),
        args.out.join(format!("{}-1", args.tag)),
    );
    let (Some(plain), Some(traced)) =
        (open(workload, &dir0, checks), open(workload, &dir1, checks))
    else {
        return Metrics::default();
    };
    let (plain, service, seeded) = (plain.service, traced.service, traced.seeded);
    let mut spans = Spans::default();
    let mut lanes = [
        Lane::new(&plain, None),
        Lane::new(&service, Some(&mut spans)),
    ];
    run_epoch(workload, &mut lanes, seeded, checks);
    let [Lane { epoch: truth, .. }, Lane { epoch: traced, .. }] = lanes;
    let untraced_s = truth.system_s;
    drop(plain);
    let _ = std::fs::remove_dir_all(&dir0);
    checks.expect(traced.passes.len() == truth.passes.len(), || {
        "traced and untraced runs planned different numbers of passes".to_owned()
    });
    for (n, (a, b)) in traced.passes.iter().zip(&truth.passes).enumerate() {
        checks.call();
        checks.expect(a == b, || {
            format!("pass {n}: traced run planned a different uplink")
        });
    }

    let mut layers = PerLayer::from_spans(&spans);
    layers.contacts = workload
        .rounds
        .iter()
        .map(|r| r.contacts.len() as u64)
        .sum();
    layers.read_ground(
        &service.stats(),
        service.stations().map(|s| s.stats()).as_ref(),
        &service
            .telemetry()
            .registry()
            .expect("the ground service always keeps a registry")
            .snapshot(),
    );
    layers.capture_samples = traced.captures;
    layers.pass_samples = traced.passes.len() as u64;
    layers.trace_overhead_share = ratio(layers.system_s - untraced_s, untraced_s);

    let entries = service.store().len();
    let config = service.config().clone();
    service.sync();
    let (replays, reopened) =
        restart_cycles(&config, move || drop(service), entries, RESTARTS, checks);
    let recovery = reopened
        .as_ref()
        .and_then(|s| s.recovery_report().copied())
        .unwrap_or_default();
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir1);
    layers.replay_s = median(&replays);
    layers.records_replayed = recovery.live_records + recovery.superseded_records;
    let shares: Vec<String> = spans
        .shares()
        .iter()
        .map(|(name, share)| format!("{name} {:.1}%", 100.0 * share))
        .collect();
    eprintln!("{}: traced layer shares: {}", args.tag, shares.join(", "));
    if let Err(e) = spans.write_tsv(&args.out.join(format!("{}-spans.tsv", args.tag))) {
        eprintln!("span dump not written: {e}");
    }
    layers.to_metrics()
}
