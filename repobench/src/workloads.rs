//! The four workloads, each with an untraced run (end-to-end metrics)
//! and a traced run (per-layer metrics).
//!
//! - `lab_default`: the reference configuration (`small_lab` with TLS
//!   inspection, a decoy, the intel loop and a wave, interactive
//!   escalation and the worm) through the inline streamed pipeline.
//! - `lab_parallel`: the same deployment with producers = shards =
//!   `nproc`, without the fleet-wide worm and wave, so the partitioner
//!   can split the plan and the keyed merge and batched fan-out work.
//! - `sensor_replay`: `lab_default`'s capture, produced once in set-up,
//!   replayed through the monitor alone.
//! - `campus_service`: the always-on service on the campus deployment,
//!   epoch after epoch, with cadence checkpoints, a final checkpoint and
//!   a crash-resume from the last mid-epoch checkpoint.

use crate::calib::Gauge;
use crate::gen::{self, Campaigns};
use crate::metrics::{median, tail, Outcome, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::traced::{self, Produced, Sample, PRODUCER_SALT};
use ja_attackgen::AttackClass;
use ja_core::intel::{IntelConfig, WaveSpec};
use ja_core::metrics::{score, Scoreboard};
use ja_core::pipeline::{CampaignPlan, InteractiveScenario, Pipeline, PipelineConfig, RunOutcome};
use ja_core::report::Report;
use ja_core::{QueueSource, ServiceConfig, SocService};
use ja_crypto::sha256::sha256_hex;
use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
use ja_monitor::rules::RuleFeed;
use ja_monitor::{Monitor, MonitorConfig};
use ja_netsim::rng::split_seed;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Production servers of the lab deployment (plus one decoy).
const LAB_SERVERS: usize = 16;
/// Set-up runs at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
/// Epochs of one campus service session. Each session ends in one
/// resume, so short sessions give `resume_s` many samples per run.
const CAMPUS_EPOCHS: u64 = 4;
/// Checkpoint writes timed per campus session.
const CHECKPOINT_WRITES: usize = 8;
/// Report writes and reads per one-shot operation; a single one is too
/// short to time steadily, so they are timed together.
const REPORT_ROUND_TRIPS: usize = 64;
/// Seed of the campus site: which servers are misconfigured, whose
/// credentials are weak, and the service's per-epoch streams and waves.
const CAMPUS_SITE: u64 = 7;
/// Scenario items between the service's mid-epoch checkpoints.
const CAMPUS_CADENCE: u64 = 2048;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The reference pipeline configuration, inline.
    LabDefault,
    /// The lab with parallel producers and sharded monitor.
    LabParallel,
    /// The monitor alone over a captured lab run.
    SensorReplay,
    /// The always-on service on the campus deployment.
    CampusService,
}

impl Workload {
    /// Every workload with its command-line name.
    pub const ALL: [(&'static str, Workload); 4] = [
        ("lab_default", Workload::LabDefault),
        ("lab_parallel", Workload::LabParallel),
        ("sensor_replay", Workload::SensorReplay),
        ("campus_service", Workload::CampusService),
    ];

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }
}

/// A parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Worker threads the parallel workload may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run the workload and return its outcome, every metric of the
/// matching registry set.
pub fn run(args: &Args) -> Outcome {
    let mut gauge = Gauge::new();
    let mut out = match args.workload {
        Workload::LabDefault => lab(args, &mut gauge, false),
        Workload::LabParallel => lab(args, &mut gauge, true),
        Workload::SensorReplay => sensor(args, &mut gauge),
        Workload::CampusService => campus(args, &mut gauge),
    };
    if !args.trace {
        println!("{}", gauge.summary());
    }
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    for m in registry {
        // Layers a workload does not exercise read 0.
        out.values.entry(m.name).or_insert(0.0);
    }
    out
}

/// Time `build` repeatedly and check the generator: every repeat must
/// give the same digest, and the next seed another one. The time is the
/// median repeat, at the reference speed.
fn setup<T>(gauge: &mut Gauge, seed: u64, build: impl Fn(u64) -> (T, u64)) -> (T, f64, bool) {
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut built = None;
    let deadline = Deadline::after(SETUP_SECONDS);
    while times.len() < SETUP_REPEATS || !deadline.passed() {
        let ((value, digest), secs) = gauge.time(|| build(seed));
        times.push(secs);
        digests.push(digest);
        built = Some(value);
    }
    let other = build(seed.wrapping_add(1)).1;
    let ok = digests.iter().all(|&d| d == digests[0]) && other != digests[0];
    if !ok {
        eprintln!("generator self-check failed: digests {digests:x?}, next seed {other:x}");
    }
    (built.expect("set-up ran"), median(&times), ok)
}

/// Samples the process's resident set while an operation runs.
struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl RssSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = rss_bytes();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
                peak = peak.max(rss_bytes());
            }
            peak.max(rss_bytes())
        });
        RssSampler { stop, handle }
    }

    /// Stop sampling; the high-water mark in MB.
    fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.handle.join().expect("RSS sampler thread panicked");
        peak as f64 / (1024.0 * 1024.0)
    }
}

/// Give the heap's free memory back to the system, so that the next
/// peak counts what an operation holds, not what earlier ones left.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointer and only releases
    // free heap pages; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Peak resident memory of `op`, in MB, run once untimed from a
/// trimmed heap. Run it right after set-up: later runs start from a heap
/// the allocator has fragmented, by an amount that varies from run to
/// run when threads allocate.
fn peak_rss_mb(op: impl FnOnce()) -> f64 {
    trim_heap();
    let sampler = RssSampler::start();
    op();
    sampler.stop()
}

/// Resident bytes of this process (Linux `statm`, 4 KiB pages).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// The measured section's clock: run at least once, then until
/// `seconds` have passed.
struct Deadline(Instant);

impl Deadline {
    fn after(seconds: f64) -> Self {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds))
    }

    fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Per-operation times of an untraced run, at the reference speed.
#[derive(Default)]
struct Timings {
    ops: Vec<f64>,
    rates: Vec<f64>,
    checkpoint: Vec<f64>,
    resume: Vec<f64>,
}

impl Timings {
    /// Record one operation that analysed `segments` in `secs`.
    fn op(&mut self, secs: f64, segments: u64) {
        self.ops.push(secs);
        self.rates.push(segments as f64 / secs);
    }

    /// Fill the timing half of the end-to-end metrics: medians over the
    /// run's operations, and the tail.
    fn finish(&self, out: &mut Outcome, peak_rss_mb: f64) {
        out.set("segments_per_s", median(&self.rates));
        out.set("peak_rss_mb", peak_rss_mb);
        out.set("epoch_p50_s", median(&self.ops));
        let n = self.ops.len();
        let (value, note) = tail(&self.ops).map_or_else(
            || {
                let max = self.ops.iter().copied().fold(0.0, f64::max);
                (max, "too few for ten beyond it; the maximum".to_string())
            },
            |t| (t.value, format!("p{:.1}, ten beyond it", t.percentile)),
        );
        println!("epoch_tail_s over {n} operations: {note}");
        out.set("epoch_tail_s", value);
        out.set("checkpoint_s", median(&self.checkpoint));
        out.set("resume_s", median(&self.resume));
    }
}

/// Detection quality of a scored run.
fn quality(out: &mut Outcome, board: &Scoreboard) {
    let detected: usize = board.classes.iter().map(|(_, s)| s.detected).sum();
    let latency: f64 = board
        .classes
        .iter()
        .map(|(_, s)| s.mean_latency_secs * s.detected as f64)
        .sum();
    out.set("macro_recall", board.macro_recall());
    out.set("false_positives", board.total_fp() as f64);
    out.set(
        "detect_latency_s",
        if detected == 0 {
            0.0
        } else {
            latency / detected as f64
        },
    );
}

/// Write a run's report as JSON, as a service checkpoint embeds it, and
/// read it back, [`REPORT_ROUND_TRIPS`] times each. The writes are timed
/// as one interval and so are the reads, and each records its mean.
/// Returns whether every read gave the report back.
///
/// This is a stand-in for `checkpoint_s` and `resume_s` on the one-shot
/// workloads, which have no service state: no program path writes or
/// reads this JSON there.
fn report_round_trip(report: &Report, timings: &mut Timings, gauge: &mut Gauge) -> bool {
    let n = REPORT_ROUND_TRIPS;
    let (json, secs) = gauge.time(|| {
        let mut json = String::new();
        for _ in 0..n {
            json = black_box(serde_json::to_string(report).expect("report serializes"));
        }
        json
    });
    timings.checkpoint.push(secs / n as f64);
    let (read, secs) = gauge.time(|| {
        (0..n)
            .map(|_| serde_json::from_str(black_box(&json)))
            .collect::<Vec<Result<Report, _>>>()
    });
    timings.resume.push(secs / n as f64);
    let want = traced::alert_digest(&report.alerts);
    read.iter().all(|back| {
        back.as_ref()
            .is_ok_and(|b| traced::alert_digest(&b.alerts) == want)
    })
}

/// The lab pipeline configuration. `parallel` runs `nproc` producers
/// and shards; otherwise one of each.
fn lab_config(seed: u64, parallel: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment.servers = LAB_SERVERS;
    cfg.deployment.decoys = 1;
    cfg.intel = Some(IntelConfig::default());
    let width = if parallel { nproc() } else { 1 };
    cfg.producers = Some(width);
    cfg.shards = Some(width);
    cfg
}

/// The lab's campaign list: benign sessions, scripted attacks, hard
/// negatives and interactive escalation; the full lab adds the worm
/// and one wave.
fn lab_campaigns(cfg: &PipelineConfig, seed: u64, full: bool) -> (Campaigns, u64) {
    let deployment = Deployment::build(&cfg.deployment);
    let mut interactive = vec![InteractiveScenario::Escalation];
    if full {
        interactive.push(InteractiveScenario::Worm);
    }
    let plan = gen::lab_plan(seed, interactive);
    let mut list = gen::campaigns(&deployment, &plan);
    list.extend(gen::hard_negatives(&deployment, &plan));
    if full {
        let intel = cfg.intel.clone().unwrap_or_default();
        list.push(gen::wave(&deployment, &intel, &plan));
    }
    let digest = gen::digest(&list);
    (list, digest)
}

/// One pipeline run, from building the pipeline to its outcome.
fn pipeline_run(
    cfg: &PipelineConfig,
    campaigns: Campaigns,
    seed: u64,
    parallel: bool,
) -> RunOutcome {
    let mut pipeline = Pipeline::new(cfg.clone());
    if parallel {
        pipeline.run_campaigns_streamed_parallel(campaigns, seed)
    } else {
        pipeline.run_campaigns_streamed(campaigns, seed)
    }
}

fn lab(args: &Args, gauge: &mut Gauge, parallel: bool) -> Outcome {
    let seed = args.seed;
    let cfg = lab_config(seed, parallel);
    let (campaigns, setup_s, generator_ok) = setup(gauge, seed, |s| {
        lab_campaigns(&lab_config(s, parallel), s, !parallel)
    });
    let mut out = Outcome::new();
    out.checks_passed = generator_ok;
    if args.trace {
        lab_traced(args, &cfg, &campaigns, parallel, &mut out);
        return out;
    }
    out.set("setup_s", setup_s);
    // lab_parallel must match the inline path on the same input.
    let mut expect = parallel.then(|| {
        let inline = lab_config(seed, false);
        let run = pipeline_run(&inline, campaigns.clone(), seed, false);
        traced::alert_digest(&run.report.alerts)
    });
    let peak = peak_rss_mb(|| {
        black_box(pipeline_run(&cfg, campaigns.clone(), seed, parallel));
    });
    let mut timings = Timings::default();
    let deadline = Deadline::after(args.seconds);
    loop {
        let input = campaigns.clone();
        let (run, secs) = gauge.time(|| pipeline_run(&cfg, input, seed, parallel));
        let digest = traced::alert_digest(&run.report.alerts);
        let same = report_round_trip(&run.report, &mut timings, gauge);
        out.op(*expect.get_or_insert(digest) == digest && same);
        timings.op(secs, run.monitor_stats.segments);
        if !out.values.contains_key("macro_recall") {
            if let Some(board) = &run.report.scoreboard {
                quality(&mut out, board);
            }
        }
        if deadline.passed() {
            break;
        }
    }
    timings.finish(&mut out, peak);
    out
}

fn lab_traced(
    args: &Args,
    cfg: &PipelineConfig,
    campaigns: &Campaigns,
    parallel: bool,
    out: &mut Outcome,
) {
    let mut samples = Vec::new();
    let (mut untraced, mut traced_total) = (Vec::new(), Vec::new());
    let deadline = Deadline::after(args.seconds);
    loop {
        let input = campaigns.clone();
        let t = Instant::now();
        let run = pipeline_run(cfg, input, args.seed, parallel);
        let secs = t.elapsed().as_secs_f64();
        // Signatures the run's intel loop learned, published up front:
        // availability gating makes them match exactly the flows they
        // matched live.
        let feed = RuleFeed::new();
        for p in run.intel.iter().flat_map(|i| &i.published) {
            feed.publish(p.available_at, p.rule.clone());
        }
        let replica = traced::pipeline(cfg, campaigns, args.seed ^ PRODUCER_SALT, feed);
        out.op(replica.segments == run.monitor_stats.segments
            && replica.campaigns == run.scenario.ground_truth.len()
            && replica.alert_digest == traced::alert_digest(&run.report.alerts));
        untraced.push(secs);
        traced_total.push(replica.total_s);
        samples.push(replica.sample);
        if deadline.passed() {
            break;
        }
    }
    finish_layers(out, &samples, median(&traced_total) / median(&untraced));
}

/// Per-layer metrics: the median of each value over the traced passes.
fn finish_layers(out: &mut Outcome, samples: &[Sample], trace_overhead: f64) {
    for m in PER_LAYER {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(m.name).copied())
            .collect();
        if !values.is_empty() {
            out.set(m.name, median(&values));
        }
    }
    out.set("trace_overhead", trace_overhead);
}

/// What the sensor replays: the lab run's capture and labels.
struct SensorInput {
    mcfg: MonitorConfig,
    produced: Produced,
    deployment: Deployment,
    /// Producer-side layer times of the set-up that made the capture.
    setup_layers: Sample,
}

fn sensor_input(seed: u64) -> (SensorInput, u64) {
    let cfg = lab_config(seed, false);
    let (campaigns, digest) = lab_campaigns(&cfg, seed, true);
    let mut sp = Spans::default();
    let mut deployment = sp.time("kernelsim.deployment_build", || {
        Deployment::build(&cfg.deployment)
    });
    let produced = traced::produce(&mut sp, &mut deployment, campaigns, seed ^ PRODUCER_SALT, 1);
    let mcfg = traced::fleet_monitor_config(&deployment, &cfg, RuleFeed::new());
    let totals = sp.totals();
    let setup_layers = Sample::from([
        (
            "kernelsim.deployment_build_s",
            totals["kernelsim.deployment_build"],
        ),
        ("attackgen.produce_s", totals["attackgen.produce"]),
        ("attackgen.items", produced.items() as f64),
        ("attackgen.segments", produced.segments.len() as f64),
        ("attackgen.sys_events", produced.sys.len() as f64),
        ("attackgen.auth_events", produced.auth.len() as f64),
        ("attackgen.peak_pending", produced.peak_pending as f64),
        ("attackgen.producer_groups", 1.0),
        ("attackgen.largest_group_share", 1.0),
    ]);
    let digest = gen::fnv(format!("{digest:x}/{}", produced.items()).as_bytes());
    let input = SensorInput {
        mcfg,
        produced,
        deployment,
        setup_layers,
    };
    (input, digest)
}

/// One sensor pass: the monitor alone over the captured segments.
fn sensor_run(input: &SensorInput) -> (Vec<ja_monitor::Alert>, ja_monitor::MonitorStats) {
    let monitor = Monitor::new(input.mcfg.clone());
    traced::monitor_stage(&monitor, 1, &input.produced.segments)
}

fn sensor(args: &Args, gauge: &mut Gauge) -> Outcome {
    let (input, setup_s, generator_ok) = setup(gauge, args.seed, sensor_input);
    let mut out = Outcome::new();
    out.checks_passed = generator_ok;
    if args.trace {
        sensor_traced(args, &input, &mut out);
        return out;
    }
    out.set("setup_s", setup_s);
    let scoring = lab_config(args.seed, false).scoring;
    let mut expect = None;
    let peak = peak_rss_mb(|| {
        black_box(sensor_run(&input));
    });
    let mut timings = Timings::default();
    let deadline = Deadline::after(args.seconds);
    loop {
        let ((alerts, stats), secs) = gauge.time(|| sensor_run(&input));
        let digest = traced::alert_digest(&alerts);
        let report = Report {
            alerts,
            ..Default::default()
        };
        let same = report_round_trip(&report, &mut timings, gauge);
        out.op(*expect.get_or_insert(digest) == digest
            && same
            && stats.segments == input.produced.segments.len() as u64);
        timings.op(secs, stats.segments);
        if !out.values.contains_key("macro_recall") {
            let board = score(&report.alerts, &input.produced.ground_truth, &scoring);
            quality(&mut out, &board);
        }
        if deadline.passed() {
            break;
        }
    }
    timings.finish(&mut out, peak);
    out
}

fn sensor_traced(args: &Args, input: &SensorInput, out: &mut Outcome) {
    let mut samples = Vec::new();
    let (mut untraced, mut traced_total) = (Vec::new(), Vec::new());
    let deadline = Deadline::after(args.seconds);
    loop {
        let t = Instant::now();
        let (alerts, _) = sensor_run(input);
        let secs = t.elapsed().as_secs_f64();
        let mut sp = Spans::default();
        let stage = sp.begin("monitor.stream");
        let monitor = Monitor::new(input.mcfg.clone());
        let (traced_alerts, stats) = traced::monitor_stage(&monitor, 1, &input.produced.segments);
        sp.end(stage);
        traced_total.push(sp.duration(stage));
        untraced.push(secs);
        out.op(
            traced::alert_digest(&traced_alerts) == traced::alert_digest(&alerts)
                && stats.segments == input.produced.segments.len() as u64,
        );
        let segments = &input.produced.segments;
        let mut sample = traced::replay(&mut sp, segments, &input.mcfg, &input.deployment);
        sample.extend(input.setup_layers.iter().map(|(&k, &v)| (k, v)));
        traced::finish_sample(&mut sample, &sp, &stats, segments, 1);
        samples.push(sample);
        if deadline.passed() {
            break;
        }
    }
    finish_layers(out, &samples, median(&traced_total) / median(&untraced));
}

/// The campus service: 24 servers with hygiene problems plus one decoy,
/// intel and a wave every epoch, one producer and one shard, cadence
/// checkpoints.
fn campus_config() -> ServiceConfig {
    let mut pipeline = PipelineConfig::campus(CAMPUS_SITE);
    pipeline.deployment = DeploymentSpec::campus(CAMPUS_SITE).with_decoys(1);
    pipeline.intel = Some(IntelConfig::default());
    pipeline.producers = Some(1);
    pipeline.shards = Some(1);
    let mut cfg = ServiceConfig::new(pipeline, CAMPUS_SITE);
    cfg.checkpoint_items = Some(CAMPUS_CADENCE);
    cfg.wave = Some(WaveSpec::default());
    cfg
}

/// The constant per-epoch plan: benign sessions, ransomware, a
/// credential attack and one interactive escalation. Mining comes from
/// the service's own wave; a scripted miner would overlap the wave in
/// time, and which of the two its alerts are credited to would depend
/// on the seed.
fn campus_plan(seed: u64) -> CampaignPlan {
    CampaignPlan {
        benign_sessions_per_server: 2,
        attacks: vec![AttackClass::Ransomware, AttackClass::AccountTakeover],
        interactive: vec![InteractiveScenario::Escalation],
        horizon_secs: 2 * 3600,
        stretch: 1.0,
        seed: split_seed(seed, 1),
    }
}

struct CampusInput {
    cfg: ServiceConfig,
    plan: CampaignPlan,
    source: QueueSource,
}

fn campus_input(seed: u64) -> (CampusInput, u64) {
    let cfg = campus_config();
    let plan = campus_plan(seed);
    let deployment = Deployment::build(&cfg.pipeline.deployment);
    let digest = gen::digest(&gen::service_epoch0(&deployment, &cfg, &plan));
    let source = QueueSource {
        plans: vec![plan.clone(); CAMPUS_EPOCHS as usize],
    };
    (CampusInput { cfg, plan, source }, digest)
}

/// What a session's epochs must reproduce: per epoch, the items, the
/// epoch's alerts and the lifetime segment count.
type EpochKey = (u64, u64, u64);

fn campus(args: &Args, gauge: &mut Gauge) -> Outcome {
    let (input, setup_s, generator_ok) = setup(gauge, args.seed, campus_input);
    let mut out = Outcome::new();
    out.checks_passed = generator_ok;
    if args.trace {
        campus_traced(args, &input, &mut out);
        return out;
    }
    out.set("setup_s", setup_s);
    let peak = peak_rss_mb(|| {
        let mut svc = SocService::new(input.cfg.clone());
        let ran = svc.run_epochs(&input.source, CAMPUS_EPOCHS).is_ok();
        let json = svc.checkpoint().to_json();
        black_box((ran, json, revive(&input, &last_checkpoint(&svc))));
    });
    let mut reference: Vec<EpochKey> = Vec::new();
    let mut timings = Timings::default();
    let deadline = Deadline::after(args.seconds);
    loop {
        let mut svc = SocService::new(input.cfg.clone());
        let mut keys = Vec::new();
        for _ in 0..CAMPUS_EPOCHS {
            let before = svc.stats().segments;
            let (epoch, secs) = gauge.time(|| svc.run_epoch(&input.source));
            let Ok(Some(summary)) = epoch else {
                out.op(false);
                break;
            };
            timings.op(secs, svc.stats().segments - before);
            let key = (summary.items, summary.alerts, svc.stats().segments);
            out.op(reference.get(keys.len()).map_or(true, |r| *r == key));
            keys.push(key);
        }
        if reference.is_empty() {
            reference = keys;
        }
        let ((), secs) = gauge.time(|| {
            for _ in 0..CHECKPOINT_WRITES {
                black_box(svc.checkpoint().to_json());
            }
        });
        timings.checkpoint.push(secs / CHECKPOINT_WRITES as f64);
        let json = last_checkpoint(&svc);
        let (twin, secs) = gauge.time(|| revive(&input, &json));
        timings.resume.push(secs);
        out.op(same_run(twin.as_ref(), &svc));
        if !out.values.contains_key("macro_recall") {
            if let Some(board) = &svc.report().scoreboard {
                quality(&mut out, board);
            }
        }
        if deadline.passed() {
            break;
        }
    }
    timings.finish(&mut out, peak);
    out
}

/// `svc`'s last mid-epoch checkpoint, serialized (empty if it has none,
/// which no restore accepts).
fn last_checkpoint(svc: &SocService) -> String {
    svc.last_checkpoint()
        .map(|c| c.to_json())
        .unwrap_or_default()
}

/// Crash at a checkpoint: restore a twin from `json` and replay to the
/// end of the session. `None` if either step fails.
fn revive(input: &CampusInput, json: &str) -> Option<SocService> {
    let mut twin = SocService::restore(input.cfg.clone(), json).ok()?;
    let left = CAMPUS_EPOCHS - twin.epoch();
    twin.run_epochs(&input.source, left).ok()?;
    Some(twin)
}

/// Whether a revived twin's alert stream and clock equal the
/// uninterrupted service's.
fn same_run(twin: Option<&SocService>, svc: &SocService) -> bool {
    twin.is_some_and(|twin| {
        traced::alert_digest(&twin.report().alerts) == traced::alert_digest(&svc.report().alerts)
            && twin.clock() == svc.clock()
    })
}

/// A traced service session: spans around each public service call,
/// the sealing hash and JSON parse replayed on the final checkpoint,
/// and a traced replica of epoch 0 for the layers inside an epoch.
fn campus_traced(args: &Args, input: &CampusInput, out: &mut Outcome) {
    let mut samples = Vec::new();
    let (mut untraced, mut traced_total) = (Vec::new(), Vec::new());
    let deadline = Deadline::after(args.seconds);
    loop {
        let t = Instant::now();
        let mut plain = SocService::new(input.cfg.clone());
        let ran = plain.run_epochs(&input.source, CAMPUS_EPOCHS).is_ok();
        black_box(plain.checkpoint().to_json());
        let resumed = same_run(revive(input, &last_checkpoint(&plain)).as_ref(), &plain);
        untraced.push(t.elapsed().as_secs_f64());

        let mut sp = Spans::default();
        let root = sp.begin("session");
        let mut svc = SocService::new(input.cfg.clone());
        let mut epoch0 = None;
        for _ in 0..CAMPUS_EPOCHS {
            let summary = sp.time("core.epoch", || svc.run_epoch(&input.source));
            if epoch0.is_none() {
                let summary = summary.ok().flatten();
                let feed = svc
                    .checkpoint()
                    .intel
                    .map_or_else(RuleFeed::new, |i| RuleFeed::restore(&i.feed));
                let alerts = traced::alert_digest(&svc.report().alerts);
                epoch0 = Some((summary.map(|s| s.items), svc.stats().segments, alerts, feed));
            }
        }
        let json = sp.time("core.checkpoint", || svc.checkpoint().to_json());
        let last = last_checkpoint(&svc);
        let revived = sp.time("core.restore", || {
            SocService::restore(input.cfg.clone(), &last)
        });
        let replayed = sp.time("core.replay", || {
            revived.ok().and_then(|mut twin| {
                let left = CAMPUS_EPOCHS - twin.epoch();
                twin.run_epochs(&input.source, left).ok()?;
                Some(twin)
            })
        });
        sp.end(root);
        traced_total.push(sp.duration(root));
        black_box(sp.time("crypto.sha256", || sha256_hex(json.as_bytes())));
        black_box(sp.time("json.parse", || {
            serde_json::from_str::<serde_json::Value>(&json).is_ok()
        }));
        let same = replayed.as_ref().is_some_and(|twin| {
            traced::alert_digest(&twin.report().alerts)
                == traced::alert_digest(&svc.report().alerts)
        });

        let (items0, segments0, alerts0, feed) = epoch0.expect("epoch 0 ran");
        let deployment = Deployment::build(&input.cfg.pipeline.deployment);
        let campaigns = gen::service_epoch0(&deployment, &input.cfg, &input.plan);
        let stream_seed = split_seed(input.cfg.seed, 0) ^ PRODUCER_SALT;
        let replica = traced::pipeline(&input.cfg.pipeline, &campaigns, stream_seed, feed);
        out.op(ran && resumed && same);
        out.op(Some(replica.items as u64) == items0
            && replica.segments == segments0
            && replica.alert_digest == alerts0);

        let session = sp.totals();
        let mut sample = replica.sample;
        *sample.entry("json.parse_s").or_insert(0.0) += session["json.parse"];
        sample.insert("crypto.sha256_s", session["crypto.sha256"]);
        sample.insert("core.restore_s", session["core.restore"]);
        sample.insert("core.checkpoint_bytes", json.len() as f64);
        sample.insert(
            "core.replayed_items",
            replayed.map_or(0, |twin| twin.stats().replayed_items) as f64,
        );
        samples.push(sample);
        if deadline.passed() {
            break;
        }
    }
    finish_layers(out, &samples, median(&traced_total) / median(&untraced));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_prints_every_metric_and_passes_its_checks() {
        for (name, workload) in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 3,
                    seconds: 0.01,
                    trace,
                };
                let out = run(&args);
                assert!(out.attempted > 0, "{name} trace={trace}");
                assert_eq!(out.failed, 0, "{name} trace={trace}");
                assert!(out.checks_passed, "{name} trace={trace}");
                let registry = if trace { PER_LAYER } else { END_TO_END };
                let line = out.render(registry);
                let json: serde_json::Value = serde_json::from_str(&line).expect("result parses");
                assert_eq!(
                    json["correct"].as_bool(),
                    Some(true),
                    "{name} trace={trace}"
                );
                for m in registry {
                    let v = json["metrics"][m.name]["value"].as_f64();
                    assert!(v.is_some(), "{name} trace={trace}: {}", m.name);
                }
                if !trace {
                    for m in END_TO_END {
                        assert!(out.values[m.name] > 0.0, "{name}: {} is 0", m.name);
                    }
                }
            }
        }
    }
}
