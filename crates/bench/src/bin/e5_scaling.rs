//! E5 — the paper's scalability lesson: "network traffic will keep
//! increasing, and a security auditor may add unsustainable performance
//! overhead … one must harness the power of supercomputers". We sweep
//! offered load and compare four *monitor-only* configurations over a
//! captured trace, none with TLS inspection: one engine, one shard
//! worker per rayon thread, a fixed-width sharded run, and the online
//! streaming engine (bounded memory, per-close eviction). Then the
//! end-to-end pipeline (generation pumped straight into the monitor,
//! TLS inspection on) is timed on one plan, and swept over producer =
//! shard thread counts.
//!
//! `--tiny` restricts the sweep to the smallest workload (CI smoke).
//! `--json` additionally writes machine-readable `BENCH_E5.json` so the
//! perf trajectory is tracked across PRs.

use ja_attackgen::AttackClass;
use ja_core::pipeline::{CampaignPlan, Pipeline, PipelineConfig};
use ja_kernelsim::deployment::DeploymentSpec;
use ja_monitor::engine::{Monitor, MonitorConfig};
use ja_monitor::streaming::{StreamingConfig, StreamingMonitor};

/// The whole `BENCH_E5.json` payload. Non-finite throughputs/speedups
/// are reported as `null` (`None`).
#[derive(serde::Serialize)]
struct BenchReport {
    seed: u64,
    tiny: bool,
    rayon_threads: usize,
    monitor_only: MonitorOnly,
    end_to_end: EndToEnd,
    thread_sweep: Vec<ThreadSweepRow>,
}

/// The monitor-path sweep: the monitor alone over a captured trace with
/// `MonitorConfig::default` (no TLS inspection), which is not what the
/// pipeline runs.
#[derive(serde::Serialize)]
struct MonitorOnly {
    label: &'static str,
    rows: Vec<WorkloadRow>,
}

/// One row of the monitor-path sweep, for the JSON report.
#[derive(serde::Serialize)]
struct WorkloadRow {
    servers: usize,
    sessions: usize,
    shards: usize,
    segments: u64,
    bytes: u64,
    throughput: Throughput,
    parallel_speedup: Option<f64>,
    streaming_peak_live_flows: u64,
}

/// Segments/second of each monitor path.
#[derive(serde::Serialize)]
struct Throughput {
    sequential: Option<f64>,
    parallel: Option<f64>,
    sharded: Option<f64>,
    streaming: Option<f64>,
}

/// The end-to-end pipeline run, for the JSON report.
#[derive(serde::Serialize)]
struct EndToEnd {
    servers: usize,
    sessions: usize,
    shards: usize,
    segments: u64,
    wall_secs: Option<f64>,
    segments_per_sec: Option<f64>,
    peak_live_flows: u64,
}

/// One point of the end-to-end thread sweep: both pipeline ends fanned
/// out with producers = shards = `threads`.
#[derive(serde::Serialize)]
struct ThreadSweepRow {
    threads: usize,
    wall_secs: Option<f64>,
    segments_per_sec: Option<f64>,
    speedup_vs_single: Option<f64>,
}

/// `None` for non-finite values so the JSON carries `null`, never
/// `NaN`/`inf`.
fn finite(x: f64) -> Option<f64> {
    x.is_finite().then_some(x)
}

fn e2e_config(servers: usize, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment = DeploymentSpec {
        servers,
        misconfig_rate: 0.0,
        weak_cred_fraction: 0.1,
        breached_cred_fraction: 0.02,
        mfa_fraction: 0.8,
        decoys: 0,
        seed,
    };
    // The E5 configuration under test: generation overlaps per-shard
    // analysis threads, one per rayon thread.
    cfg.shards = Some(rayon::current_num_threads());
    cfg
}

fn e2e_plan(sessions: usize, seed: u64) -> CampaignPlan {
    CampaignPlan {
        benign_sessions_per_server: sessions,
        attacks: vec![AttackClass::DataExfiltration, AttackClass::Cryptomining],
        interactive: Vec::new(),
        horizon_secs: 4 * 3600,
        stretch: 1.0,
        seed,
    }
}

fn main() {
    let seed = ja_bench::seed_from_args();
    let tiny = ja_bench::flag_from_args("--tiny");
    let json = ja_bench::flag_from_args("--json");
    let reps = if tiny { 1 } else { 3 };
    println!("=== E5: monitor overhead vs offered traffic (seed {seed}) ===\n");
    println!("monitor-only sweep: captured trace, no TLS inspection\n");
    println!(
        "rayon threads available: {}\n",
        rayon::current_num_threads()
    );
    println!(
        "{:<16} {:>9} {:>8} {:>11} {:>11} {:>11} {:>11} {:>8} {:>10}",
        "workload",
        "segments",
        "MB",
        "seq (sg/s)",
        "par (sg/s)",
        "shrd (sg/s)",
        "strm (sg/s)",
        "speedup",
        "peak-live"
    );
    // Explicit shard count per sweep point: deriving it from the rayon
    // pool width made the "sharded" column meaningless on narrow
    // machines (a 1-wide pool collapsed every point to 1 shard) and let
    // the sweep silently stop varying anything.
    let workloads: &[(usize, usize, usize)] = if tiny {
        &[(2, 1, 2)]
    } else {
        &[(2, 1, 2), (4, 2, 2), (8, 3, 4), (16, 4, 4), (24, 6, 8)]
    };
    let mut rows: Vec<WorkloadRow> = Vec::new();
    for &(servers, sessions, shards) in workloads {
        let trace = ja_bench::scaled_trace(servers, sessions, seed);
        let s = trace.summary();
        let monitor = Monitor::new(MonitorConfig::default());
        // Warm + best-of-N to keep numbers stable in a shared VM.
        let seq_secs = ja_bench::best_of(reps, || {
            ja_bench::monitor_only(&monitor, &trace, 1).1.elapsed_secs
        });
        let par_secs = ja_bench::best_of(reps, || {
            let width = rayon::current_num_threads();
            ja_bench::monitor_only(&monitor, &trace, width)
                .1
                .elapsed_secs
        });
        let sharded_secs = ja_bench::best_of(reps, || {
            ja_bench::monitor_only(&monitor, &trace, shards)
                .1
                .elapsed_secs
        });
        let mut peak_live = 0u64;
        let stream_secs = ja_bench::best_of(reps, || {
            let mut sm = StreamingMonitor::new(&monitor, StreamingConfig::online());
            for r in trace.records() {
                sm.push(r);
            }
            let (_, st) = sm.finish();
            peak_live = st.peak_live_flows;
            st.elapsed_secs
        });
        let tput = |secs: f64| s.segments as f64 / secs;
        // Speedup guards only against a zero denominator — sub-1 seg/s
        // throughputs must not be silently clamped.
        let speedup = if seq_secs > 0.0 && par_secs > 0.0 {
            tput(par_secs) / tput(seq_secs)
        } else {
            f64::NAN
        };
        println!(
            "{:<16} {:>9} {:>8.1} {:>11.0} {:>11.0} {:>11.0} {:>11.0} {:>7.2}x {:>10}",
            format!("{servers} srv x {sessions}"),
            s.segments,
            s.bytes as f64 / 1e6,
            tput(seq_secs),
            tput(par_secs),
            tput(sharded_secs),
            tput(stream_secs),
            speedup,
            peak_live,
        );
        rows.push(WorkloadRow {
            servers,
            sessions,
            shards,
            segments: s.segments,
            bytes: s.bytes,
            throughput: Throughput {
                sequential: finite(tput(seq_secs)),
                parallel: finite(tput(par_secs)),
                sharded: finite(tput(sharded_secs)),
                streaming: finite(tput(stream_secs)),
            },
            parallel_speedup: finite(speedup),
            streaming_peak_live_flows: peak_live,
        });
    }
    println!("\n(speedup = par/seq throughput, par = one shard worker per rayon thread; > 1 means");
    println!(
        " sharding wins. shrd = explicit per-point shard width; strm = online streaming engine"
    );
    println!(" whose peak-live column shows its bounded flow-table high-water mark.)");

    // End-to-end: the pipeline as configured, generation overlapped
    // with sharded analysis and TLS inspection on.
    let (servers, sessions) = if tiny { (2, 1) } else { (16, 4) };
    let e2e_shards = rayon::current_num_threads();
    println!("\n=== end-to-end pipeline ({servers} srv x {sessions}, {e2e_shards} shards) ===\n");
    let e2e_reps = if tiny { 3 } else { reps.max(13) };
    let mut peak_live = 0u64;
    let mut segments = 0u64;
    let wall_secs = ja_bench::best_of(e2e_reps, || {
        let mut p = Pipeline::new(e2e_config(servers, seed));
        let started = std::time::Instant::now();
        let out = p.run(&e2e_plan(sessions, seed));
        let secs = started.elapsed().as_secs_f64();
        peak_live = out.monitor_stats.peak_live_flows;
        segments = out.monitor_stats.segments;
        secs
    });
    let e2e_tput = segments as f64 / wall_secs;
    println!("{:>12} {:>12} {:>14}", "wall (s)", "sg/s", "peak-live");
    println!("{wall_secs:>12.3} {e2e_tput:>12.0} {peak_live:>14}");

    // Thread sweep: the fully fanned-out pipeline with producers =
    // shards = t.
    // Output is bit-identical at every point (pinned by the ja-core
    // equivalence proptests); only wall clock may move.
    println!(
        "\n=== thread sweep: parallel producers + batched shard fan-out ({servers} srv x {sessions}) ===\n"
    );
    let thread_counts: &[usize] = if tiny { &[1, 2] } else { &[1, 2, 4, 8] };
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "threads", "wall (s)", "sg/s", "speedup"
    );
    let mut sweep: Vec<ThreadSweepRow> = Vec::new();
    let mut single_secs: Option<f64> = None;
    for &t in thread_counts {
        let secs = ja_bench::best_of(e2e_reps, || {
            let mut cfg = e2e_config(servers, seed);
            cfg.shards = Some(t);
            cfg.producers = Some(t);
            let mut p = Pipeline::new(cfg);
            let started = std::time::Instant::now();
            let _ = p.run(&e2e_plan(sessions, seed));
            started.elapsed().as_secs_f64()
        });
        if t == 1 {
            single_secs = Some(secs);
        }
        let speedup = single_secs.map_or(f64::NAN, |s1| s1 / secs);
        println!(
            "{:<8} {:>12.3} {:>12.0} {:>9.2}x",
            t,
            secs,
            segments as f64 / secs,
            speedup
        );
        sweep.push(ThreadSweepRow {
            threads: t,
            wall_secs: finite(secs),
            segments_per_sec: finite(segments as f64 / secs),
            speedup_vs_single: finite(speedup),
        });
    }
    // The sweep must actually vary the thread count — the regression
    // this guards against is a pool-width derivation collapsing every
    // point to the same effective width.
    let distinct: std::collections::HashSet<usize> = sweep.iter().map(|r| r.threads).collect();
    assert!(
        distinct.len() > 1,
        "thread sweep must cover more than one thread count, got {distinct:?}"
    );
    println!("\n(producers = shards = threads; speedup vs the 1-thread point. On a 1-core host");
    println!(" expect ~1.0x or below — the sweep then measures fan-out overhead, not gains.)");

    if json {
        let report = BenchReport {
            seed,
            tiny,
            rayon_threads: rayon::current_num_threads(),
            monitor_only: MonitorOnly {
                label: "monitor-only, no inspection",
                rows,
            },
            end_to_end: EndToEnd {
                servers,
                sessions,
                shards: e2e_shards,
                segments,
                wall_secs: finite(wall_secs),
                segments_per_sec: finite(e2e_tput),
                peak_live_flows: peak_live,
            },
            thread_sweep: sweep,
        };
        let out = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write("BENCH_E5.json", &out).expect("write BENCH_E5.json");
        println!("\nwrote BENCH_E5.json");
    }
}
