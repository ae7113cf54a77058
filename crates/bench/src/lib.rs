//! # ja-bench — experiment harness
//!
//! One binary per paper artifact/claim (see DESIGN.md §3 and
//! EXPERIMENTS.md) plus criterion micro-benchmarks. This library holds
//! the shared plumbing: seed handling and scenario/trace builders used
//! by several binaries and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ja_attackgen::mixer::{run_scenario, ScenarioSpec};
use ja_attackgen::AttackClass;
use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
use ja_monitor::alerts::Alert;
use ja_monitor::engine::{Monitor, MonitorStats};
use ja_monitor::streaming::StreamingConfig;
use ja_netsim::trace::Trace;

/// Read `--seed N` from argv, defaulting to 42 so published numbers
/// reproduce bit-for-bit.
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Is a bare flag (e.g. `--tiny`) present in argv? CI smoke runs use
/// this to shrink a sweep to one small workload.
pub fn flag_from_args(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Best (minimum) of `n` timed runs — benches use this to keep numbers
/// stable on shared VMs.
pub fn best_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n.max(1)).map(|_| f()).fold(f64::MAX, f64::min)
}

/// Build a mixed-scenario trace of roughly increasing size by scaling
/// benign sessions (the E5/E10 load generator).
pub fn scaled_trace(servers: usize, sessions_per_server: usize, seed: u64) -> Trace {
    let spec = DeploymentSpec {
        servers,
        misconfig_rate: 0.0,
        weak_cred_fraction: 0.1,
        breached_cred_fraction: 0.02,
        mfa_fraction: 0.8,
        decoys: 0,
        seed,
    };
    let mut d = Deployment::build(&spec);
    let out = run_scenario(
        &mut d,
        &ScenarioSpec {
            benign_sessions_per_server: sessions_per_server,
            attacks: vec![AttackClass::DataExfiltration, AttackClass::Cryptomining],
            horizon_secs: 4 * 3600,
            seed,
        },
    );
    out.trace
}

/// Monitor-only analysis of a captured trace on `shards` streaming
/// engines in batch (no early eviction) mode — the E5 monitor sweep and
/// its criterion leg.
pub fn monitor_only(monitor: &Monitor, trace: &Trace, shards: usize) -> (Vec<Alert>, MonitorStats) {
    monitor.analyze_stream(shards, StreamingConfig::batch(), |sink| {
        for r in trace.records() {
            sink.accept(r.clone());
        }
    })
}

/// Print a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_trace_grows_with_load() {
        let small = scaled_trace(2, 1, 1).summary().segments;
        let large = scaled_trace(4, 3, 1).summary().segments;
        assert!(large > small);
    }

    #[test]
    fn default_seed() {
        assert_eq!(seed_from_args(), 42);
    }

    #[test]
    fn absent_flag_is_false() {
        assert!(!flag_from_args("--tiny"));
    }

    #[test]
    fn best_of_picks_minimum() {
        let mut runs = [3.0, 1.0, 2.0].into_iter();
        assert_eq!(best_of(3, || runs.next().unwrap()), 1.0);
    }
}
