//! E10 — AI-scaled attack volume (§IV.B): "attacks driven by generative
//! AI tools will automate our listed threats … and increase the volume
//! of attacks, further challenge the security monitoring system."
//!
//! We scale the number of concurrent attack campaigns at a fixed
//! monitor/analyst capacity and measure analysis cost, alert volume and
//! the analyst's triage backlog.

use ja_attackgen::campaign::Campaign;
use ja_attackgen::mixer::build_attack;
use ja_attackgen::AttackClass;
use ja_core::pipeline::{Pipeline, PipelineConfig};
use ja_netsim::rng::SimRng;
use ja_netsim::time::{Duration, SimTime};

const TRIAGE_PER_HOUR: f64 = 10.0; // one analyst's sustainable rate

fn main() {
    let seed = ja_bench::Args::from_env().seed;
    println!("=== E10: AI-scaled attack volume vs fixed monitoring capacity (seed {seed}) ===\n");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>12} {:>14}",
        "volume", "segments", "alerts", "incidents", "analyze(s)", "triage backlog"
    );
    for volume in [1usize, 2, 5, 10, 20, 40] {
        let mut cfg = PipelineConfig::small_lab(seed);
        cfg.shards = Some(std::thread::available_parallelism().map_or(1, |n| n.get()));
        let mut p = Pipeline::new(cfg);
        let mut rng = SimRng::new(seed + volume as u64);
        let classes = [
            AttackClass::DataExfiltration,
            AttackClass::Cryptomining,
            AttackClass::AccountTakeover,
            AttackClass::ZeroDay,
        ];
        let mut campaigns: Vec<(SimTime, Campaign)> = Vec::new();
        // Benign baseline.
        for s in 0..4usize {
            let user = p.deployment().owner_of(s).to_string();
            campaigns.push((
                SimTime::ZERO,
                ja_attackgen::benign::session(
                    s,
                    &user,
                    &ja_attackgen::benign::BenignProfile::default(),
                    &mut rng,
                ),
            ));
        }
        // `volume` waves of automated attacks.
        for wave in 0..volume {
            let class = classes[wave % classes.len()];
            let server = wave % 4;
            let start = SimTime(Duration::from_secs(600 + 60 * wave as u64).as_micros());
            campaigns.push((start, build_attack(class, p.deployment(), server, &mut rng)));
        }
        // Fused streaming: the AI-scaled wave is analyzed as it is
        // generated, so the bench measures the online regime directly.
        let out = p.run_campaigns(campaigns, seed);
        let horizon_hours = out.scenario.end.as_secs_f64().max(3600.0) / 3600.0;
        let alerts_per_hour = out.report.alerts_total() as f64 / horizon_hours;
        let backlog = (alerts_per_hour - TRIAGE_PER_HOUR).max(0.0);
        println!(
            "{:>8} {:>10} {:>10} {:>12} {:>12.3} {:>11.1}/hr",
            format!("x{volume}"),
            out.monitor_stats.segments,
            out.report.alerts_total(),
            out.report.incidents_total(),
            out.monitor_stats.elapsed_secs,
            backlog
        );
    }
    println!("\n(triage backlog = alerts/hour beyond one analyst's {TRIAGE_PER_HOUR}/hour budget. Alert volume");
    println!(
        " scales with attack volume while analysis stays cheap — the bottleneck the paper predicts"
    );
    println!(" is the human triage stage, which is what incident *grouping* mitigates.)");
}
