//! Interactive adversary: a hands-on-keyboard attacker at a live REPL.
//!
//! Part 1 drives the loop the session plane is built around — client →
//! kernel → outcome → next action — one exchange at a time,
//! printing what the adversary saw and what it decided to do about it.
//! Part 2 runs the same adversaries (plus a notebook worm) inside the
//! fused streamed pipeline and prints the detection report.
//!
//! ```sh
//! cargo run --release --example interactive_adversary
//! ```

use jupyter_audit::attackgen::interactive::Adversary;
use jupyter_audit::attackgen::{AttackClass, SessionOp};
use jupyter_audit::core::pipeline::{CampaignPlan, InteractiveScenario, Pipeline, PipelineConfig};
use jupyter_audit::kernelsim::deployment::{Deployment, DeploymentSpec};
use jupyter_audit::kernelsim::server::ClientConn;
use jupyter_audit::netsim::addr::{HostAddr, HostId};
use jupyter_audit::netsim::network::Network;
use jupyter_audit::netsim::time::SimTime;
use std::collections::BTreeMap;

fn main() {
    println!("=== interactive adversary: client -> kernel -> outcome ===\n");

    // ---- Part 1: the raw reactive loop, one delivery at a time. ----
    let mut deployment = Deployment::build(&DeploymentSpec::small_lab(7));
    let entry_user = deployment.owner_of(0).to_string();
    let mut net = Network::new();
    let mut adversary = Adversary::escalation(0, &entry_user);
    let mut conns: BTreeMap<(usize, String), ClientConn> = BTreeMap::new();
    let mut last_outcome = None;
    let mut t = SimTime::from_secs(60);
    let mut exchange = 0;
    while let Some(action) = adversary.next_action(last_outcome.as_ref()) {
        exchange += 1;
        t += action.delay;
        let server = &mut deployment.servers[action.server];
        let conn = conns
            .entry((action.server, action.user.clone()))
            .or_insert_with(|| {
                server.connect(
                    &mut net,
                    t,
                    HostAddr::internal(HostId(1000 + action.server as u32)),
                    &action.user,
                    0,
                )
            });
        let (label, shown) = match &action.op {
            SessionOp::Cell(script) => ("cell", &script.code),
            SessionOp::Terminal(cmd) => ("term", cmd),
        };
        println!("[{exchange}] {label} on server {}: {shown}", action.server);
        let delivery = match &action.op {
            SessionOp::Cell(script) => server.deliver_cell(&mut net, t, conn, script),
            SessionOp::Terminal(cmd) => server.deliver_terminal(&mut net, t, conn, cmd),
        };
        let outcome = conn.decode_outcome(&delivery).expect("well-formed replies");
        let gist = if !outcome.stderr.is_empty() {
            format!("ERROR  {}", outcome.stderr.lines().next().unwrap_or(""))
        } else if !outcome.stdout.is_empty() {
            format!("ok     {}", outcome.stdout.lines().next().unwrap_or(""))
        } else {
            "ok     (no output)".to_string()
        };
        println!("    -> {gist}");
        t = delivery.end;
        last_outcome = Some(outcome);
    }
    println!("\nsession over: {exchange} exchanges, each chosen from the previous reply.\n");
    assert!(exchange >= 3, "the explore->react->escalate loop ran");

    // ---- Part 2: the same adversaries inside the streamed pipeline. ----
    let mut pipeline = Pipeline::new(PipelineConfig::small_lab(7));
    let plan = CampaignPlan {
        benign_sessions_per_server: 1,
        attacks: vec![],
        interactive: vec![
            InteractiveScenario::Escalation,
            InteractiveScenario::CommExfil,
            InteractiveScenario::Worm,
        ],
        horizon_secs: 3600,
        stretch: 1.0,
        seed: 7,
    };
    let outcome = pipeline.run(&plan);
    println!("=== streamed pipeline with interactive sessions ===\n");
    for gt in outcome
        .scenario
        .ground_truth
        .iter()
        .filter(|g| g.class.is_some())
    {
        println!(
            "campaign {:<22} servers {:?}  window {:.0}s",
            gt.name,
            gt.servers,
            gt.end.since(gt.start).as_secs_f64()
        );
    }
    let worm = outcome
        .scenario
        .ground_truth
        .iter()
        .find(|g| g.name.contains("worm"))
        .expect("worm ran");
    assert!(worm.servers.len() >= 2, "worm hops: {:?}", worm.servers);
    println!();
    println!("{}", outcome.report.render());
    let board = outcome.report.scoreboard.as_ref().expect("scored");
    let takeover = board.class(AttackClass::AccountTakeover);
    assert_eq!(
        takeover.detected, takeover.campaigns,
        "interactive takeover sessions detected"
    );
    println!("interactive sessions detected: escalation + worm caught end to end.");
}
