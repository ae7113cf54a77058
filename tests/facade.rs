//! Facade surface: every `jupyter_audit::*` re-export resolves to the
//! corresponding `ja_*` crate, and the advertised version matches the
//! workspace version the crates were built with.

use jupyter_audit::{
    attackgen, audit, core, crypto, honeypot, jupyter_proto, kernelsim, monitor, netsim, websocket,
};

/// Touch one load-bearing item per re-exported crate so a dropped or
/// misrouted `pub use` fails this test rather than downstream users.
#[test]
fn every_reexport_resolves() {
    // crypto: hash something.
    let digest = crypto::sha256::sha256(b"jupyter-audit");
    assert_eq!(digest.len(), 32);

    // websocket: a data frame survives an encode/decode round trip.
    let frame = websocket::frame::Frame {
        fin: true,
        opcode: websocket::frame::Opcode::Binary,
        mask: None,
        payload: vec![1, 2, 3],
    };
    let bytes = frame.encode();
    let (decoded, used) = websocket::frame::Frame::decode(&bytes, 1 << 16)
        .unwrap()
        .unwrap();
    assert_eq!(used, bytes.len());
    assert_eq!(decoded, frame);

    // jupyter_proto: an empty notebook serializes as nbformat 4.
    let nb = jupyter_proto::nbformat::Notebook::new();
    assert_eq!(nb.nbformat, 4);

    // netsim: the deterministic RNG is deterministic.
    let mut a = netsim::rng::SimRng::new(7);
    let mut b = netsim::rng::SimRng::new(7);
    assert_eq!(a.range(0, 1000), b.range(0, 1000));

    // kernelsim: a hardened config has no misconfigurations.
    assert!(kernelsim::config::ServerConfig::hardened()
        .misconfigurations()
        .is_empty());

    // attackgen: the taxonomy enumerates all six classes.
    assert_eq!(attackgen::AttackClass::ALL.len(), 6);

    // monitor: a default monitor can be constructed, and the streaming
    // engine consumes an empty capture.
    let m = monitor::engine::Monitor::default();
    let sm = monitor::streaming::StreamingMonitor::new(
        &m,
        monitor::streaming::StreamingConfig::online(),
    );
    let (alerts, stats) = sm.finish();
    assert!(alerts.is_empty());
    assert_eq!(stats.flows, 0);

    // audit: an empty ring buffer reports zero events.
    let ring = audit::ring::RingBuffer::<u64>::new(16);
    assert_eq!(ring.len(), 0);

    // honeypot: a fully realistic decoy is never fingerprinted.
    let mut rng = netsim::rng::SimRng::new(1);
    assert!(!honeypot::fingerprinted(1.0, 1.0, &mut rng));

    // core: the pipeline from the crate-level doctest runs end to end,
    // and the fleet runner aggregates it.
    let mut pipeline = core::pipeline::Pipeline::new(core::pipeline::PipelineConfig::small_lab(7));
    let plan = core::pipeline::CampaignPlan::single(attackgen::AttackClass::Ransomware);
    let outcome = pipeline.run(&plan);
    assert!(outcome.report.alerts_total() > 0);
    let fleet = core::pipeline::Pipeline::run_fleet(vec![core::pipeline::FleetJob::new(
        "lab",
        core::pipeline::PipelineConfig::small_lab(7),
        plan,
    )]);
    assert_eq!(fleet.runs.len(), 1);
    assert_eq!(fleet.total_alerts(), outcome.report.alerts_total());
}

#[test]
fn version_matches_workspace() {
    assert_eq!(jupyter_audit::VERSION, env!("CARGO_PKG_VERSION"));
    // All member crates inherit the workspace version, so the facade's
    // pinned version string must agree with a member's.
    assert_eq!(jupyter_audit::VERSION, "0.1.0");
}
