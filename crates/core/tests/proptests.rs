//! Property tests: OSCRP totality, scoring bounds, incident-grouping
//! invariants, risk finiteness, and pipeline equivalence with a batch
//! oracle across random plans, producer counts and shard counts.

use ja_attackgen::campaign::{execute, Campaign, GroundTruth};
use ja_attackgen::AttackClass;
use ja_audit::detectors::AuditDetector;
use ja_audit::tracer::Tracer;
use ja_core::classify::incidents;
use ja_core::metrics::{score, ScoringConfig};
use ja_core::oscrp;
use ja_core::pipeline::{
    CampaignPlan, InteractiveScenario, Pipeline, PipelineConfig, RunOutcome, ScenarioArtifacts,
};
use ja_core::report::Report;
use ja_core::risk::incident_risk;
use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
use ja_monitor::alerts::{Alert, AlertSource};
use ja_monitor::detectors::scan_config;
use ja_monitor::Monitor;
use ja_netsim::time::{Duration, SimTime};
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = AttackClass> {
    prop_oneof![
        Just(AttackClass::Ransomware),
        Just(AttackClass::DataExfiltration),
        Just(AttackClass::Cryptomining),
        Just(AttackClass::AccountTakeover),
        Just(AttackClass::Misconfiguration),
        Just(AttackClass::ZeroDay),
    ]
}

fn arb_alert() -> impl Strategy<Value = Alert> {
    (
        arb_class(),
        0u64..10_000,
        0.0f64..1.0,
        proptest::option::of(0u32..8),
    )
        .prop_map(|(class, t, conf, server)| {
            let mut a = Alert::new(SimTime::from_secs(t), class, conf, AlertSource::Network);
            a.server_id = server;
            a
        })
}

/// A two-server lab so each property case stays cheap.
fn tiny_config(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment = DeploymentSpec {
        servers: 2,
        misconfig_rate: 0.0,
        weak_cred_fraction: 0.1,
        breached_cred_fraction: 0.02,
        mfa_fraction: 0.8,
        decoys: 0,
        seed,
    };
    cfg
}

type AlertKey = (
    SimTime,
    AttackClass,
    Option<u32>,
    Option<String>,
    String,
    u64,
);

fn alert_fingerprint(out: &RunOutcome) -> Vec<AlertKey> {
    out.report
        .alerts
        .iter()
        .map(|a| {
            (
                a.time,
                a.class,
                a.server_id,
                a.user.clone(),
                a.detail.clone(),
                a.confidence.to_bits(),
            )
        })
        .collect()
}

fn incident_fingerprint(out: &RunOutcome) -> Vec<(AttackClass, SimTime, SimTime, usize, u64)> {
    out.report
        .incidents
        .iter()
        .map(|i| (i.class, i.start, i.end, i.alerts, i.confidence.to_bits()))
        .collect()
}

/// The batch oracle: what one run must produce, computed from public
/// calls on a materialized capture. The campaigns are executed to a
/// full trace, the trace (by the monitor's full-buffer reference,
/// `Monitor::analyze`), the auth log and the kernel events are each
/// analyzed whole, configurations are scanned, and the alerts are
/// sorted, grouped and scored the way the pipeline's tail does it. No
/// intel loop: the property plans configure none.
fn batch_oracle(cfg: &PipelineConfig, campaigns: &[(SimTime, Campaign)], seed: u64) -> RunOutcome {
    let mut d = Deployment::build(&cfg.deployment);
    // The pipeline salts the plan seed before it drives the stream.
    let raw = execute(&mut d, campaigns, seed ^ 0xA0D17);
    let mut mcfg = cfg.monitor.clone();
    for srv in &d.servers {
        mcfg.server_ids.insert(srv.addr, srv.id);
        if cfg.tls_inspection {
            mcfg.inspect_secrets
                .insert(srv.addr, srv.transport_secret.clone());
        }
    }
    let monitor = Monitor::new(mcfg);
    let (mut alerts, monitor_stats) = monitor.analyze(&raw.trace);
    alerts.extend(monitor.analyze_auth(&raw.auth_log));
    let mut tracer = Tracer::new(cfg.tracer_capacity);
    tracer.ingest_all(raw.sys_events.iter().cloned());
    alerts.extend(AuditDetector::new().analyze(&tracer.collect()));
    for (idx, srv) in d.servers.iter().enumerate() {
        if !d.is_decoy(idx) {
            alerts.extend(scan_config(srv.id, &srv.config).into_iter().map(|(_, a)| a));
        }
    }
    alerts.sort_by_key(|a| a.time);
    let board = score(
        alerts
            .iter()
            .filter(|a| a.source != AlertSource::ConfigScan),
        &raw.ground_truth,
        &cfg.scoring,
    );
    RunOutcome {
        scenario: ScenarioArtifacts {
            ground_truth: raw.ground_truth,
            end: raw.end,
        },
        monitor_stats,
        audit_completeness: tracer.completeness(),
        intel: None,
        report: Report {
            incidents: incidents(&alerts, cfg.merge_window),
            alerts,
            scoreboard: Some(board),
        },
    }
}

/// Everything a run must reproduce: alert sequence, incidents,
/// scoreboard, ground truth, and the deterministic stats counters.
fn outcome_fingerprint(out: &RunOutcome) -> impl PartialEq + std::fmt::Debug {
    let truth: Vec<_> = out
        .scenario
        .ground_truth
        .iter()
        .map(|g| (g.name.clone(), g.start, g.end, g.servers.clone()))
        .collect();
    let s = &out.monitor_stats;
    (
        alert_fingerprint(out),
        incident_fingerprint(out),
        out.report.scoreboard.as_ref().map(|b| b.render()),
        (truth, out.scenario.end),
        [s.segments, s.flows, s.bytes, s.kernel_msgs],
        out.audit_completeness.to_bits(),
    )
}

/// A random plan for the equivalence properties: any subset of attack
/// classes and interactive scenarios over a short, varying horizon.
fn arb_plan() -> impl Strategy<Value = CampaignPlan> {
    (0u64..4096, 0usize..2, 0u8..64, 0u8..16, 1u64..4).prop_map(
        |(seed, benign, attack_mask, interactive_mask, horizon_halves)| CampaignPlan {
            benign_sessions_per_server: benign,
            attacks: AttackClass::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| attack_mask & (1 << i) != 0)
                .map(|(_, &c)| c)
                .collect(),
            interactive: InteractiveScenario::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| interactive_mask & (1 << i) != 0)
                .map(|(_, &k)| k)
                .collect(),
            horizon_secs: horizon_halves * 1800,
            stretch: 1.0,
            seed,
        },
    )
}

/// One pipeline run of `plan` at each of `producers` × shards in
/// {1, 2, 3} is indistinguishable from the batch oracle.
fn assert_runs_match_batch_oracle(plan: &CampaignPlan, producers: &[usize]) {
    let seed = plan.seed;
    let campaigns = Pipeline::new(tiny_config(seed)).build_campaigns(plan);
    let want = outcome_fingerprint(&batch_oracle(&tiny_config(seed), &campaigns, seed));
    for &producers in producers {
        for shards in [1usize, 2, 3] {
            let mut cfg = tiny_config(seed);
            cfg.producers = Some(producers);
            cfg.shards = Some(shards);
            let got = outcome_fingerprint(&Pipeline::new(cfg).run(plan));
            prop_assert_eq!(&want, &got, "producers {} shards {}", producers, shards);
        }
    }
}

proptest! {
    /// A run driven by one inline stream (producers = 1) is
    /// indistinguishable from the batch oracle across random plans and
    /// seeds, with the monitor inline or fanned out to 2 or 3 shards.
    #[test]
    fn run_streamed_matches_run_for_random_plans(plan in arb_plan()) {
        assert_runs_match_batch_oracle(&plan, &[1]);
    }

    /// A run driven by parallel server-disjoint producers (2 or 4) is
    /// indistinguishable from the batch oracle across random plans and
    /// seeds at 1, 2 and 3 shards. With the property above, this covers
    /// producers {1, 2, 4} × shards {1, 2, 3} against one oracle.
    #[test]
    fn run_streamed_parallel_matches_streamed_and_batch(plan in arb_plan()) {
        assert_runs_match_batch_oracle(&plan, &[2, 4]);
    }

    /// Seed-splitting determinism: one plan seed fixes every
    /// per-campaign sub-seed (a pure function, no shared-state forks)
    /// and the merged event order — so the same parallel configuration
    /// run twice is bit-identical regardless of thread interleaving,
    /// and the requested producer count never changes the output.
    #[test]
    fn parallel_seed_splitting_is_deterministic(
        seed in 0u64..4096,
        attack_mask in 1u8..64,
        producers in 2usize..9,
    ) {
        use ja_netsim::rng::split_seed;
        // The sub-seed derivation is pure: same (seed, label) in, same
        // sub-seed out, and distinct labels diverge.
        for label in 0u64..8 {
            prop_assert_eq!(split_seed(seed, label), split_seed(seed, label));
        }
        prop_assert_ne!(split_seed(seed, 0), split_seed(seed, 1));
        let attacks: Vec<AttackClass> = AttackClass::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| attack_mask & (1 << i) != 0)
            .map(|(_, &c)| c)
            .collect();
        let plan = CampaignPlan {
            benign_sessions_per_server: 1,
            attacks,
            interactive: vec![],
            horizon_secs: 3600,
            stretch: 1.0,
            seed,
        };
        let run_with = |producers: usize| {
            let mut cfg = tiny_config(seed);
            cfg.shards = Some(2);
            cfg.producers = Some(producers);
            let mut p = Pipeline::new(cfg);
            let out = p.run(&plan);
            (
                alert_fingerprint(&out),
                incident_fingerprint(&out),
                out.monitor_stats.segments,
                out.monitor_stats.bytes,
                out.scenario.end,
            )
        };
        // Same config twice: any divergence would mean thread
        // interleaving leaked into the output.
        prop_assert_eq!(run_with(producers), run_with(producers));
        // And the producer count itself is not observable.
        prop_assert_eq!(run_with(producers), run_with(1));
    }
}

#[test]
fn quiet_apt_matches_batch_oracle() {
    // The long-horizon regime: a sparse 48-hour capture in which the
    // pipeline evicts most flows long before the scenario ends.
    let plan = CampaignPlan::quiet_apt(77);
    let cfg = PipelineConfig::small_lab(77);
    let campaigns = Pipeline::new(cfg.clone()).build_campaigns(&plan);
    let want = outcome_fingerprint(&batch_oracle(&cfg, &campaigns, plan.seed));
    assert_eq!(want, outcome_fingerprint(&Pipeline::new(cfg).run(&plan)));
}

#[test]
fn streamed_peak_memory_proxy_stays_bounded_while_capture_grows() {
    // Scale session count and horizon together so per-instant
    // concurrency is constant while the total capture grows. The
    // pipeline's memory proxy — peak concurrently-live flows in the
    // monitor — must stay roughly flat even as total segments and
    // flows keep climbing; an offline pass over the whole capture by
    // construction retains every flow.
    let run = |scale: u64| {
        let plan = CampaignPlan {
            benign_sessions_per_server: 2 * scale as usize,
            attacks: vec![],
            interactive: vec![],
            horizon_secs: scale * 7200,
            stretch: 1.0,
            seed: 5,
        };
        let mut p = Pipeline::new(tiny_config(9));
        let out = p.run(&plan);
        (
            out.monitor_stats.segments,
            out.monitor_stats.flows,
            out.monitor_stats.peak_live_flows,
        )
    };
    let (seg1, _flows1, peak1) = run(1);
    let (seg4, flows4, peak4) = run(4);
    assert!(
        seg4 > seg1 * 3,
        "capture should grow ~4x: {seg1} -> {seg4} segments"
    );
    assert!(
        peak4 <= peak1 * 2,
        "peak live flows must not track capture size: {peak1} -> {peak4}"
    );
    assert!(
        peak4 < flows4 / 2,
        "peak live flows ({peak4}) must stay far below total flows ({flows4})"
    );
}

proptest! {
    /// The honeypot-intel machinery is inert when it has nothing to
    /// learn: a pipeline with the intel loop configured but no decoys
    /// (feed stays empty) produces output bit-identical to an
    /// unconfigured pipeline across random plans — i.e. today's
    /// behavior is preserved exactly.
    #[test]
    fn empty_intel_feed_changes_nothing(
        seed in 0u64..2048,
        benign in 0usize..2,
        attack_mask in 0u8..64,
    ) {
        let attacks: Vec<AttackClass> = AttackClass::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| attack_mask & (1 << i) != 0)
            .map(|(_, &c)| c)
            .collect();
        let plan = CampaignPlan {
            benign_sessions_per_server: benign,
            attacks,
            interactive: vec![],
            horizon_secs: 1800,
            stretch: 1.0,
            seed,
        };
        let mut cfg = tiny_config(seed);
        cfg.intel = Some(ja_core::intel::IntelConfig::default());
        let mut p1 = Pipeline::new(cfg);
        let with_loop = p1.run(&plan);
        let mut p2 = Pipeline::new(tiny_config(seed));
        let without = p2.run(&plan);
        let intel = with_loop.intel.as_ref().unwrap();
        prop_assert_eq!(intel.captures, 0);
        prop_assert!(intel.published.is_empty());
        prop_assert_eq!(alert_fingerprint(&with_loop), alert_fingerprint(&without));
        prop_assert_eq!(incident_fingerprint(&with_loop), incident_fingerprint(&without));
        prop_assert_eq!(with_loop.monitor_stats.segments, without.monitor_stats.segments);
        prop_assert_eq!(
            with_loop.audit_completeness.to_bits(),
            without.audit_completeness.to_bits()
        );
    }

    /// A hot-reloaded rule never matches traffic observed before its
    /// `available_at`: every honeypot-intel alert a streamed wave run
    /// raises sits at/after the availability instant of the rule that
    /// produced it, and a propagation delay longer than the capture
    /// yields zero honeypot-intel alerts.
    #[test]
    fn intel_rules_never_match_before_availability(
        seed in 0u64..2048,
        decoys in 1usize..4,
        prop_secs in 0u64..2_000,
    ) {
        use ja_monitor::alerts::AlertSource;
        use ja_netsim::rng::SimRng;
        let intel_cfg = ja_core::intel::IntelConfig {
            propagation: Duration::from_secs(prop_secs),
            realism: 1.0,
            ..Default::default()
        };
        let mut cfg = tiny_config(seed);
        cfg.deployment.decoys = decoys;
        cfg.intel = Some(intel_cfg.clone());
        let mut p = Pipeline::new(cfg);
        let mut rng = SimRng::new(seed);
        let wave = ja_core::intel::build_wave(
            p.deployment(),
            &intel_cfg,
            &ja_core::intel::WaveSpec::default(),
            &mut rng,
        );
        let out = p.run_campaigns(vec![(SimTime::from_secs(30), wave.campaign)], seed);
        let intel = out.intel.as_ref().unwrap();
        // Map rule id -> availability.
        let avail: std::collections::HashMap<&str, SimTime> = intel
            .published
            .iter()
            .map(|pr| (pr.rule.id.as_str(), pr.available_at))
            .collect();
        for a in out
            .report
            .alerts
            .iter()
            .filter(|a| a.source == AlertSource::HoneypotIntel)
        {
            let (_, at) = avail
                .iter()
                .find(|(id, _)| a.detail.contains(*id))
                .expect("alert names its rule");
            prop_assert!(
                a.time >= *at,
                "retroactive alert at {:?} for rule available at {:?}",
                a.time,
                at
            );
        }
        // Same wave, propagation past the end of the capture: nothing
        // may match.
        let intel_cfg2 = ja_core::intel::IntelConfig {
            propagation: Duration::from_secs(7 * 24 * 3600),
            realism: 1.0,
            ..Default::default()
        };
        let mut cfg2 = tiny_config(seed);
        cfg2.deployment.decoys = decoys;
        cfg2.intel = Some(intel_cfg2.clone());
        let mut p2 = Pipeline::new(cfg2);
        let mut rng2 = SimRng::new(seed);
        let wave2 = ja_core::intel::build_wave(
            p2.deployment(),
            &intel_cfg2,
            &ja_core::intel::WaveSpec::default(),
            &mut rng2,
        );
        let out2 = p2.run_campaigns(vec![(SimTime::from_secs(30), wave2.campaign)], seed);
        prop_assert_eq!(
            out2.report
                .alerts
                .iter()
                .filter(|a| a.source == AlertSource::HoneypotIntel)
                .count(),
            0
        );
    }

    /// Compiled signature matching is invisible end-to-end even with a
    /// *live* intel feed: a streamed wave run that captures honeypot
    /// traffic and hot-publishes rules mid-capture produces
    /// bit-identical alerts, incidents and published-rule sets whether
    /// the monitors match naively or via the generation-cached
    /// automata — with one producer and one shard and across random
    /// shard/producer counts.
    #[test]
    fn live_intel_matcher_mode_is_invisible(
        seed in 0u64..2048,
        decoys in 1usize..4,
        shards in 1usize..5,
        producers in 1usize..9,
        prop_secs in 0u64..1_000,
    ) {
        use ja_monitor::matcher::MatchMode;
        use ja_netsim::rng::SimRng;
        let intel_cfg = ja_core::intel::IntelConfig {
            propagation: Duration::from_secs(prop_secs),
            realism: 1.0,
            ..Default::default()
        };
        let run = |mode: MatchMode, par: Option<(usize, usize)>| {
            let mut cfg = tiny_config(seed);
            cfg.deployment.decoys = decoys;
            cfg.intel = Some(intel_cfg.clone());
            cfg.monitor.match_mode = mode;
            if let Some((s, p)) = par {
                cfg.shards = Some(s);
                cfg.producers = Some(p);
            }
            let mut p = Pipeline::new(cfg);
            let mut rng = SimRng::new(seed);
            let wave = ja_core::intel::build_wave(
                p.deployment(),
                &intel_cfg,
                &ja_core::intel::WaveSpec::default(),
                &mut rng,
            );
            p.run_campaigns(vec![(SimTime::from_secs(30), wave.campaign)], seed)
        };
        let naive_seq = run(MatchMode::Naive, None);
        let compiled_seq = run(MatchMode::Compiled, None);
        let compiled_par = run(MatchMode::Compiled, Some((shards, producers)));
        let naive_par = run(MatchMode::Naive, Some((shards, producers)));
        prop_assert_eq!(alert_fingerprint(&naive_seq), alert_fingerprint(&compiled_seq));
        prop_assert_eq!(alert_fingerprint(&naive_seq), alert_fingerprint(&compiled_par));
        prop_assert_eq!(alert_fingerprint(&naive_seq), alert_fingerprint(&naive_par));
        prop_assert_eq!(
            incident_fingerprint(&naive_seq),
            incident_fingerprint(&compiled_par)
        );
        // The mode must not change what the intel loop learned either.
        let published = |o: &RunOutcome| -> Vec<(String, SimTime)> {
            o.intel
                .as_ref()
                .unwrap()
                .published
                .iter()
                .map(|pr| (pr.rule.id.clone(), pr.available_at))
                .collect()
        };
        prop_assert_eq!(published(&naive_seq), published(&compiled_seq));
        prop_assert_eq!(published(&naive_seq), published(&compiled_par));
    }

    /// OSCRP closure is total and deduplicated for every avenue.
    #[test]
    fn oscrp_closure_total(class in arb_class()) {
        let concerns = oscrp::concerns_of(class);
        prop_assert!(!concerns.is_empty());
        let consequences = oscrp::consequences_of_avenue(class);
        prop_assert!(!consequences.is_empty());
        let set: std::collections::HashSet<_> = consequences.iter().collect();
        prop_assert_eq!(set.len(), consequences.len());
    }

    /// Scoring invariants: precision/recall/F1 in [0, 1]; tp + fp equals
    /// the number of scoreable alerts per class.
    #[test]
    fn scoring_bounds(alerts in proptest::collection::vec(arb_alert(), 0..64),
                      gts in proptest::collection::vec(
                          (arb_class(), 0u64..5_000, 0u64..5_000, 0usize..8), 0..8)) {
        let ground_truth: Vec<GroundTruth> = gts
            .into_iter()
            .map(|(class, start, len, server)| GroundTruth {
                class: Some(class),
                name: "g".into(),
                servers: vec![server],
                start: SimTime::from_secs(start),
                end: SimTime::from_secs(start + len),
            })
            .collect();
        let mut sorted = alerts.clone();
        sorted.sort_by_key(|a| a.time);
        let cfg = ScoringConfig::default();
        let board = score(&sorted, &ground_truth, &cfg);
        for (class, s) in &board.classes {
            prop_assert!((0.0..=1.0).contains(&s.precision()));
            prop_assert!((0.0..=1.0).contains(&s.recall()));
            prop_assert!((0.0..=1.0).contains(&s.f1()));
            prop_assert!(s.detected <= s.campaigns);
            let scoreable = sorted
                .iter()
                .filter(|a| a.class == *class && a.confidence >= cfg.min_confidence)
                .count();
            prop_assert_eq!(s.tp_alerts + s.fp_alerts, scoreable);
        }
        prop_assert!((0.0..=1.0).contains(&board.macro_recall()));
    }

    /// Incident grouping conserves alerts and produces finite,
    /// non-negative risks.
    #[test]
    fn incidents_conserve_alerts(alerts in proptest::collection::vec(arb_alert(), 0..64),
                                 window in 1u64..10_000) {
        let mut sorted = alerts;
        sorted.sort_by_key(|a| a.time);
        let incs = incidents(&sorted, Duration::from_secs(window));
        let total: usize = incs.iter().map(|i| i.alerts).sum();
        prop_assert_eq!(total, sorted.len());
        for i in &incs {
            prop_assert!(i.start <= i.end);
            let r = incident_risk(i);
            prop_assert!(r.is_finite() && r >= 0.0);
            prop_assert!(!i.sources.is_empty());
        }
    }
}
