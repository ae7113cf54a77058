//! Audit-plane detectors over the kernel event stream.
//!
//! These see what the network monitor cannot: file entropy at write
//! time, process CPU accounting, command lines, and cell source
//! regardless of transport encryption. E4 quantifies exactly that gap.

use ja_attackgen::AttackClass;
use ja_kernelsim::events::{SysEvent, SysEventKind};
use ja_monitor::alerts::{Alert, AlertSource};
use ja_monitor::matcher::{CompiledRuleSet, MatchMode};
use ja_monitor::rules::RuleSet;
use std::collections::HashMap;

/// Audit detector thresholds.
#[derive(Clone, Debug)]
pub struct AuditThresholds {
    /// High-entropy writes within the window to trigger ransomware.
    pub ransomware_burst: usize,
    /// Window (seconds).
    pub ransomware_window_secs: u64,
    /// Entropy (bits/byte) above which a write is "ciphertext-like".
    pub high_entropy_bits: f64,
    /// Sustained CPU-seconds to call a process a miner.
    pub mining_cpu_secs: f64,
    /// Minimum mean utilization for the mining rule.
    pub mining_utilization: f64,
    /// Outbound bytes to one destination to call it exfil.
    pub exfil_bytes: u64,
}

impl Default for AuditThresholds {
    fn default() -> Self {
        AuditThresholds {
            ransomware_burst: 10,
            ransomware_window_secs: 600,
            high_entropy_bits: 7.2,
            mining_cpu_secs: 900.0,
            // Miners pin cores (~0.95+); legitimate training loops stall
            // on I/O and sit near 0.85. The gap is the detector's margin.
            mining_utilization: 0.92,
            exfil_bytes: 10_000_000,
        }
    }
}

/// The audit-plane detector suite.
#[derive(Clone, Debug)]
pub struct AuditDetector {
    /// Thresholds.
    pub thresholds: AuditThresholds,
    /// Signature rules shared with the network monitor (cmdline + code
    /// patterns apply on this plane too).
    pub rules: RuleSet,
}

impl Default for AuditDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl AuditDetector {
    /// Detector with default thresholds and builtin rules.
    pub fn new() -> Self {
        AuditDetector {
            thresholds: AuditThresholds::default(),
            rules: RuleSet::builtin(),
        }
    }

    /// Run all audit detectors over an event stream (time-ordered).
    /// Signature rules are compiled once per call (automaton per
    /// plane), so each event pays a single scan regardless of rule
    /// count.
    pub fn analyze(&self, events: &[SysEvent]) -> Vec<Alert> {
        let mut alerts = Vec::new();
        self.ransomware(events, &mut alerts);
        self.mining(events, &mut alerts);
        self.exfil(events, &mut alerts);
        let compiled = self.rules.compiled(MatchMode::Compiled);
        self.signatures(events, &compiled, &mut alerts);
        alerts.sort_by_key(|a| a.time);
        alerts
    }

    /// Entropy-burst + rename-churn ransomware detection.
    fn ransomware(&self, events: &[SysEvent], alerts: &mut Vec<Alert>) {
        // Per (server, user): sliding window of high-entropy writes and
        // renames-with-new-extension.
        let mut windows: HashMap<(u32, String), Vec<(f64, bool)>> = HashMap::new();
        let mut fired: HashMap<(u32, String), bool> = HashMap::new();
        for e in events {
            let key = (e.server_id, e.user.clone());
            let t = e.time.as_secs_f64();
            let signal = match &e.kind {
                SysEventKind::FileWrite { entropy_bits, .. } => {
                    (*entropy_bits >= self.thresholds.high_entropy_bits).then_some(true)
                }
                SysEventKind::FileRename { from, to } => {
                    // Extension appended: x.csv → x.csv.locked
                    (to.len() > from.len() && to.starts_with(from.as_str())).then_some(true)
                }
                _ => None,
            };
            let Some(_) = signal else { continue };
            let w = windows.entry(key.clone()).or_default();
            w.push((t, true));
            let horizon = t - self.thresholds.ransomware_window_secs as f64;
            w.retain(|&(wt, _)| wt >= horizon);
            if w.len() >= self.thresholds.ransomware_burst
                && !fired.get(&key).copied().unwrap_or(false)
            {
                fired.insert(key.clone(), true);
                alerts.push(
                    Alert::new(
                        e.time,
                        AttackClass::Ransomware,
                        0.95,
                        AlertSource::KernelAudit,
                    )
                    .with_server(e.server_id)
                    .with_user(&*e.user)
                    .with_detail(format!(
                        "{} ciphertext-grade writes/renames within {}s",
                        w.len(),
                        self.thresholds.ransomware_window_secs
                    )),
                );
            }
        }
    }

    /// Sustained-CPU mining detection.
    fn mining(&self, events: &[SysEvent], alerts: &mut Vec<Alert>) {
        let mut cpu: HashMap<(u32, u32), (f64, f64, u64, String)> = HashMap::new(); // (cpu, util_sum, samples, user)
        let mut fired: HashMap<(u32, u32), bool> = HashMap::new();
        for e in events {
            if let SysEventKind::CpuSample {
                pid,
                cpu_secs,
                utilization,
            } = &e.kind
            {
                let entry =
                    cpu.entry((e.server_id, pid.0))
                        .or_insert((0.0, 0.0, 0, e.user.clone()));
                entry.0 += cpu_secs;
                entry.1 += utilization;
                entry.2 += 1;
                let mean_util = entry.1 / entry.2 as f64;
                if entry.0 >= self.thresholds.mining_cpu_secs
                    && mean_util >= self.thresholds.mining_utilization
                    && !fired.get(&(e.server_id, pid.0)).copied().unwrap_or(false)
                {
                    fired.insert((e.server_id, pid.0), true);
                    alerts.push(
                        Alert::new(
                            e.time,
                            AttackClass::Cryptomining,
                            0.8,
                            AlertSource::KernelAudit,
                        )
                        .with_server(e.server_id)
                        .with_user(entry.3.clone())
                        .with_detail(format!(
                            "pid {} burned {:.0} CPU-s at {:.0}% mean utilization",
                            pid.0,
                            entry.0,
                            mean_util * 100.0
                        )),
                    );
                }
            }
        }
    }

    /// Outbound-volume exfil detection (per destination).
    fn exfil(&self, events: &[SysEvent], alerts: &mut Vec<Alert>) {
        let mut vol: HashMap<(u32, String), u64> = HashMap::new();
        let mut fired: HashMap<(u32, String), bool> = HashMap::new();
        for e in events {
            if let SysEventKind::NetSend {
                dst,
                dst_port,
                bytes,
            } = &e.kind
            {
                let key = (e.server_id, format!("{dst}:{dst_port}"));
                let v = vol.entry(key.clone()).or_default();
                *v += bytes;
                if *v >= self.thresholds.exfil_bytes && !fired.get(&key).copied().unwrap_or(false) {
                    fired.insert(key.clone(), true);
                    alerts.push(
                        Alert::new(
                            e.time,
                            AttackClass::DataExfiltration,
                            0.85,
                            AlertSource::KernelAudit,
                        )
                        .with_server(e.server_id)
                        .with_user(&*e.user)
                        .with_detail(format!("{v} bytes sent to {}", key.1)),
                    );
                }
            }
        }
    }

    /// Cmdline/code signatures (work regardless of transport).
    fn signatures(&self, events: &[SysEvent], rules: &CompiledRuleSet, alerts: &mut Vec<Alert>) {
        for e in events {
            match &e.kind {
                SysEventKind::ProcExec { cmdline, .. } => {
                    for rule in rules.match_cmdline(cmdline) {
                        alerts.push(
                            Alert::new(
                                e.time,
                                rule.class,
                                rule.confidence,
                                AlertSource::KernelAudit,
                            )
                            .with_server(e.server_id)
                            .with_user(&*e.user)
                            .with_detail(format!("rule {} on cmdline", rule.id)),
                        );
                    }
                }
                SysEventKind::CellExecute { code, .. } => {
                    for rule in rules.match_code(code) {
                        alerts.push(
                            Alert::new(
                                e.time,
                                rule.class,
                                rule.confidence,
                                AlertSource::KernelAudit,
                            )
                            .with_server(e.server_id)
                            .with_user(&*e.user)
                            .with_detail(format!("rule {} in audited cell code", rule.id)),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_attackgen::campaign::execute;
    use ja_attackgen::{cryptomining, exfiltration, ransomware};
    use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
    use ja_netsim::time::SimTime;

    fn run_class(class: AttackClass, seed: u64) -> Vec<SysEvent> {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(seed));
        let user = d.owner_of(0).to_string();
        let c = match class {
            AttackClass::Ransomware => ransomware::campaign(
                0,
                &user,
                &d.servers[0],
                &ransomware::RansomwareParams::default(),
            ),
            AttackClass::Cryptomining => cryptomining::campaign(
                0,
                &user,
                &cryptomining::MiningParams {
                    duration_secs: 3600,
                    ..Default::default()
                },
            ),
            AttackClass::DataExfiltration => {
                exfiltration::campaign(0, &user, &exfiltration::ExfilParams::default())
            }
            _ => unreachable!(),
        };
        execute(&mut d, &[(SimTime::from_secs(100), c)], seed).sys_events
    }

    #[test]
    fn ransomware_burst_detected() {
        let events = run_class(AttackClass::Ransomware, 61);
        let alerts = AuditDetector::new().analyze(&events);
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::Ransomware && a.confidence > 0.9));
    }

    #[test]
    fn mining_cpu_detected() {
        let events = run_class(AttackClass::Cryptomining, 62);
        let alerts = AuditDetector::new().analyze(&events);
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::Cryptomining && a.source == AlertSource::KernelAudit));
    }

    #[test]
    fn exfil_volume_detected() {
        let events = run_class(AttackClass::DataExfiltration, 63);
        let alerts = AuditDetector::new().analyze(&events);
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::DataExfiltration));
    }

    #[test]
    fn benign_session_is_quiet() {
        use ja_attackgen::benign::{session, BenignProfile};
        use ja_netsim::rng::SimRng;
        let mut d = Deployment::build(&DeploymentSpec::small_lab(64));
        let user = d.owner_of(0).to_string();
        let mut rng = SimRng::new(64);
        let c = session(0, &user, &BenignProfile::default(), &mut rng);
        let out = execute(&mut d, &[(SimTime::ZERO, c)], 64);
        let alerts = AuditDetector::new().analyze(&out.sys_events);
        // Benign archives are single high-entropy writes, never a burst.
        assert!(
            alerts
                .iter()
                .filter(|a| a.class == AttackClass::Ransomware)
                .count()
                == 0,
            "{alerts:?}"
        );
        // Training bursts are below the sustained-CPU bar per process.
        assert!(
            alerts
                .iter()
                .filter(|a| a.class == AttackClass::Cryptomining && a.confidence > 0.7)
                .count()
                <= 1
        );
    }

    #[test]
    fn alert_attribution_carries_server_and_user() {
        let events = run_class(AttackClass::Ransomware, 65);
        let alerts = AuditDetector::new().analyze(&events);
        let a = alerts
            .iter()
            .find(|a| a.class == AttackClass::Ransomware)
            .unwrap();
        assert_eq!(a.server_id, Some(0));
        assert!(a.user.is_some());
    }

    /// Archive and ciphertext file samples read as ciphertext-like to the
    /// ransomware rule whatever the seed, though they come from `SimRng`
    /// rather than a cipher.
    #[test]
    fn random_file_samples_clear_the_high_entropy_floor() {
        use ja_crypto::entropy::ByteStats;
        use ja_kernelsim::vfs::{generate_sample, ContentKind};
        use ja_netsim::rng::SimRng;
        let floor = AuditThresholds::default().high_entropy_bits;
        for seed in 0..256 {
            let mut rng = SimRng::new(seed);
            for kind in [ContentKind::Archive, ContentKind::Encrypted] {
                let bits = ByteStats::from_bytes(&generate_sample(kind, &mut rng)).shannon_bits();
                assert!(bits >= floor, "{kind:?} seed {seed}: {bits}");
            }
        }
    }

    /// High-entropy payloads clear the same floor at every length of
    /// 1 KiB or more a campaign sends: the 40,960-byte zero-day flush,
    /// the 64 KiB cap every larger transfer is cut to, and the powers of
    /// two between 1 KiB and the cap. The 256-byte ransomware key exfil
    /// (and the 180-byte DNS and 90-byte pool messages) are left out: a
    /// plug-in estimate over so few bytes sits near 7.2 even for uniform
    /// bytes, so it is no fair floor there.
    #[test]
    fn high_entropy_payloads_clear_the_floor() {
        use ja_crypto::entropy::ByteStats;
        use ja_kernelsim::{NotebookServer, ServerConfig};
        let floor = AuditThresholds::default().high_entropy_bits;
        let lengths = (10..=16).map(|k| 1u64 << k).chain([40_960, 2_000_000]);
        for seed in 0..8 {
            let srv = NotebookServer::new(seed as u32, ServerConfig::hardened(), seed);
            for bytes in lengths.clone() {
                for t in [0, 1, 3_600_000_007].map(SimTime) {
                    let payload = srv.gen_payload(bytes, true, t);
                    assert_eq!(payload.len() as u64, bytes.min(64 * 1024));
                    let bits = ByteStats::from_bytes(&payload).shannon_bits();
                    assert!(bits >= floor, "seed {seed} len {bytes}: {bits}");
                }
            }
        }
    }
}
