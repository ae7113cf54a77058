//! # ja-bench — experiment harness
//!
//! One binary per paper artifact/claim plus the substrate
//! microbenchmarks (`micro_substrate`). This library is the harness
//! every binary shares: the command line
//! ([`Args`]), the `BENCH_<name>.json` report ([`Args::emit`]), best-of
//! timing ([`best_of`], [`best_of_alternating`]), JSON-safe numbers
//! ([`finite`]), the alert identity that output-equivalence gates
//! compare ([`alert_keys`]), the one-user notebook session the protocol experiments capture
//! ([`notebook_session`]) and the honeypot wave E6(c) and A1 sweep
//! ([`fleet::run_wave`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;

use ja_attackgen::AttackClass;
use ja_kernelsim::actions::CellScript;
use ja_kernelsim::config::{ServerConfig, TransportMode};
use ja_kernelsim::server::NotebookServer;
use ja_monitor::alerts::{Alert, AlertSource};
use ja_monitor::reassembly::{FlowBuf, Reassembler};
use ja_netsim::addr::{HostAddr, HostId};
use ja_netsim::network::Network;
use ja_netsim::time::SimTime;
use ja_netsim::trace::Trace;

/// The command line every experiment binary takes. Nothing else is
/// accepted: a malformed value or an unknown flag is an error, never a
/// silent default.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// `--seed N`; 42 when absent, so published numbers reproduce
    /// bit-for-bit.
    pub seed: u64,
    /// `--tiny`: shrink a sweep to one small workload (CI smoke runs).
    pub tiny: bool,
    /// `--json`: also write the machine-readable report.
    pub json: bool,
}

impl Args {
    /// Parse the arguments that follow the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            seed: 42,
            tiny: false,
            json: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => {
                    let value = args.next().ok_or("--seed needs a value")?;
                    parsed.seed = value
                        .parse()
                        .map_err(|_| format!("--seed: `{value}` is not an unsigned integer"))?;
                }
                "--tiny" => parsed.tiny = true,
                "--json" => parsed.json = true,
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (expected --seed N, --tiny, --json)"
                    ))
                }
            }
        }
        Ok(parsed)
    }

    /// Parse the process's arguments, or print the error and exit with
    /// status 2.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// With `--json`, write `report` to `BENCH_<name>.json` in the
    /// working directory.
    pub fn emit(&self, name: &str, report: &impl serde::Serialize) {
        if !self.json {
            return;
        }
        let path = format!("BENCH_{name}.json");
        let text = serde_json::to_string_pretty(report).expect("report serializes");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

/// Run `run` `reps` times (at least once). Each run times itself, so
/// its set-up stays off the clock; keep the best (minimum) of those
/// seconds, with the last run's output. The minimum keeps numbers
/// stable on shared VMs.
pub fn best_of<T>(reps: usize, mut run: impl FnMut() -> (f64, T)) -> (f64, T) {
    let (mut best, mut last) = run();
    for _ in 1..reps {
        let (secs, out) = run();
        best = best.min(secs);
        last = out;
    }
    (best, last)
}

/// Run `a` and `b` `reps` times each (at least once), swapping which
/// goes first every rep so neither side always runs on a cold (or a
/// throttled) box. Like [`best_of`], each run times itself. Returns
/// each side's best seconds and every rep's pair of outputs, in rep
/// order.
pub fn best_of_alternating<A, B>(
    reps: usize,
    mut a: impl FnMut() -> (f64, A),
    mut b: impl FnMut() -> (f64, B),
) -> (f64, f64, Vec<(A, B)>) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut outs = Vec::with_capacity(reps.max(1));
    for rep in 0..reps.max(1) {
        let ((secs_a, out_a), (secs_b, out_b)) = if rep % 2 == 0 {
            let first = a();
            (first, b())
        } else {
            let first = b();
            (a(), first)
        };
        best_a = best_a.min(secs_a);
        best_b = best_b.min(secs_b);
        outs.push((out_a, out_b));
    }
    (best_a, best_b, outs)
}

/// `None` for non-finite values, so a report carries `null`, never
/// `NaN`/`inf`.
pub fn finite(x: f64) -> Option<f64> {
    x.is_finite().then_some(x)
}

/// Every field of an [`Alert`], the confidence by its bits.
pub type AlertKey = (
    SimTime,
    AttackClass,
    u64,
    AlertSource,
    Option<HostAddr>,
    Option<u32>,
    Option<String>,
    String,
);

/// The keys of an alert stream: two streams have equal keys exactly
/// when they are bit-identical, in the same order.
pub fn alert_keys(alerts: &[Alert]) -> Vec<AlertKey> {
    alerts
        .iter()
        .map(|a| {
            (
                a.time,
                a.class,
                a.confidence.to_bits(),
                a.source,
                a.host,
                a.server_id,
                a.user.clone(),
                a.detail.clone(),
            )
        })
        .collect()
}

/// One user's notebook session as the sensor captures it.
pub struct NotebookSession {
    /// The whole capture.
    pub trace: Trace,
    /// The session flow (flow 0), reassembled.
    pub flow: FlowBuf,
    /// The server's transport secret, for TLS inspection.
    pub secret: Vec<u8>,
}

/// Capture one session: a hardened server with `transport`, seeded
/// `seed`, whose user `alice` connects at time zero and runs `cells`
/// one after another from `start`.
pub fn notebook_session(
    transport: TransportMode,
    seed: u64,
    start: SimTime,
    cells: &[CellScript],
) -> NotebookSession {
    let mut cfg = ServerConfig::hardened();
    cfg.transport = transport;
    let mut srv = NotebookServer::new(1, cfg, seed);
    srv.provision_user("alice", SimTime::ZERO);
    srv.start_kernel("alice", SimTime::ZERO);
    let mut net = Network::new();
    let client = HostAddr::internal(HostId(200));
    let mut conn = srv.connect(&mut net, SimTime::ZERO, client, "alice", 0);
    let mut t = start;
    for script in cells {
        t = srv.run_cell(&mut net, t, &mut conn, script);
    }
    let trace = net.into_trace();
    let mut re = Reassembler::new();
    re.feed_trace(&trace);
    let flow = re.into_flows().remove(&0).expect("the session flow");
    NotebookSession {
        trace,
        flow,
        secret: srv.transport_secret,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn default_seed() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                seed: 42,
                tiny: false,
                json: false
            })
        );
    }

    #[test]
    fn flags_and_seed_are_read() {
        assert_eq!(
            parse(&["--tiny", "--seed", "7", "--json"]),
            Ok(Args {
                seed: 7,
                tiny: true,
                json: true
            })
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--seed", "7x"][..],
            &["--seed", "-1"],
            &["--seed"],
            &["--tiny", "--fast"],
            &["7"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn best_of_picks_minimum() {
        let mut runs = [(3.0, 'a'), (1.0, 'b'), (2.0, 'c')].into_iter();
        assert_eq!(best_of(3, || runs.next().unwrap()), (1.0, 'c'));
        assert_eq!(best_of(0, || (5.0, ())), (5.0, ()));
    }

    #[test]
    fn best_of_alternating_swaps_order_and_keeps_every_pair() {
        // A run's seconds are its position in the call order.
        let order = std::cell::RefCell::new(String::new());
        let run = |name| {
            order.borrow_mut().push(name);
            (order.borrow().len() as f64, name)
        };
        let (a, b, outs) = best_of_alternating(3, || run('a'), || run('b'));
        assert_eq!(order.take(), "abbaab");
        assert_eq!((a, b, outs), (1.0, 2.0, vec![('a', 'b'); 3]));
        assert_eq!(best_of_alternating(0, || run('a'), || run('b')).2.len(), 1);
    }

    #[test]
    fn alert_keys_see_every_field() {
        let base = Alert::new(
            SimTime::ZERO,
            AttackClass::Ransomware,
            0.5,
            AlertSource::Network,
        );
        let changes: [fn(&mut Alert); 8] = [
            |a| a.time = SimTime::from_secs(1),
            |a| a.class = AttackClass::ZeroDay,
            |a| a.confidence = 0.6,
            |a| a.source = AlertSource::KernelAudit,
            |a| a.host = Some(HostAddr(1)),
            |a| a.server_id = Some(1),
            |a| a.user = Some("alice".into()),
            |a| a.detail = "x".into(),
        ];
        let key = alert_keys(std::slice::from_ref(&base));
        for change in changes {
            let mut a = base.clone();
            change(&mut a);
            assert_ne!(key, alert_keys(&[a]));
        }
    }
}
