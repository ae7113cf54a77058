//! E12 — capture-plane hot path: zero-copy payloads + single-pass
//! incremental scanning. The paper's scalability warning ("network
//! traffic will keep increasing, and a security auditor may add
//! unsustainable performance overhead") is about per-byte cost: the
//! pre-change monitor copied every captured byte at least twice (once
//! materializing the record it handed the analyzer, once retaining it
//! in the reassembler's contiguous buffer) and held whole flows in
//! memory until eviction. This harness pits the production engine
//! against the full-buffer reference on the same long-flow
//! plaintext-WS workload:
//!
//! - **full-buffer reference** — per-record payload re-materialization
//!   (what every hop cost when records owned `Vec<u8>`) plus
//!   [`Monitor::analyze`], which reassembles the whole capture and
//!   analyzes each flow from its complete buffers;
//! - **incremental** — records share the generation-time allocation
//!   ([`PayloadBytes`] refcount bumps) and the streaming engine scans
//!   in-order bytes as they arrive, dropping them immediately.
//!
//! An **inspected** section runs the same workload on
//! `TransportMode::Tls` with the sensor granted the server's secret,
//! so every flow must be decrypted to be read. Both share the records
//! here; the reference retains each flow, fails the plaintext parse,
//! copies and decrypts both directions, while the engine decides from
//! the first upstream bytes and decrypts each chunk into a reused
//! buffer as it arrives. Decrypt copies are counted in the payload
//! plane's copy accounting.
//!
//! Alert **bit-identity is asserted before any number is reported**:
//! the comparison is only meaningful because both produce the same
//! alert stream in the same order. The JSON has one section per
//! workload, `plain` and `inspected`, each keeping the reference's row
//! under its historical key, `eager`. Reported per phase: bytes copied
//! per byte captured (payload-plane materializations over offered
//! payload bytes), allocations and allocated bytes per segment
//! (counting global allocator), peak retained flow bytes, and
//! end-to-end MB/s.
//!
//! `--tiny` shrinks the workload for CI smoke (CI asserts
//! `plain.incremental.copies_per_byte < 1.5`, that incremental
//! allocations/segment stay below the reference's, and that the
//! inspected section is alert-identical with incremental peak
//! retention below the reference's). `--json` writes
//! `BENCH_E12.json`. The full run asserts the headline claims: ≥30%
//! fewer bytes copied per byte captured and ≥1.3× streamed throughput.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ja_bench::{alert_keys, finite};
use ja_kernelsim::actions::{Action, CellScript};
use ja_kernelsim::config::{ServerConfig, TransportMode};
use ja_kernelsim::server::NotebookServer;
use ja_monitor::alerts::Alert;
use ja_monitor::engine::{Monitor, MonitorConfig, MonitorStats};
use ja_monitor::rules::{Pattern, Rule, RuleOrigin};
use ja_monitor::streaming::{StreamingConfig, StreamingMonitor};
use ja_netsim::addr::{HostAddr, HostId};
use ja_netsim::network::Network;
use ja_netsim::payload::{self, PayloadBytes};
use ja_netsim::rng::SimRng;
use ja_netsim::segment::SegmentRecord;
use ja_netsim::time::{Duration, SimTime};
use ja_netsim::trace::Trace;

/// Counting shim over the system allocator: every allocation on the
/// measured path increments these process-wide counters. `unsafe` is
/// confined to forwarding; the accounting itself is atomic loads/adds.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The whole `BENCH_E12.json` payload.
#[derive(serde::Serialize)]
struct BenchReport {
    seed: u64,
    tiny: bool,
    sessions: usize,
    cells_per_session: usize,
    /// Fewer bytes copied per byte captured on `plain`, as a fraction.
    copy_reduction: f64,
    /// The workload on `TransportMode::PlainWs`.
    plain: Section,
    /// The same workload on TLS, with the secret granted.
    inspected: Section,
}

/// The full-buffer reference and the engine on one workload.
#[derive(serde::Serialize)]
struct Section {
    segments: usize,
    payload_bytes: u64,
    identical_alerts: bool,
    alerts: usize,
    /// The full-buffer reference (historical key).
    eager: PhaseRow,
    incremental: PhaseRow,
    throughput_ratio: Option<f64>,
    retained_ratio: f64,
}

/// One engine configuration's measured numbers.
#[derive(serde::Serialize)]
struct PhaseRow {
    wall_secs: Option<f64>,
    mb_per_sec: Option<f64>,
    copied_bytes: u64,
    copies_per_byte: f64,
    allocs: u64,
    allocs_per_segment: f64,
    alloc_bytes: u64,
    peak_retained_bytes: u64,
}

/// Long-flow workload over `transport`: each session is one WebSocket flow
/// carrying `cells` large cells (~`code_kb` KiB of source each, plus a
/// comparable stdout blob coming back), so a single flow's stream
/// length dwarfs the reorder window the jitter perturbation creates.
/// Every cell carries the hostile token the published intel rule
/// matches, and the upgrade URL carries a token for the URL-plane rule.
/// Returns the records with the server's address and transport secret.
fn long_flow_records(
    sessions: usize,
    cells: usize,
    code_kb: usize,
    seed: u64,
    transport: TransportMode,
) -> (Vec<SegmentRecord>, HostAddr, Vec<u8>) {
    let mut net = Network::new();
    let mut scfg = ServerConfig::hardened();
    scfg.transport = transport;
    scfg.token_in_url = true;
    let mut srv = NotebookServer::new(1, scfg, seed);
    srv.provision_user("miner", SimTime::ZERO);
    srv.start_kernel("miner", SimTime::ZERO);
    let filler = "x = compute_block(nonce); ".repeat(code_kb * 1024 / 26 + 1);
    for i in 0..sessions {
        let at = SimTime::from_secs(120 * (i as u64 + 1));
        let mut conn = srv.connect(
            &mut net,
            at,
            HostAddr::internal(HostId(300 + i as u32)),
            "miner",
            0,
        );
        let mut t = at + Duration::from_millis(40);
        for c in 0..cells {
            let code = format!("# cell {c}\nsubprocess.Popen('/tmp/.stratum_kworkerd')\n{filler}");
            let script = CellScript::new(
                &code,
                vec![Action::Print {
                    text: filler.clone(),
                }],
            );
            t = srv.run_cell(&mut net, t, &mut conn, &script) + Duration::from_millis(25);
        }
        conn.close(&mut net, t + Duration::from_secs(1));
    }
    let mut rng = SimRng::new(seed ^ 0xe12);
    let records = net
        .into_trace()
        .perturb(&mut rng, 0.0, Duration::from_millis(5))
        .into_records();
    (records, srv.addr, srv.transport_secret.clone())
}

/// The signatures the honeypot-intel loop would publish: one code-plane
/// and one URL-plane rule, both firing on this workload so signature
/// scanning is on the measured path.
fn hot_rules() -> Vec<Rule> {
    vec![
        Rule {
            id: "e12-code".into(),
            class: ja_attackgen::AttackClass::Cryptomining,
            pattern: Pattern::CodeSubstring(".stratum_kworkerd".into()),
            confidence: 0.9,
            origin: RuleOrigin::HoneypotIntel,
        },
        Rule {
            id: "e12-url".into(),
            class: ja_attackgen::AttackClass::AccountTakeover,
            pattern: Pattern::UrlSubstring("token=".into()),
            confidence: 0.6,
            origin: RuleOrigin::HoneypotIntel,
        },
    ]
}

struct PhaseOut {
    alerts: Vec<Alert>,
    stats: MonitorStats,
    copied: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// One full run and its wall-clock seconds: the streaming engine, or
/// with `reference` the full-buffer reference over the collected
/// records. `rematerialize` reproduces the pre-change per-hop cost:
/// every record handed to the monitor owns a fresh copy of its payload,
/// exactly what `Vec<u8>`-owning records forced on every channel hop
/// before the payload plane was refcounted. `inspect` grants the sensor
/// a server's transport secret.
fn run_phase(
    records: &[SegmentRecord],
    reference: bool,
    rematerialize: bool,
    inspect: Option<(HostAddr, &[u8])>,
) -> (f64, PhaseOut) {
    let mut cfg = MonitorConfig::default();
    if let Some((addr, secret)) = inspect {
        cfg = cfg.with_inspection(addr, secret.to_vec());
    }
    let m = Monitor::new(cfg);
    for rule in hot_rules() {
        m.config.intel.publish(SimTime::ZERO, rule);
    }
    payload::reset_copy_metrics();
    let (a0, b0) = alloc_snapshot();
    let started = std::time::Instant::now();
    let owned = |r: &SegmentRecord| {
        let mut owned = r.clone();
        if rematerialize {
            owned.payload = PayloadBytes::copy_from(&r.payload);
        }
        owned
    };
    let (alerts, stats) = if reference {
        m.analyze(&Trace::new(records.iter().map(owned).collect()))
    } else {
        let mut sm = StreamingMonitor::new(&m, StreamingConfig::close_evict());
        for r in records {
            if rematerialize {
                sm.push(&owned(r));
            } else {
                sm.push(r);
            }
        }
        sm.finish()
    };
    let wall = started.elapsed().as_secs_f64();
    let (a1, b1) = alloc_snapshot();
    let out = PhaseOut {
        alerts,
        stats,
        copied: payload::copied_bytes(),
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    };
    (wall, out)
}

fn phase_row(p: &PhaseOut, payload_bytes: u64, segments: usize, wall: f64) -> PhaseRow {
    PhaseRow {
        wall_secs: finite(wall),
        mb_per_sec: finite(payload_bytes as f64 / wall / 1e6),
        copied_bytes: p.copied,
        copies_per_byte: p.copied as f64 / payload_bytes as f64,
        allocs: p.allocs,
        allocs_per_segment: p.allocs as f64 / segments as f64,
        alloc_bytes: p.alloc_bytes,
        peak_retained_bytes: p.stats.peak_retained_bytes,
    }
}

/// Run the full-buffer reference and the incremental engine over
/// `records`, best-of-`reps` wall clock each in alternating order, and
/// check that their alert streams are bit-identical before any number
/// is reported.
/// `rematerialize_reference` gives the reference the pre-change per-hop
/// payload copies. Copy and allocation counters are deterministic per
/// run and read from the last repetition.
fn compare(
    records: &[SegmentRecord],
    payload_bytes: u64,
    inspect: Option<(HostAddr, &[u8])>,
    rematerialize_reference: bool,
    reps: usize,
) -> Section {
    let (reference_wall, incr_wall, mut outs) = ja_bench::best_of_alternating(
        reps,
        || run_phase(records, true, rematerialize_reference, inspect),
        || run_phase(records, false, false, inspect),
    );
    let (reference, incr) = outs.pop().expect("at least one rep");
    // The perf comparison is meaningless unless both agree
    // byte-for-byte on the alert stream.
    let identical = alert_keys(&reference.alerts) == alert_keys(&incr.alerts)
        && reference.stats.flows == incr.stats.flows
        && reference.stats.kernel_msgs == incr.stats.kernel_msgs;
    assert!(
        identical,
        "reference and incremental engine diverged: {} vs {} alerts",
        reference.alerts.len(),
        incr.alerts.len()
    );
    assert!(
        !reference.alerts.is_empty(),
        "workload produced no alerts; the signature path is not being measured"
    );
    println!(
        "bit-identity: {} alerts, {} kernel msgs, {} flows -> IDENTICAL to the reference\n",
        reference.alerts.len(),
        reference.stats.kernel_msgs,
        reference.stats.flows
    );
    Section {
        segments: records.len(),
        payload_bytes,
        identical_alerts: identical,
        alerts: reference.alerts.len(),
        retained_ratio: incr.stats.peak_retained_bytes as f64
            / reference.stats.peak_retained_bytes as f64,
        throughput_ratio: finite(reference_wall / incr_wall),
        eager: phase_row(&reference, payload_bytes, records.len(), reference_wall),
        incremental: phase_row(&incr, payload_bytes, records.len(), incr_wall),
    }
}

fn print_rows(rows: [(&str, &PhaseRow); 2]) {
    println!(
        "{:<13} {:>11} {:>10} {:>12} {:>13} {:>12}",
        "engine", "copies/byte", "allocs/seg", "peak-retain", "wall (s)", "MB/s"
    );
    for (name, row) in rows {
        println!(
            "{:<13} {:>11.3} {:>10.2} {:>12} {:>13.3} {:>12.1}",
            name,
            row.copies_per_byte,
            row.allocs_per_segment,
            row.peak_retained_bytes,
            row.wall_secs.unwrap_or(f64::NAN),
            row.mb_per_sec.unwrap_or(f64::NAN),
        );
    }
}

fn main() {
    let args = ja_bench::Args::from_env();
    let (seed, tiny) = (args.seed, args.tiny);
    let (sessions, cells, code_kb, reps) = if tiny { (3, 2, 8, 2) } else { (8, 6, 160, 3) };
    println!("=== E12: capture-plane hot path ({sessions} long flows, seed {seed}) ===\n");

    let (records, _, _) = long_flow_records(sessions, cells, code_kb, seed, TransportMode::PlainWs);
    let payload_bytes: u64 = records.iter().map(|r| r.payload.len() as u64).sum();
    println!(
        "workload: {} segments, {:.1} MB payload across {sessions} flows",
        records.len(),
        payload_bytes as f64 / 1e6
    );

    let plain = compare(&records, payload_bytes, None, true, reps);
    let (erow, irow) = (&plain.eager, &plain.incremental);
    print_rows([("reference", erow), ("incremental", irow)]);

    let copy_reduction = 1.0 - irow.copies_per_byte / erow.copies_per_byte;
    let throughput_ratio = plain.throughput_ratio.unwrap_or(f64::NAN);
    println!(
        "\nbytes copied per byte captured: {:.3} -> {:.3} ({:.0}% fewer)",
        erow.copies_per_byte,
        irow.copies_per_byte,
        copy_reduction * 100.0
    );
    println!(
        "streamed throughput: {:.1} -> {:.1} MB/s ({throughput_ratio:.2}x)",
        erow.mb_per_sec.unwrap_or(f64::NAN),
        irow.mb_per_sec.unwrap_or(f64::NAN)
    );
    println!(
        "peak retained flow bytes: {} -> {} ({:.1}% of the reference; bounded by the reorder window, not flow length)",
        erow.peak_retained_bytes,
        irow.peak_retained_bytes,
        plain.retained_ratio * 100.0
    );

    // The headline claims. Copy accounting and retention are
    // deterministic, so they hold in every mode; wall-clock throughput
    // is only asserted on the full-size run (the tiny CI workload is
    // too small for stable timing — CI checks the deterministic
    // metrics from the JSON instead).
    assert!(
        copy_reduction >= 0.30,
        "copy reduction {copy_reduction:.3} below the 30% floor"
    );
    assert!(
        irow.peak_retained_bytes < erow.peak_retained_bytes,
        "incremental retention not below the reference"
    );
    assert!(
        irow.allocs_per_segment < erow.allocs_per_segment,
        "incremental allocations/segment not below the reference"
    );
    if !tiny {
        assert!(
            throughput_ratio >= 1.3,
            "throughput ratio {throughput_ratio:.2} below the 1.3x floor"
        );
    }

    println!("\n--- inspected: the same workload on TLS, secret granted ---\n");
    let (tls_records, server, secret) =
        long_flow_records(sessions, cells, code_kb, seed, TransportMode::Tls);
    let tls_bytes: u64 = tls_records.iter().map(|r| r.payload.len() as u64).sum();
    let inspected = compare(
        &tls_records,
        tls_bytes,
        Some((server, secret.as_slice())),
        false,
        reps,
    );
    let (ierow, iirow) = (&inspected.eager, &inspected.incremental);
    print_rows([("reference", ierow), ("incremental", iirow)]);
    println!(
        "\ninspected throughput: {:.1} -> {:.1} MB/s ({:.2}x); peak retained {} -> {} ({:.1}% of the reference)",
        ierow.mb_per_sec.unwrap_or(f64::NAN),
        iirow.mb_per_sec.unwrap_or(f64::NAN),
        inspected.throughput_ratio.unwrap_or(f64::NAN),
        ierow.peak_retained_bytes,
        iirow.peak_retained_bytes,
        inspected.retained_ratio * 100.0
    );
    assert!(
        iirow.peak_retained_bytes < ierow.peak_retained_bytes,
        "inspected incremental retention not below the reference"
    );

    args.emit(
        "E12",
        &BenchReport {
            seed,
            tiny,
            sessions,
            cells_per_session: cells,
            copy_reduction,
            plain,
            inspected,
        },
    );
}
