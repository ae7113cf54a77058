//! Allocation budget of the reference lab run.
//!
//! A counting global allocator wraps the system one, and one inline
//! `small_lab` pipeline (TLS inspection, a decoy with the intel loop,
//! interactive escalation and the worm) runs under it. The test fails
//! when allocations per captured segment rise past the budget, so
//! per-message allocations on the producer's send path or the sensor's
//! read path cannot creep back unnoticed.
//!
//! This file holds one test on purpose: the counter is process-wide, and
//! a second test running on another thread would be counted too.

use jupyter_audit::attackgen::AttackClass;
use jupyter_audit::core::intel::IntelConfig;
use jupyter_audit::core::pipeline::{CampaignPlan, InteractiveScenario, Pipeline, PipelineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) per captured segment the run may
/// make. Measured at 15.8 in a debug build when this budget was set
/// (37.2 before the message path stopped allocating per message); the
/// budget leaves about 10% for unrelated growth. Release builds make
/// fewer, since debug builds also check every JSON write against the
/// `Value` writer.
const BUDGET_PER_SEGMENT: f64 = 17.5;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is only
// an atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn lab_run_stays_within_its_allocation_budget() {
    let seed = 42;
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment.decoys = 1;
    cfg.intel = Some(IntelConfig::default());
    let plan = CampaignPlan {
        benign_sessions_per_server: 4,
        attacks: vec![
            AttackClass::DataExfiltration,
            AttackClass::Cryptomining,
            AttackClass::Ransomware,
        ],
        interactive: vec![InteractiveScenario::Escalation, InteractiveScenario::Worm],
        horizon_secs: 4 * 3600,
        stretch: 1.0,
        seed,
    };
    let mut pipeline = Pipeline::new(cfg);
    let campaigns = pipeline.build_campaigns(&plan);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = pipeline.run_campaigns(campaigns, seed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let segments = out.monitor_stats.segments;
    assert!(
        segments > 1000,
        "the lab run captured only {segments} segments"
    );
    let per_segment = allocations as f64 / segments as f64;
    assert!(
        per_segment <= BUDGET_PER_SEGMENT,
        "{allocations} allocations over {segments} segments: {per_segment:.2} per segment, \
         budget {BUDGET_PER_SEGMENT}"
    );
    eprintln!("{allocations} allocations over {segments} segments: {per_segment:.2} per segment");
}
