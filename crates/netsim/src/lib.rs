//! # ja-netsim — deterministic discrete-event network substrate
//!
//! The paper's monitoring architecture watches Jupyter traffic from a
//! passive network vantage point (a Zeek-style sensor). This crate gives
//! the workspace that vantage point: simulated hosts open TCP-like flows,
//! send bytes, and every segment is recorded into a [`trace::Trace`] — the
//! synthetic equivalent of a pcap, with ground truth attached. The
//! monitor crate replays traces through its analyzers exactly as Zeek
//! replays captures.
//!
//! Everything is deterministic: a fixed [`rng::SimRng`] seed and virtual
//! [`time::SimTime`] clock reproduce identical traces bit-for-bit, which
//! is what lets EXPERIMENTS.md publish exact numbers.
//!
//! Modules:
//! - [`time`] — virtual clock (microsecond ticks) and durations.
//! - [`rng`] — seeded RNG with the distribution helpers campaigns need
//!   (exponential inter-arrivals, Poisson counts, weighted choice).
//! - [`addr`] — host/port addressing and five-tuple flow keys.
//! - [`payload`] — zero-copy refcounted payload buffers shared by every
//!   stage that touches captured bytes.
//! - [`segment`] — timestamped segment records (the capture unit).
//! - [`flow`] — flow handles: open/send/close with MSS segmentation and
//!   per-direction byte accounting.
//! - [`network`] — the world object tying hosts, flows and the trace
//!   together, with latency modeling.
//! - [`trace`] — the capture: filtering, perturbation (drop/reorder for
//!   robustness tests), per-flow reassembly, summary statistics.
//! - [`events`] — a generic stable event queue used by campaign
//!   schedulers and the unified pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod events;
pub mod flow;
pub mod network;
pub mod payload;
pub mod rng;
pub mod segment;
pub mod time;
pub mod trace;

pub use addr::{FiveTuple, HostAddr, HostId};
pub use network::{Network, NetworkSnapshot, ScopeCounter};
pub use payload::PayloadBytes;
pub use rng::SimRng;
pub use segment::{Direction, SegmentRecord};
pub use time::{Duration, SimTime};
pub use trace::Trace;

#[cfg(test)]
mod tests {
    use super::SimRng;

    fn words(seed: u64) -> [u8; 128] {
        let mut buf = [0u8; 128];
        SimRng::new(seed).fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(words(1), words(1));
        assert_ne!(words(1), words(2));
    }
}
