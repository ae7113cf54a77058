//! # ja-monitor — the Jupyter network monitoring tool
//!
//! The paper calls for "a network monitoring system … to identify
//! malicious users masquerading as legitimate ones in Jupyter notebooks"
//! (§IV.B). This crate is that tool, built the way Zeek builds sensors:
//!
//! ```text
//! capture → per-flow TCP reassembly → protocol analyzers (HTTP upgrade,
//! WebSocket, Jupyter wire, opacity/TLS) → feature extraction →
//! detectors (one per taxonomy class) + signature rules → alerts
//! ```
//!
//! Two properties the experiments measure live here:
//!
//! - **Visibility** (E7): analyzers parse exactly as far as the
//!   transport allows — plaintext WS yields cell source code; TLS yields
//!   only flow shapes; TLS-with-inspection yields framing but not E2E
//!   message bodies.
//! - **Scalability** (E5): everything runs on the [`streaming`] core.
//!   [`streaming::StreamingMonitor`] consumes records incrementally
//!   and evicts flows as they close, bounding memory by *live* flows;
//!   [`engine::Monitor::analyze_stream`] fans a live feed out to shard
//!   workers by flow id — the paper's "harness the power of
//!   supercomputers" mitigation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod analyzers;
pub mod detectors;
pub mod engine;
pub mod features;
pub mod matcher;
pub mod reassembly;
pub mod rules;
mod scan;
pub mod streaming;

pub use alerts::{Alert, AlertSource};
pub use engine::{shard_of, Monitor, MonitorConfig, MonitorStats};
pub use features::FlowFeatures;
pub use matcher::{CompiledRuleSet, FeedCache, MatchMode, MatcherState, PatternMatcher};
pub use streaming::{MonitorShardSnapshot, StreamingConfig, StreamingMonitor};
