//! # ja-core — taxonomy, risk model, and the unified auditing pipeline
//!
//! The paper's primary contribution is (1) the taxonomy of attacks
//! against Jupyter deployments (Fig. 1), (2) the threat model following
//! TrustedCI's Open Science Cyber Risk Profile (Fig. 3 / Table 1), and
//! (3) the design of an auditing architecture with "better visibility
//! against such attacks". This crate is that contribution:
//!
//! - [`taxonomy`] — the Fig. 1 tree, with every node bound to an
//!   executable campaign generator and at least one detector.
//! - [`oscrp`] — avenues → concerns → consequences (Fig. 3), total and
//!   tested.
//! - [`intel`] — the live honeypot-intel loop: decoy servers capture
//!   wave payloads mid-stream, and their signatures hot-reload into the
//!   running monitor after a propagation delay. It also holds the
//!   loop's primitives: signature extraction, the decoy fingerprinting
//!   draw and the published-rule record (the facade re-exports the
//!   module as `honeypot`).
//! - [`classify`] — alert → incident grouping → OSCRP mapping.
//! - [`metrics`] — precision/recall/F1 scoring of alerts against ground
//!   truth (the E4 instrument).
//! - [`risk`] — incident risk scoring (likelihood × consequence weight).
//! - [`pipeline`] — the end-to-end system: deployment + campaigns +
//!   network monitor + kernel audit + honeypot intel → report.
//! - [`report`] — human-readable tables for every experiment binary.
//! - [`dataset`] — the "Jupyter Security & Resiliency Data Set" export
//!   schema (anonymized events + flow summaries + labels).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod dataset;
pub mod intel;
pub mod metrics;
pub mod oscrp;
pub mod pipeline;
pub mod report;
pub mod risk;
pub mod service;
pub mod taxonomy;

pub use intel::{build_wave, IntelConfig, IntelOutcome, WaveSpec};
pub use metrics::{score, ClassScore, Scoreboard};
pub use oscrp::{Concern, Consequence};
pub use pipeline::{Pipeline, PipelineConfig};
pub use service::{
    MixSource, PlanSource, QueueSource, RestoreError, ServiceCheckpoint, ServiceConfig,
    ServiceError, SocService,
};
pub use taxonomy::Taxonomy;

#[cfg(test)]
mod tests {
    use crate::pipeline::par_map;

    #[test]
    fn preserves_order_and_filters() {
        let data: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = par_map(&data, |&x| (x % 3 == 0).then_some(x * 2))
            .into_iter()
            .flatten()
            .collect();
        let expect: Vec<u64> = (0..10_000).filter(|x| x % 3 == 0).map(|x| x * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_input() {
        let data: Vec<u32> = vec![];
        let out: Vec<u32> = par_map(&data, |&x| x);
        assert!(out.is_empty());
    }
}
