//! # jupyter-audit
//!
//! A security auditing framework for Jupyter Notebook deployments in
//! HPC/supercomputing environments, reproducing the system described in
//! *"Jupyter Notebook Attacks Taxonomy: Ransomware, Data Exfiltration, and
//! Security Misconfiguration"* (Phuong Cao, SC 2024 workshops,
//! arXiv:2409.19456).
//!
//! The workspace provides, from the bottom up:
//!
//! - [`crypto`] — from-scratch SHA-256 / HMAC-SHA256 (the signature scheme
//!   of the Jupyter wire protocol), a stream cipher used to model opaque
//!   transports, entropy estimators, and quantum-threat bookkeeping models.
//! - [`websocket`] — an RFC 6455 framing codec plus a streaming,
//!   Zeek-analyzer-style decoder.
//! - [`jupyter_proto`] — the nbformat notebook document model and the
//!   Jupyter kernel messaging protocol (multipart frames, HMAC signing,
//!   `shell`/`iopub`/`control`/`stdin`/`hb` channels, REPL state machine).
//! - [`netsim`] — a deterministic discrete-event network simulator with
//!   TCP-like flows and passive monitoring taps.
//! - [`kernelsim`] — a simulated JupyterHub deployment (hub, single-user
//!   servers, kernels, users, virtual filesystem, processes, terminals).
//! - [`attackgen`] — benign scientific workloads and attack campaigns for
//!   every taxonomy class, with low-and-slow / rule-inference evasion.
//! - [`monitor`] — the paper's proposed *Jupyter network monitoring tool*:
//!   flow reassembly, protocol analyzers, behavioural detectors, rules.
//! - [`audit`] — the paper's proposed *Jupyter kernel auditing tool*:
//!   embedded tracer, ring buffer, provenance graph, audit detectors.
//! - [`honeypot`] — the edge honeypot intel loop that learns attack
//!   signatures before they reach production instances (an alias of
//!   `core::intel`).
//! - [`core`] — the attack taxonomy (Fig. 1), the OSCRP risk model
//!   (Fig. 3), the classification engine, the unified pipeline, reports,
//!   and the open dataset schema.
//!
//! ## Quickstart
//!
//! ```
//! use jupyter_audit::core::pipeline::{CampaignPlan, Pipeline, PipelineConfig};
//! use jupyter_audit::attackgen::AttackClass;
//!
//! // Build a small deployment, run a ransomware campaign against it, and
//! // let the combined monitor+audit pipeline classify what it saw. The
//! // scenario is analyzed as it is generated, here on two monitor shard
//! // workers; the output is the same at any producer or shard count.
//! let mut config = PipelineConfig::small_lab(7);
//! config.shards = Some(2);
//! let mut pipeline = Pipeline::new(config);
//! let plan = CampaignPlan::single(AttackClass::Ransomware);
//! let outcome = pipeline.run(&plan);
//! assert!(outcome.report.alerts_total() > 0);
//! ```
#![warn(missing_docs)]

pub use ja_attackgen as attackgen;
pub use ja_audit as audit;
pub use ja_core as core;
pub use ja_core::intel as honeypot;
pub use ja_crypto as crypto;
pub use ja_jupyter_proto as jupyter_proto;
pub use ja_kernelsim as kernelsim;
pub use ja_monitor as monitor;
pub use ja_netsim as netsim;
pub use ja_websocket as websocket;

/// Semantic version of the jupyter-audit workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
