//! # ja-honeypot — edge honeypot fleet and threat-intelligence sharing
//!
//! The paper's second lesson (§IV.A): "Defenders aim to stay ahead of
//! attackers by deploying Jupyter Notebook monitors early at the network
//! edges, for example, on a set of honeypots, to catch the latest
//! signatures of attacks in the wild — before they reach the actual
//! Jupyter Notebooks instances deployed in supercomputers."
//!
//! - [`decoy`] — a decoy notebook server: deliberately exposed, captures
//!   every code payload run on it, has a *realism* score that fingerprinting
//!   attackers test (per the smart-grid honeypot-realism taxonomy the
//!   paper cites).
//! - [`signature`] — extract a signature [`Rule`](ja_monitor::rules::Rule)
//!   from captured attacker code.
//! - [`intel`] — a [`PublishedRule`](intel::PublishedRule): a learned
//!   rule with the instant production monitors may use it.
//!
//! The loop itself — real decoy servers receiving streamed campaign
//! traffic, captures publishing hot-reloaded monitor rules mid-run —
//! is assembled one layer up in `ja_core::intel`, on top of the
//! primitives here ([`Decoy::capture`],
//! [`signature::rule_from_capture`]); experiment E6(c) and ablation A1
//! run it end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decoy;
pub mod intel;
pub mod signature;

pub use decoy::Decoy;
