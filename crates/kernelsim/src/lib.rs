//! # ja-kernelsim — a simulated JupyterHub deployment
//!
//! The paper studies attacks against production Jupyter deployments at
//! HPC centers (NCSA Delta, NERSC Perlmutter, …). We cannot ship a
//! production deployment, so this crate simulates one with enough
//! fidelity that every attack class in the taxonomy has its real
//! observable footprint:
//!
//! - protocol traffic (signed kernel messages over WebSocket over
//!   simulated TCP — what the *network monitor* sees),
//! - kernel-level side effects (file/process/network syscall events —
//!   what the *kernel auditing tool* sees),
//! - authentication events at the hub (what account-takeover detectors
//!   see), and
//! - configuration state (what the *misconfiguration scanner* sees).
//!
//! Modules:
//! - [`config`] — server/deployment configuration incl. seedable
//!   misconfigurations (auth mode, TLS, HMAC, exposed ports, CVE level).
//! - [`vfs`] — virtual filesystem with content models (text, CSV, model
//!   weights, archives) whose byte statistics are real, so entropy-based
//!   ransomware detection is meaningful.
//! - [`process`] — process table with CPU accounting (cryptomining
//!   footprint).
//! - [`users`] — user accounts, credential strength, MFA (takeover
//!   modeling).
//! - [`terminal`] — terminal sessions and command history (Jupyter's
//!   terminal attack surface).
//! - [`events`] — the kernel-level system-event stream the audit tool
//!   consumes.
//! - [`actions`] — the cell effect model: what executing a cell *does*.
//! - [`server`] — a single-user notebook server: kernels, sessions,
//!   transport encryption, cell execution wiring everything together.
//! - [`transport`] — what a client request gets back: the kernel's
//!   replies, decoded by [`ClientConn::decode_outcome`].
//! - [`hub`] — the JupyterHub front door: logins, spawning, auth log.
//! - [`deployment`] — fleet builder for multi-server experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod config;
pub mod deployment;
pub mod events;
pub mod hub;
pub mod process;
pub mod server;
pub mod terminal;
pub mod transport;
pub mod users;
pub mod vfs;

pub use actions::{Action, CellScript};
pub use config::{AuthMode, ServerConfig, TransportMode};
pub use deployment::Deployment;
pub use events::{SysEvent, SysEventKind};
pub use hub::Hub;
pub use server::{ClientConn, NotebookServer};
pub use transport::SessionDelivery;
