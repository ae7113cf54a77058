//! # ja-jupyter-proto — the Jupyter protocol substrate
//!
//! Implements the two document/wire formats the paper's threat model is
//! built on (§II, Fig. 2):
//!
//! - [`nbformat`] — the notebook document: "Jupyter notebooks represent
//!   code, results, and notes … using JSON documents. A JSON string
//!   represents each cell."
//! - [`wire`] — the kernel messaging protocol: multipart messages with
//!   ZMQ identities, the `<IDS|MSG>` delimiter, and an HMAC-SHA256
//!   signature over `header || parent_header || metadata || content`.
//! - [`messages`] — typed headers and message contents for the REPL
//!   message families (`execute_request`, `status`, `stream`, …).
//! - [`channels`] — the five sockets (`shell`, `iopub`, `control`,
//!   `stdin`, `hb`).
//! - [`session`] — the two-process REPL model of Fig. 2: a kernel-side
//!   state machine that turns an `execute_request` into the canonical
//!   busy → input → output → idle → reply sequence, and a validator the
//!   tests and the monitor use to check sequences.
//! - [`kernelspec`] — kernel descriptors (Python, R, Julia) since
//!   "notebooks can be processed by any programming language through
//!   kernels".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channels;
pub mod kernelspec;
pub mod messages;
pub mod nbformat;
pub mod session;
pub mod wire;

pub use channels::Channel;
pub use messages::{Header, MsgType};
pub use nbformat::{Cell, Notebook};
pub use session::{CellOutcome, ClientSession};
pub use wire::WireMessage;
