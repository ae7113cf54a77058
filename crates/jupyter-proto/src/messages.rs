//! Typed message headers and contents for the kernel protocol.
//!
//! The REPL families modeled here are the ones Fig. 2 traces through the
//! two-process model and the ones the monitor/auditor inspect. Contents
//! are JSON values on the wire; typed structs keep the simulators honest.

use serde::{Deserialize, Serialize};

/// Kernel protocol version we emit.
pub const PROTOCOL_VERSION: &str = "5.3";

/// Message types (subset sufficient for the REPL + control plane).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MsgType {
    /// Client → shell: run code.
    ExecuteRequest,
    /// Kernel → shell: execution outcome.
    ExecuteReply,
    /// Kernel → iopub: rebroadcast of the code being run.
    ExecuteInput,
    /// Kernel → iopub: expression value.
    ExecuteResult,
    /// Kernel → iopub: stdout/stderr text.
    Stream,
    /// Kernel → iopub: kernel state (busy/idle/starting).
    Status,
    /// Kernel → iopub: exception.
    Error,
    /// Client → shell: kernel info probe.
    KernelInfoRequest,
    /// Kernel → shell: kernel info.
    KernelInfoReply,
    /// Kernel → stdin: request for user input.
    InputRequest,
    /// Client → stdin: the input value.
    InputReply,
    /// Client → control: interrupt.
    InterruptRequest,
    /// Kernel → control: interrupt ack.
    InterruptReply,
    /// Client → control: shutdown.
    ShutdownRequest,
    /// Kernel → control: shutdown ack.
    ShutdownReply,
    /// Either direction: comm open (widgets, custom channels — a known
    /// exfiltration side-channel).
    CommOpen,
    /// Comm payload.
    CommMsg,
    /// Comm teardown.
    CommClose,
}

impl MsgType {
    /// Wire name (snake_case, as in the real protocol).
    pub fn name(self) -> &'static str {
        match self {
            MsgType::ExecuteRequest => "execute_request",
            MsgType::ExecuteReply => "execute_reply",
            MsgType::ExecuteInput => "execute_input",
            MsgType::ExecuteResult => "execute_result",
            MsgType::Stream => "stream",
            MsgType::Status => "status",
            MsgType::Error => "error",
            MsgType::KernelInfoRequest => "kernel_info_request",
            MsgType::KernelInfoReply => "kernel_info_reply",
            MsgType::InputRequest => "input_request",
            MsgType::InputReply => "input_reply",
            MsgType::InterruptRequest => "interrupt_request",
            MsgType::InterruptReply => "interrupt_reply",
            MsgType::ShutdownRequest => "shutdown_request",
            MsgType::ShutdownReply => "shutdown_reply",
            MsgType::CommOpen => "comm_open",
            MsgType::CommMsg => "comm_msg",
            MsgType::CommClose => "comm_close",
        }
    }

    /// Parse a wire name.
    pub fn from_name(s: &str) -> Option<MsgType> {
        Some(match s {
            "execute_request" => MsgType::ExecuteRequest,
            "execute_reply" => MsgType::ExecuteReply,
            "execute_input" => MsgType::ExecuteInput,
            "execute_result" => MsgType::ExecuteResult,
            "stream" => MsgType::Stream,
            "status" => MsgType::Status,
            "error" => MsgType::Error,
            "kernel_info_request" => MsgType::KernelInfoRequest,
            "kernel_info_reply" => MsgType::KernelInfoReply,
            "input_request" => MsgType::InputRequest,
            "input_reply" => MsgType::InputReply,
            "interrupt_request" => MsgType::InterruptRequest,
            "interrupt_reply" => MsgType::InterruptReply,
            "shutdown_request" => MsgType::ShutdownRequest,
            "shutdown_reply" => MsgType::ShutdownReply,
            "comm_open" => MsgType::CommOpen,
            "comm_msg" => MsgType::CommMsg,
            "comm_close" => MsgType::CommClose,
            _ => return None,
        })
    }

    /// Is this a client→kernel request?
    pub fn is_request(self) -> bool {
        matches!(
            self,
            MsgType::ExecuteRequest
                | MsgType::KernelInfoRequest
                | MsgType::InterruptRequest
                | MsgType::ShutdownRequest
                | MsgType::InputReply
        )
    }
}

/// A message header (per the messaging spec).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Unique message id.
    pub msg_id: String,
    /// Session id shared by a client connection.
    pub session: String,
    /// Authenticated username.
    pub username: String,
    /// ISO8601-ish timestamp (we carry simulation microseconds).
    pub date: String,
    /// Message type.
    pub msg_type: MsgType,
    /// Protocol version.
    pub version: String,
}

impl Header {
    /// Build a header; `msg_id` is derived deterministically from
    /// (session, seq). Senders write the same header's JSON directly
    /// with [`header_json`]; this typed form is what that is checked
    /// against.
    pub fn new(msg_type: MsgType, session: &str, username: &str, seq: u64, sim_us: u64) -> Self {
        let mut seed = session.as_bytes().to_vec();
        seed.extend_from_slice(&seq.to_le_bytes());
        let digest = ja_crypto::sha256::sha256(&seed);
        Header {
            msg_id: ja_crypto::hex::encode(&digest[..16]),
            session: session.to_string(),
            username: username.to_string(),
            date: format!("sim+{sim_us}us"),
            msg_type,
            version: PROTOCOL_VERSION.into(),
        }
    }
}

/// The JSON of `Header::new(msg_type, session, username, seq, sim_us)`,
/// byte for byte what `serde_json::to_string` writes for it, written
/// straight into one `String`: the `msg_id` digest is hashed
/// incrementally and hex-encoded in place, and no field is built as a
/// `String` of its own. This is how sessions write every header.
pub fn header_json(
    msg_type: MsgType,
    session: &str,
    username: &str,
    seq: u64,
    sim_us: u64,
) -> String {
    use serde::json::{write_int, write_str};
    let mut digest = ja_crypto::sha256::Sha256::new();
    digest.update(session.as_bytes()).update(&seq.to_le_bytes());
    let digest = digest.finalize();
    // The fixed parts, the two quoted strings and up to 20 date digits.
    let mut out = String::with_capacity(160 + session.len() + username.len());
    out.push_str("{\"msg_id\":\"");
    ja_crypto::hex::encode_into(&digest[..16], &mut out);
    out.push_str("\",\"session\":");
    write_str(session, &mut out);
    out.push_str(",\"username\":");
    write_str(username, &mut out);
    out.push_str(",\"date\":\"sim+");
    write_int(sim_us, &mut out);
    out.push_str("us\",\"msg_type\":\"");
    out.push_str(msg_type.name());
    out.push_str("\",\"version\":\"");
    out.push_str(PROTOCOL_VERSION);
    out.push_str("\"}");
    out
}

/// Kernel execution state carried by `status` messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum ExecutionState {
    /// Kernel accepted work.
    Busy,
    /// Kernel is waiting.
    Idle,
    /// Kernel is starting up.
    Starting,
}

/// `execute_request` content.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecuteRequest {
    /// Code to run.
    pub code: String,
    /// Store in history?
    pub store_history: bool,
    /// Silent execution (no broadcast of input)?
    pub silent: bool,
}

impl ExecuteRequest {
    /// Standard non-silent request.
    pub fn new(code: &str) -> Self {
        ExecuteRequest {
            code: code.to_string(),
            store_history: true,
            silent: false,
        }
    }
}

/// `execute_reply` status field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum ReplyStatus {
    /// Execution succeeded.
    Ok,
    /// Execution raised.
    Error,
    /// Request aborted (e.g. earlier failure in the queue).
    Aborted,
}

/// `execute_reply` content.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecuteReply {
    /// Outcome.
    pub status: ReplyStatus,
    /// Counter after this execution.
    pub execution_count: u32,
}

/// `stream` content.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamContent {
    /// `stdout` or `stderr`.
    pub name: String,
    /// Text chunk.
    pub text: String,
}

/// `status` content.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusContent {
    /// New state.
    pub execution_state: ExecutionState,
}

/// `execute_input` content (iopub rebroadcast).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecuteInputContent {
    /// The code being executed.
    pub code: String,
    /// Counter assigned to this execution.
    pub execution_count: u32,
}

/// `execute_result` content.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecuteResultContent {
    /// Counter of the producing execution.
    pub execution_count: u32,
    /// MIME bundle reduced to text/plain.
    pub data: String,
}

/// `error` content.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorContent {
    /// Exception class.
    pub ename: String,
    /// Exception message.
    pub evalue: String,
}

/// `comm_open`/`comm_msg` content — the widget side-channel.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommContent {
    /// Comm channel id.
    pub comm_id: String,
    /// Opaque payload (exfiltration detectors measure its volume).
    pub data: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_type_names_round_trip() {
        let all = [
            MsgType::ExecuteRequest,
            MsgType::ExecuteReply,
            MsgType::ExecuteInput,
            MsgType::ExecuteResult,
            MsgType::Stream,
            MsgType::Status,
            MsgType::Error,
            MsgType::KernelInfoRequest,
            MsgType::KernelInfoReply,
            MsgType::InputRequest,
            MsgType::InputReply,
            MsgType::InterruptRequest,
            MsgType::InterruptReply,
            MsgType::ShutdownRequest,
            MsgType::ShutdownReply,
            MsgType::CommOpen,
            MsgType::CommMsg,
            MsgType::CommClose,
        ];
        for t in all {
            assert_eq!(MsgType::from_name(t.name()), Some(t));
        }
        assert_eq!(MsgType::from_name("no_such_type"), None);
    }

    #[test]
    fn msg_type_serde_uses_snake_case() {
        let text = serde_json::to_string(&MsgType::ExecuteRequest).unwrap();
        assert_eq!(text, "\"execute_request\"");
    }

    #[test]
    fn header_ids_unique_per_seq() {
        let a = Header::new(MsgType::ExecuteRequest, "s1", "alice", 0, 0);
        let b = Header::new(MsgType::ExecuteRequest, "s1", "alice", 1, 0);
        assert_ne!(a.msg_id, b.msg_id);
        let a2 = Header::new(MsgType::ExecuteRequest, "s1", "alice", 0, 0);
        assert_eq!(a.msg_id, a2.msg_id);
    }

    #[test]
    fn header_serde_round_trip() {
        let h = Header::new(MsgType::Status, "sess", "bob", 3, 12345);
        let text = serde_json::to_string(&h).unwrap();
        let back: Header = serde_json::from_str(&text).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn header_json_equals_serialized_header() {
        for (msg_type, session, username, seq, sim_us) in [
            (MsgType::Status, "sess", "bob", 3, 12345),
            (MsgType::CommOpen, "", "", 0, 0),
            (
                MsgType::ExecuteRequest,
                "s\"q\\\n\u{1}é",
                "ü\t",
                u64::MAX,
                u64::MAX,
            ),
        ] {
            let oracle = Header::new(msg_type, session, username, seq, sim_us);
            assert_eq!(
                header_json(msg_type, session, username, seq, sim_us),
                serde_json::to_string(&oracle).unwrap()
            );
        }
    }

    #[test]
    fn request_classification() {
        assert!(MsgType::ExecuteRequest.is_request());
        assert!(MsgType::ShutdownRequest.is_request());
        assert!(!MsgType::Status.is_request());
        assert!(!MsgType::ExecuteReply.is_request());
    }

    #[test]
    fn content_serde_shapes() {
        let req = ExecuteRequest::new("print(1)");
        let v: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(v["code"], "print(1)");
        assert_eq!(v["silent"], false);

        let st = StatusContent {
            execution_state: ExecutionState::Busy,
        };
        assert_eq!(
            serde_json::to_string(&st).unwrap(),
            "{\"execution_state\":\"busy\"}"
        );
    }
}
