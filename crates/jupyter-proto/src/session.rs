//! The two-process REPL model of Fig. 2.
//!
//! "The client takes the user's code specified in a cell, sends it to the
//! corresponding kernel to execute, and returns the result to the client
//! for display" (§II). [`ClientSession`] plays the client (signs and
//! sequences requests); [`KernelSession`] plays the kernel (verifies,
//! executes, and emits the canonical iopub/shell message sequence);
//! [`validate_execute_sequence`] checks conformance — used by experiment
//! E2 and by the monitor's protocol-conformance feature.

use crate::channels::Channel;
use crate::messages::{
    header_json, ErrorContent, ExecuteInputContent, ExecuteReply, ExecuteRequest,
    ExecuteResultContent, ExecutionState, Header, MsgType, ReplyStatus, StatusContent,
    StreamContent,
};
use crate::wire::{WireError, WireMessage};
use ja_crypto::hmac::HmacSha256;

/// What executing a cell "does", as observable protocol output. The
/// kernel simulator derives this from its effect model; tests construct
/// it directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellEffect {
    /// Text written to stdout.
    pub stdout: Option<String>,
    /// Text written to stderr.
    pub stderr: Option<String>,
    /// Final expression value.
    pub result: Option<String>,
    /// Raised exception (ename, evalue); forces an error reply.
    pub error: Option<(String, String)>,
}

impl CellEffect {
    /// Effect producing only a result value.
    pub fn result(v: &str) -> Self {
        CellEffect {
            result: Some(v.to_string()),
            ..Default::default()
        }
    }

    /// Effect producing only stdout text.
    pub fn stdout(s: &str) -> Self {
        CellEffect {
            stdout: Some(s.to_string()),
            ..Default::default()
        }
    }

    /// Effect raising an exception.
    pub fn error(ename: &str, evalue: &str) -> Self {
        CellEffect {
            error: Some((ename.to_string(), evalue.to_string())),
            ..Default::default()
        }
    }
}

/// What a client *learned* from one execute exchange: the decoded,
/// typed view of the kernel's reply sequence. This is the receive half
/// of the two-process model — the thing an interactive adversary (or a
/// notebook UI) reacts to. Produced by
/// [`ClientSession::decode_responses`] from raw wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellOutcome {
    /// Outcome status from the shell `execute_reply`.
    pub status: ReplyStatus,
    /// Execution counter assigned by the kernel.
    pub execution_count: u32,
    /// Concatenated stdout stream text.
    pub stdout: String,
    /// Concatenated stderr stream text.
    pub stderr: String,
    /// Final expression value, when any.
    pub result: Option<String>,
    /// Raised exception `(ename, evalue)`, when any.
    pub error: Option<(String, String)>,
    /// Protocol-conformance violation reported by
    /// [`validate_execute_sequence`] over the reply trace, when any.
    pub violation: Option<String>,
}

impl CellOutcome {
    /// Did the cell run cleanly: ok reply, no exception, conformant
    /// message sequence?
    pub fn succeeded(&self) -> bool {
        self.status == ReplyStatus::Ok && self.error.is_none() && self.violation.is_none()
    }

    /// Outcome of a terminal command (no kernel protocol on that
    /// channel — the command's output is all there is).
    pub fn from_terminal(output: &str) -> Self {
        CellOutcome {
            status: ReplyStatus::Ok,
            execution_count: 0,
            stdout: output.to_string(),
            stderr: String::new(),
            result: None,
            error: None,
            violation: None,
        }
    }
}

/// The session MAC for `key`: keyed once here and cloned per message
/// (`None` when the key is empty, i.e. signing is disabled).
fn session_mac(key: &[u8]) -> Option<HmacSha256> {
    (!key.is_empty()).then(|| HmacSha256::new(key))
}

/// Client half of the two-process model.
///
/// The session holds its keyed [`HmacSha256`], never the raw key, so
/// `{:?}` cannot print key material.
#[derive(Clone, Debug)]
pub struct ClientSession {
    /// Session id shared by all messages from this client.
    pub session_id: String,
    /// Authenticated username.
    pub username: String,
    mac: Option<HmacSha256>,
    seq: u64,
}

impl ClientSession {
    /// New client session signing with `key` (empty key ⇒ unsigned). The
    /// MAC is keyed once here and cloned for each message, as
    /// jupyter_client's `Session.auth.copy()` does.
    pub fn new(session_id: &str, username: &str, key: &[u8]) -> Self {
        ClientSession {
            session_id: session_id.to_string(),
            username: username.to_string(),
            mac: session_mac(key),
            seq: 0,
        }
    }

    /// Produce a signed request message of the given type and content.
    pub fn request(&mut self, msg_type: MsgType, content_json: String, sim_us: u64) -> WireMessage {
        let header = header_json(msg_type, &self.session_id, &self.username, self.seq, sim_us);
        self.seq += 1;
        WireMessage::build(
            self.mac.as_ref(),
            vec![self.session_id.as_bytes().to_vec()],
            header,
            None,
            content_json,
        )
    }

    /// Convenience: an `execute_request` for `code`.
    pub fn execute_request(&mut self, code: &str, sim_us: u64) -> WireMessage {
        let content =
            serde_json::to_string(&ExecuteRequest::new(code)).expect("content serializes");
        self.request(MsgType::ExecuteRequest, content, sim_us)
    }

    /// Messages issued so far.
    pub fn messages_sent(&self) -> u64 {
        self.seq
    }

    /// The receive half: decode one execute exchange's kernel replies
    /// into a typed [`CellOutcome`].
    ///
    /// Every reply is signature-verified with the session key, the
    /// `(channel, msg_type)` trace is checked against the canonical
    /// Fig. 2 shape via [`validate_execute_sequence`] (recorded as
    /// `violation`, not an error — a non-conformant kernel is a
    /// *finding*, not a decode failure), and stream/result/error
    /// contents are parsed out. Fails only when a reply is forged,
    /// unparseable, or the shell `execute_reply` is missing entirely.
    pub fn decode_responses(
        &self,
        replies: &[(Channel, WireMessage)],
    ) -> Result<CellOutcome, WireError> {
        let mut trace = Vec::with_capacity(replies.len());
        let mut stdout = String::new();
        let mut stderr = String::new();
        let mut result = None;
        let mut error = None;
        let mut reply: Option<ExecuteReply> = None;
        for (channel, msg) in replies {
            if !msg.verify(self.mac.as_ref()) {
                return Err(WireError::BadSignature);
            }
            let header = msg.parsed_header()?;
            trace.push((*channel, header.msg_type));
            match header.msg_type {
                MsgType::Stream => {
                    let c: StreamContent =
                        serde_json::from_str(&msg.content).map_err(|_| WireError::BadHeader)?;
                    if c.name == "stderr" {
                        stderr.push_str(&c.text);
                    } else {
                        stdout.push_str(&c.text);
                    }
                }
                MsgType::ExecuteResult => {
                    let c: ExecuteResultContent =
                        serde_json::from_str(&msg.content).map_err(|_| WireError::BadHeader)?;
                    result = Some(c.data);
                }
                MsgType::Error => {
                    let c: ErrorContent =
                        serde_json::from_str(&msg.content).map_err(|_| WireError::BadHeader)?;
                    error = Some((c.ename, c.evalue));
                }
                MsgType::ExecuteReply => {
                    reply =
                        Some(serde_json::from_str(&msg.content).map_err(|_| WireError::BadHeader)?);
                }
                _ => {}
            }
        }
        let reply = reply.ok_or(WireError::TruncatedMessage)?;
        Ok(CellOutcome {
            status: reply.status,
            execution_count: reply.execution_count,
            stdout,
            stderr,
            result,
            error,
            violation: validate_execute_sequence(&trace),
        })
    }
}

/// Kernel half of the two-process model.
///
/// Like [`ClientSession`], it holds the keyed [`HmacSha256`] rather than
/// the raw key.
#[derive(Clone, Debug)]
pub struct KernelSession {
    /// Kernel-side session id (distinct from client session).
    pub kernel_session_id: String,
    mac: Option<HmacSha256>,
    execution_count: u32,
    seq: u64,
    state: ExecutionState,
}

impl KernelSession {
    /// New kernel session verifying/signing with `key` (empty key ⇒
    /// unsigned), keyed once here like [`ClientSession::new`].
    pub fn new(kernel_session_id: &str, key: &[u8]) -> Self {
        KernelSession {
            kernel_session_id: kernel_session_id.to_string(),
            mac: session_mac(key),
            execution_count: 0,
            seq: 0,
            state: ExecutionState::Starting,
        }
    }

    /// Current execution counter.
    pub fn execution_count(&self) -> u32 {
        self.execution_count
    }

    /// Current kernel state.
    pub fn state(&self) -> ExecutionState {
        self.state
    }

    fn emit(
        &mut self,
        msg_type: MsgType,
        parent: &Parent,
        content_json: String,
        sim_us: u64,
    ) -> WireMessage {
        let header = header_json(
            msg_type,
            &self.kernel_session_id,
            &parent.header.username,
            self.seq,
            sim_us,
        );
        self.seq += 1;
        WireMessage::build(
            self.mac.as_ref(),
            vec![],
            header,
            Some(&parent.json),
            content_json,
        )
    }

    /// Verify `request` and parse its header for the replies.
    fn accept(&self, request: &WireMessage) -> Result<Parent, WireError> {
        if !request.verify(self.mac.as_ref()) {
            return Err(WireError::BadSignature);
        }
        let header = request.parsed_header()?;
        // Re-serialized rather than copied from `request.header`, so a
        // non-canonical request header cannot change the replies.
        let json = serde_json::to_string(&header).expect("header serializes");
        Ok(Parent { header, json })
    }

    fn status(&mut self, parent: &Parent, state: ExecutionState, sim_us: u64) -> WireMessage {
        self.state = state;
        let content = serde_json::to_string(&StatusContent {
            execution_state: state,
        })
        .expect("serializes");
        self.emit(MsgType::Status, parent, content, sim_us)
    }

    /// Handle an `execute_request`, producing the canonical Fig. 2
    /// sequence as `(channel, message)` pairs:
    ///
    /// 1. iopub `status: busy`
    /// 2. iopub `execute_input`
    /// 3. iopub `stream` / `execute_result` / `error` (per `effect`)
    /// 4. iopub `status: idle`
    /// 5. shell `execute_reply`
    ///
    /// Fails with [`WireError::BadSignature`] when the request does not
    /// verify — the protocol-level defense the paper credits HMAC for.
    pub fn handle_execute(
        &mut self,
        request: &WireMessage,
        effect: &CellEffect,
        sim_us: u64,
    ) -> Result<Vec<(Channel, WireMessage)>, WireError> {
        let parent = self.accept(request)?;
        let req: ExecuteRequest =
            serde_json::from_str(&request.content).map_err(|_| WireError::BadHeader)?;
        let mut out = Vec::with_capacity(6);
        out.push((
            Channel::IoPub,
            self.status(&parent, ExecutionState::Busy, sim_us),
        ));
        self.execution_count += 1;
        let count = self.execution_count;
        if !req.silent {
            let input = serde_json::to_string(&ExecuteInputContent {
                code: req.code.clone(),
                execution_count: count,
            })
            .expect("serializes");
            out.push((
                Channel::IoPub,
                self.emit(MsgType::ExecuteInput, &parent, input, sim_us),
            ));
        }
        if let Some(text) = &effect.stdout {
            let c = serde_json::to_string(&StreamContent {
                name: "stdout".into(),
                text: text.clone(),
            })
            .expect("serializes");
            out.push((
                Channel::IoPub,
                self.emit(MsgType::Stream, &parent, c, sim_us),
            ));
        }
        if let Some(text) = &effect.stderr {
            let c = serde_json::to_string(&StreamContent {
                name: "stderr".into(),
                text: text.clone(),
            })
            .expect("serializes");
            out.push((
                Channel::IoPub,
                self.emit(MsgType::Stream, &parent, c, sim_us),
            ));
        }
        let reply_status = if let Some((ename, evalue)) = &effect.error {
            let c = serde_json::to_string(&ErrorContent {
                ename: ename.clone(),
                evalue: evalue.clone(),
            })
            .expect("serializes");
            out.push((
                Channel::IoPub,
                self.emit(MsgType::Error, &parent, c, sim_us),
            ));
            ReplyStatus::Error
        } else {
            if let Some(v) = &effect.result {
                let c = serde_json::to_string(&ExecuteResultContent {
                    execution_count: count,
                    data: v.clone(),
                })
                .expect("serializes");
                out.push((
                    Channel::IoPub,
                    self.emit(MsgType::ExecuteResult, &parent, c, sim_us),
                ));
            }
            ReplyStatus::Ok
        };
        out.push((
            Channel::IoPub,
            self.status(&parent, ExecutionState::Idle, sim_us),
        ));
        let reply = serde_json::to_string(&ExecuteReply {
            status: reply_status,
            execution_count: count,
        })
        .expect("serializes");
        out.push((
            Channel::Shell,
            self.emit(MsgType::ExecuteReply, &parent, reply, sim_us),
        ));
        Ok(out)
    }

    /// Handle a control-channel request (interrupt/shutdown), producing
    /// the busy/ack/idle triple.
    pub fn handle_control(
        &mut self,
        request: &WireMessage,
        sim_us: u64,
    ) -> Result<Vec<(Channel, WireMessage)>, WireError> {
        let parent = self.accept(request)?;
        let reply_type = match parent.header.msg_type {
            MsgType::InterruptRequest => MsgType::InterruptReply,
            MsgType::ShutdownRequest => MsgType::ShutdownReply,
            _ => return Err(WireError::BadHeader),
        };
        let busy = (
            Channel::IoPub,
            self.status(&parent, ExecutionState::Busy, sim_us),
        );
        let reply = (
            Channel::Control,
            self.emit(reply_type, &parent, "{}".into(), sim_us),
        );
        let idle = (
            Channel::IoPub,
            self.status(&parent, ExecutionState::Idle, sim_us),
        );
        Ok(vec![busy, reply, idle])
    }

    /// Heartbeat echo: the hb channel returns its input unchanged.
    pub fn heartbeat(&self, ping: &[u8]) -> Vec<u8> {
        ping.to_vec()
    }
}

/// A verified request's header, parsed and serialized once for every reply.
struct Parent {
    header: Header,
    json: String,
}

/// Conformance check for an execute exchange (Fig. 2): given the
/// `(channel, msg_type)` trace of one request's responses, verify the
/// canonical shape. Returns a human-readable violation, or `None` when
/// conformant.
pub fn validate_execute_sequence(trace: &[(Channel, MsgType)]) -> Option<String> {
    if trace.is_empty() {
        return Some("empty trace".into());
    }
    if trace[0] != (Channel::IoPub, MsgType::Status) {
        return Some(format!("first message is {:?}, not iopub status", trace[0]));
    }
    let last = *trace.last().expect("non-empty");
    if last != (Channel::Shell, MsgType::ExecuteReply) {
        return Some(format!("last message is {last:?}, not shell execute_reply"));
    }
    // Second-to-last must be the idle status.
    if trace.len() < 3 {
        return Some("trace too short for busy/idle bracket".into());
    }
    if trace[trace.len() - 2] != (Channel::IoPub, MsgType::Status) {
        return Some("missing idle status before execute_reply".into());
    }
    // Everything between must be iopub output traffic.
    for (i, &(ch, mt)) in trace[1..trace.len() - 2].iter().enumerate() {
        if ch != Channel::IoPub {
            return Some(format!("interior message {i} on {ch:?}, not iopub"));
        }
        if !matches!(
            mt,
            MsgType::ExecuteInput | MsgType::Stream | MsgType::ExecuteResult | MsgType::Error
        ) {
            return Some(format!("interior message {i} has type {mt:?}"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8] = b"fig2-key";

    fn run_one(effect: CellEffect) -> Vec<(Channel, WireMessage)> {
        let mut client = ClientSession::new("cs-1", "alice", KEY);
        let mut kernel = KernelSession::new("ks-1", KEY);
        let req = client.execute_request("x = 1", 1000);
        kernel.handle_execute(&req, &effect, 1001).unwrap()
    }

    fn trace_of(msgs: &[(Channel, WireMessage)]) -> Vec<(Channel, MsgType)> {
        msgs.iter()
            .map(|(c, m)| (*c, m.msg_type().unwrap()))
            .collect()
    }

    #[test]
    fn canonical_sequence_for_result() {
        let msgs = run_one(CellEffect::result("1"));
        let trace = trace_of(&msgs);
        assert_eq!(
            trace,
            vec![
                (Channel::IoPub, MsgType::Status),
                (Channel::IoPub, MsgType::ExecuteInput),
                (Channel::IoPub, MsgType::ExecuteResult),
                (Channel::IoPub, MsgType::Status),
                (Channel::Shell, MsgType::ExecuteReply),
            ]
        );
        assert_eq!(validate_execute_sequence(&trace), None);
    }

    #[test]
    fn canonical_sequence_for_stdout_and_error() {
        let msgs = run_one(CellEffect {
            stdout: Some("partial\n".into()),
            error: Some(("ValueError".into(), "bad".into())),
            ..Default::default()
        });
        let trace = trace_of(&msgs);
        assert_eq!(
            trace,
            vec![
                (Channel::IoPub, MsgType::Status),
                (Channel::IoPub, MsgType::ExecuteInput),
                (Channel::IoPub, MsgType::Stream),
                (Channel::IoPub, MsgType::Error),
                (Channel::IoPub, MsgType::Status),
                (Channel::Shell, MsgType::ExecuteReply),
            ]
        );
        assert_eq!(validate_execute_sequence(&trace), None);
        // Reply must carry error status.
        let reply: ExecuteReply = serde_json::from_str(&msgs.last().unwrap().1.content).unwrap();
        assert_eq!(reply.status, ReplyStatus::Error);
    }

    #[test]
    fn all_responses_signed_and_parented() {
        let mut client = ClientSession::new("cs-2", "bob", KEY);
        let mut kernel = KernelSession::new("ks-2", KEY);
        let req = client.execute_request("print('hi')", 5);
        let msgs = kernel
            .handle_execute(&req, &CellEffect::stdout("hi\n"), 6)
            .unwrap();
        let parent = req.parsed_header().unwrap();
        for (_, m) in &msgs {
            assert!(m.verify(Some(&HmacSha256::new(KEY))));
            let p: Header = serde_json::from_str(&m.parent_header).unwrap();
            assert_eq!(p.msg_id, parent.msg_id);
        }
    }

    #[test]
    fn execution_count_increments() {
        let mut client = ClientSession::new("cs-3", "eve", KEY);
        let mut kernel = KernelSession::new("ks-3", KEY);
        for want in 1..=3u32 {
            let req = client.execute_request("1+1", want as u64);
            let msgs = kernel
                .handle_execute(&req, &CellEffect::result("2"), 0)
                .unwrap();
            let reply: ExecuteReply =
                serde_json::from_str(&msgs.last().unwrap().1.content).unwrap();
            assert_eq!(reply.execution_count, want);
        }
        assert_eq!(kernel.execution_count(), 3);
    }

    #[test]
    fn forged_request_rejected() {
        let mut client = ClientSession::new("cs-4", "mallory", b"attacker-key");
        let mut kernel = KernelSession::new("ks-4", KEY);
        let req = client.execute_request("__import__('os').system('id')", 0);
        assert_eq!(
            kernel.handle_execute(&req, &CellEffect::default(), 0),
            Err(WireError::BadSignature)
        );
        assert_eq!(kernel.execution_count(), 0);
    }

    #[test]
    fn unsigned_kernel_accepts_unsigned_requests() {
        // Misconfigured deployment: empty key on both sides.
        let mut client = ClientSession::new("cs-5", "anon", &[]);
        let mut kernel = KernelSession::new("ks-5", &[]);
        let req = client.execute_request("whoami", 0);
        let msgs = kernel
            .handle_execute(&req, &CellEffect::stdout("root\n"), 0)
            .unwrap();
        assert!(!msgs.is_empty());
    }

    #[test]
    fn silent_execution_omits_execute_input() {
        let mut client = ClientSession::new("cs-6", "alice", KEY);
        let mut kernel = KernelSession::new("ks-6", KEY);
        let content = serde_json::to_string(&ExecuteRequest {
            code: "stealth()".into(),
            store_history: false,
            silent: true,
        })
        .unwrap();
        let req = client.request(MsgType::ExecuteRequest, content, 0);
        let msgs = kernel
            .handle_execute(&req, &CellEffect::default(), 0)
            .unwrap();
        let trace = trace_of(&msgs);
        assert!(!trace.contains(&(Channel::IoPub, MsgType::ExecuteInput)));
        // Silent mode is the attacker's friend: still conformant shape-wise.
        assert_eq!(validate_execute_sequence(&trace), None);
    }

    #[test]
    fn control_shutdown_sequence() {
        let mut client = ClientSession::new("cs-7", "alice", KEY);
        let mut kernel = KernelSession::new("ks-7", KEY);
        let req = client.request(MsgType::ShutdownRequest, "{\"restart\":false}".into(), 0);
        let msgs = kernel.handle_control(&req, 0).unwrap();
        let trace = trace_of(&msgs);
        assert_eq!(
            trace,
            vec![
                (Channel::IoPub, MsgType::Status),
                (Channel::Control, MsgType::ShutdownReply),
                (Channel::IoPub, MsgType::Status),
            ]
        );
    }

    #[test]
    fn replies_carry_the_reserialized_request_header() {
        let mut client = ClientSession::new("cs-14", "alice", KEY);
        let mut kernel = KernelSession::new("ks-14", KEY);
        let execute = client.execute_request("print(1)", 3);
        let control = client.request(MsgType::InterruptRequest, "{}".into(), 4);
        // A valid but non-canonical header: the replies must carry the
        // canonical form, not these bytes.
        let mut padded = client.execute_request("print(2)", 7);
        padded.header = format!(" {} ", padded.header);
        padded.signature = ja_crypto::hex::encode(&ja_crypto::hmac::hmac_sha256_parts(
            KEY,
            &[
                padded.header.as_bytes(),
                padded.parent_header.as_bytes(),
                padded.metadata.as_bytes(),
                padded.content.as_bytes(),
            ],
        ));
        let replies = [
            (
                &execute,
                kernel
                    .handle_execute(&execute, &CellEffect::stdout("1\n"), 5)
                    .unwrap(),
            ),
            (&control, kernel.handle_control(&control, 6).unwrap()),
            (
                &padded,
                kernel
                    .handle_execute(&padded, &CellEffect::result("2"), 8)
                    .unwrap(),
            ),
        ];
        for (request, msgs) in replies {
            let want = serde_json::to_string(&request.parsed_header().unwrap()).unwrap();
            assert_ne!(want, padded.header);
            for (_, m) in msgs {
                assert_eq!(m.parent_header, want);
            }
        }
    }

    #[test]
    fn debug_does_not_print_the_signing_key() {
        let key = b"debug-leak-probe-key";
        let byte_list = format!("{:?}", key.to_vec());
        let inner = byte_list.trim_matches(|c| c == '[' || c == ']');
        let hex = ja_crypto::hex::encode(key);
        let client = format!("{:?}", ClientSession::new("cs-15", "alice", key));
        let kernel = format!("{:?}", KernelSession::new("ks-15", key));
        for dbg in [client, kernel] {
            assert!(!dbg.contains(inner), "{dbg}");
            assert!(!dbg.contains(&hex), "{dbg}");
            assert!(!dbg.contains("debug-leak-probe-key"), "{dbg}");
        }
    }

    #[test]
    fn heartbeat_echo() {
        let kernel = KernelSession::new("ks-8", KEY);
        assert_eq!(kernel.heartbeat(b"ping-7"), b"ping-7".to_vec());
    }

    #[test]
    fn decode_responses_round_trips_effect() {
        let mut client = ClientSession::new("cs-9", "alice", KEY);
        let mut kernel = KernelSession::new("ks-9", KEY);
        let req = client.execute_request("print('hi'); 2+2", 10);
        let effect = CellEffect {
            stdout: Some("hi\n".into()),
            result: Some("4".into()),
            ..Default::default()
        };
        let msgs = kernel.handle_execute(&req, &effect, 11).unwrap();
        let outcome = client.decode_responses(&msgs).unwrap();
        assert!(outcome.succeeded());
        assert_eq!(outcome.status, ReplyStatus::Ok);
        assert_eq!(outcome.execution_count, 1);
        assert_eq!(outcome.stdout, "hi\n");
        assert_eq!(outcome.result.as_deref(), Some("4"));
        assert_eq!(outcome.error, None);
        assert_eq!(outcome.violation, None);
    }

    #[test]
    fn decode_responses_surfaces_error_and_stderr() {
        let mut client = ClientSession::new("cs-10", "bob", KEY);
        let mut kernel = KernelSession::new("ks-10", KEY);
        let req = client.execute_request("open('/nope')", 0);
        let effect = CellEffect {
            stderr: Some("Traceback...\n".into()),
            error: Some(("FileNotFoundError".into(), "/nope".into())),
            ..Default::default()
        };
        let msgs = kernel.handle_execute(&req, &effect, 1).unwrap();
        let outcome = client.decode_responses(&msgs).unwrap();
        assert!(!outcome.succeeded());
        assert_eq!(outcome.status, ReplyStatus::Error);
        assert_eq!(outcome.stderr, "Traceback...\n");
        assert_eq!(
            outcome.error,
            Some(("FileNotFoundError".into(), "/nope".into()))
        );
    }

    #[test]
    fn decode_responses_rejects_forged_replies() {
        let mut client = ClientSession::new("cs-11", "eve", KEY);
        let mut kernel = KernelSession::new("ks-11", KEY);
        let req = client.execute_request("1", 0);
        let mut msgs = kernel
            .handle_execute(&req, &CellEffect::result("1"), 0)
            .unwrap();
        // Tamper with a reply body after signing.
        msgs[2].1.content.push(' ');
        assert_eq!(client.decode_responses(&msgs), Err(WireError::BadSignature));
    }

    #[test]
    fn decode_responses_flags_nonconformant_trace() {
        let mut client = ClientSession::new("cs-12", "alice", KEY);
        let mut kernel = KernelSession::new("ks-12", KEY);
        let req = client.execute_request("1", 0);
        let mut msgs = kernel
            .handle_execute(&req, &CellEffect::result("1"), 0)
            .unwrap();
        // Drop the leading busy status: still decodable, but flagged.
        msgs.remove(0);
        let outcome = client.decode_responses(&msgs).unwrap();
        assert!(outcome.violation.is_some());
        assert!(!outcome.succeeded());
    }

    #[test]
    fn decode_responses_requires_execute_reply() {
        let mut client = ClientSession::new("cs-13", "alice", KEY);
        let mut kernel = KernelSession::new("ks-13", KEY);
        let req = client.execute_request("1", 0);
        let mut msgs = kernel
            .handle_execute(&req, &CellEffect::result("1"), 0)
            .unwrap();
        msgs.pop();
        assert_eq!(
            client.decode_responses(&msgs),
            Err(WireError::TruncatedMessage)
        );
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        use Channel::*;
        use MsgType::*;
        assert!(validate_execute_sequence(&[]).is_some());
        // Missing leading busy status.
        assert!(validate_execute_sequence(&[
            (IoPub, Stream),
            (IoPub, Status),
            (Shell, ExecuteReply)
        ])
        .is_some());
        // Reply on wrong channel.
        assert!(validate_execute_sequence(&[
            (IoPub, Status),
            (IoPub, Status),
            (IoPub, ExecuteReply)
        ])
        .is_some());
        // Interior message on shell.
        assert!(validate_execute_sequence(&[
            (IoPub, Status),
            (Shell, Stream),
            (IoPub, Status),
            (Shell, ExecuteReply)
        ])
        .is_some());
    }
}
