//! Pull-based scenario execution: campaigns in, a time-ordered event
//! stream out, memory bounded by *concurrently live* campaigns.
//!
//! [`ScenarioStream`] is the lazy producer that [`crate::campaign::execute`]
//! and the `ja-core` pipeline both run on. Instead of materializing the
//! whole capture, it schedules campaigns lazily on `ja-netsim`'s event
//! queue (one `Start` event per campaign; a campaign's steps are only
//! enqueued when it starts and are dropped when it retires), executes
//! steps on the shared virtual clock, and yields every observation —
//! [`SegmentRecord`], [`AuthEvent`], [`SysEvent`] — one at a time in
//! canonical time order. Ground truth accumulates as campaigns retire.
//!
//! Three properties make the stream fuse cleanly with the streaming
//! monitor:
//!
//! 1. **Canonical order.** Items are released only once the event
//!    queue's watermark guarantees nothing earlier can still be
//!    emitted, with the same tie-breaks the batch path used (segments:
//!    emission order; sys events: server index then per-server order),
//!    so collecting the stream reproduces the batch `ScenarioOutput`
//!    bit for bit.
//! 2. **Bounded buffering.** Emissions wait in a small pending buffer
//!    only while a not-yet-executed step could still precede them;
//!    sources (the network tap, server audit buffers, the hub auth log)
//!    are drained destructively after every step.
//! 3. **Session teardown.** Client sessions (and the outbound flows
//!    their cells opened) are per-campaign and are closed when the
//!    campaign retires, so downstream flow tables evict them instead of
//!    holding every flow until the capture ends.
//!
//! ```no_run
//! use ja_attackgen::stream::{ScenarioItem, ScenarioStream};
//! # use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
//! let mut deployment = Deployment::build(&DeploymentSpec::small_lab(7));
//! # let campaigns = vec![];
//! let mut stream = ScenarioStream::new(&mut deployment, campaigns, 7);
//! while let Some(item) = stream.next_item() {
//!     match item {
//!         ScenarioItem::Segment(rec) => { /* feed a StreamingMonitor */ }
//!         ScenarioItem::Auth(ev) => { /* feed the auth analyzer */ }
//!         ScenarioItem::Sys(ev) => { /* feed the bounded tracer */ }
//!     }
//! }
//! let (ground_truth, end) = stream.into_labels();
//! ```

use crate::campaign::{Campaign, CampaignStep, GroundTruth, ScenarioOutput};
use crate::interactive::{Adversary, SessionOp};
use crate::AttackClass;
use ja_jupyter_proto::session::CellOutcome;
use ja_kernelsim::deployment::{Deployment, DeploymentPart};
use ja_kernelsim::events::SysEvent;
use ja_kernelsim::hub::AuthEvent;
use ja_kernelsim::server::ClientConn;
use ja_netsim::addr::{HostAddr, HostId};
use ja_netsim::events::EventQueue;
use ja_netsim::network::{Network, NetworkSnapshot};
use ja_netsim::rng::{split_seed, SimRng};
use ja_netsim::segment::SegmentRecord;
use ja_netsim::time::{Duration, SimTime};
use ja_netsim::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};

/// One time-ordered observation produced by an executing scenario.
#[derive(Clone, Debug)]
pub enum ScenarioItem {
    /// A segment captured at the network tap.
    Segment(SegmentRecord),
    /// An entry appended to the hub auth log.
    Auth(AuthEvent),
    /// A kernel-audit event from one of the servers.
    Sys(SysEvent),
}

impl ScenarioItem {
    /// The item's capture timestamp.
    pub fn time(&self) -> SimTime {
        match self {
            ScenarioItem::Segment(r) => r.time,
            ScenarioItem::Auth(e) => e.time,
            ScenarioItem::Sys(e) => e.time,
        }
    }
}

/// What the scheduler pops: campaign starts and individual steps.
#[derive(Clone, Copy, Debug)]
enum SchedEntry {
    /// Campaign `ci` begins; its steps are enqueued now.
    Start(usize),
    /// Step `si` of campaign `ci` executes.
    Step(usize, usize),
}

/// Per-campaign execution state. Steps are dropped and sessions closed
/// when the campaign retires, so long-gone campaigns cost nothing.
struct CampaignRun {
    /// Global campaign index (== position in the full plan). Drives the
    /// scheduler rank, the network allocation scope, and the RNG seed,
    /// so a stream running any *subset* of the plan behaves — campaign
    /// for campaign — exactly like the full sequential run.
    gci: usize,
    class: Option<AttackClass>,
    name: String,
    start: SimTime,
    duration: Duration,
    steps: Vec<CampaignStep>,
    remaining: usize,
    touched: BTreeSet<usize>,
    /// Private RNG, seeded `split_seed(stream_seed, gci)` — independent
    /// of every other campaign's draw history.
    rng: SimRng,
    /// One client session per (server, user) this campaign drives.
    /// BTreeMap so teardown order is deterministic.
    conns: BTreeMap<(usize, String), ClientConn>,
    /// Latest simulated instant any of this campaign's steps reached.
    last_activity: SimTime,
    /// The reactive driver, for interactive campaigns: each executed
    /// step's decoded [`CellOutcome`] feeds it and its next action is
    /// appended to `steps` and scheduled. `None` for scripted campaigns.
    adversary: Option<Adversary>,
}

/// Canonical per-item sort key: `(item time, kind, scheduler pop time,
/// scheduler pop rank, intra-drain index)` for segments and auth events,
/// `(item time, kind, server index, per-server sequence, 0)` for sys
/// events. Every component is computable *locally* by whichever producer
/// runs the emitting campaign — no global counter — yet sorting by key
/// reproduces the exact total order the sequential stream releases.
/// Keys are unique, so a k-way merge of per-producer streams by key is
/// exact. (Within one pop the emission sequence used to be a global
/// counter; pops advance in `(time, rank)` order and drains happen once
/// per pop, so `(pop time, pop rank, intra index)` sorts identically.)
pub type StreamKey = (SimTime, u8, u64, u64, u64);

/// An emitted item waiting for the watermark to pass its timestamp.
#[derive(Debug)]
struct Pending {
    key: StreamKey,
    item: ScenarioItem,
}

const KIND_SEGMENT: u8 = 0;
const KIND_AUTH: u8 = 1;
const KIND_SYS: u8 = 2;

/// Serializable progress of one campaign inside a [`StreamSnapshot`].
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignProgress {
    /// Global campaign index.
    pub gci: u64,
    /// Steps not yet executed.
    pub remaining: u64,
    /// Latest simulated instant any step of this campaign reached.
    pub last_activity: SimTime,
    /// Server indices touched so far.
    pub touched: Vec<u64>,
    /// Client sessions currently open.
    pub open_conns: u64,
    /// Raw xoshiro256++ state of the campaign's private RNG (4 words).
    pub rng: Vec<u64>,
    /// [`Adversary::fingerprint`] of the campaign's interactive driver
    /// (0 for scripted campaigns) — proves a replayed service run's
    /// adversaries converged to the same decision state.
    pub adversary: u64,
}

/// Serializable scheduler state of a [`ScenarioStream`] at a watermark —
/// the ja-attackgen layer of the service checkpoint contract. Captures
/// per-campaign RNG/scope progress and the network allocation counters;
/// equality between the checkpointed snapshot and a replayed stream's
/// snapshot at the same watermark proves the replay converged.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StreamSnapshot {
    /// Per-campaign execution progress, in plan order.
    pub campaigns: Vec<CampaignProgress>,
    /// Network flow/port allocation counters.
    pub net: NetworkSnapshot,
    /// Per-server sys-event sequence numbers.
    pub sys_seq: Vec<u64>,
    /// Campaigns retired so far.
    pub retired: u64,
    /// Items buffered awaiting the watermark.
    pub pending: u64,
    /// Items released but not yet consumed.
    pub ready: u64,
    /// Latest simulated instant reached.
    pub end: SimTime,
    /// True once every campaign retired and the queue drained.
    pub finished: bool,
}

/// Lazy, pull-based scenario executor (see module docs).
pub struct ScenarioStream<'d> {
    part: DeploymentPart<'d>,
    net: Network,
    queue: EventQueue<SchedEntry>,
    campaigns: Vec<CampaignRun>,
    /// Emissions not yet past the watermark (unordered; released and
    /// sorted in waves as the watermark advances, which is cheaper
    /// than a per-item priority queue on the hot path).
    pending: Vec<Pending>,
    /// Earliest timestamp in `pending`.
    min_pending: Option<SimTime>,
    /// Released items, in canonical key order, awaiting the consumer.
    ready: std::collections::VecDeque<(StreamKey, ScenarioItem)>,
    /// Ground truth of retired campaigns, tagged with campaign index so
    /// the final label order matches the batch path (input order).
    retired: Vec<(usize, GroundTruth)>,
    sys_seq: Vec<u64>,
    end: SimTime,
    finished: bool,
    peak_pending: usize,
}

impl<'d> ScenarioStream<'d> {
    /// Set up a stream over `campaigns` against `deployment`.
    /// `starts[i]` semantics match [`crate::campaign::execute`]: each
    /// campaign's steps run at `start + offset`, interleaved with every
    /// other campaign on one clock.
    pub fn new(
        deployment: &'d mut Deployment,
        campaigns: Vec<(SimTime, Campaign)>,
        rng_seed: u64,
    ) -> Self {
        let indexed = campaigns
            .into_iter()
            .enumerate()
            .map(|(ci, (start, c))| (ci, start, c))
            .collect();
        Self::over_part(deployment.as_part(), indexed, rng_seed)
    }

    /// Set up a stream over an explicit deployment part and a subset of
    /// a plan's campaigns, each tagged with its *global* index. This is
    /// the parallel-producer entry: running disjoint subsets on separate
    /// parts and merging the keyed items reproduces the sequential
    /// stream exactly (see [`StreamKey`]).
    pub fn over_part(
        part: DeploymentPart<'d>,
        campaigns: Vec<(usize, SimTime, Campaign)>,
        rng_seed: u64,
    ) -> Self {
        let mut queue = EventQueue::new();
        let runs: Vec<CampaignRun> = campaigns
            .into_iter()
            .enumerate()
            .map(|(local, (gci, start, c))| {
                assert!(
                    gci < u32::MAX as usize,
                    "campaign index exceeds scheduler rank space"
                );
                assert!(
                    c.steps.len() < u32::MAX as usize - 1,
                    "step count exceeds scheduler rank space"
                );
                queue.schedule_ranked(start, rank(gci, None), SchedEntry::Start(local));
                let duration = c.duration();
                CampaignRun {
                    gci,
                    class: c.class,
                    name: c.name,
                    start,
                    duration,
                    remaining: c.steps.len(),
                    steps: c.steps,
                    touched: BTreeSet::new(),
                    rng: SimRng::new(split_seed(rng_seed, gci as u64)),
                    conns: BTreeMap::new(),
                    last_activity: start,
                    adversary: c.adversary,
                }
            })
            .collect();
        let sys_seq = vec![0u64; part.servers.len()];
        ScenarioStream {
            part,
            net: Network::new(),
            queue,
            campaigns: runs,
            pending: Vec::new(),
            min_pending: None,
            ready: std::collections::VecDeque::new(),
            retired: Vec::new(),
            sys_seq,
            end: SimTime::ZERO,
            finished: false,
            peak_pending: 0,
        }
    }

    /// Produce the next time-ordered item, advancing the simulation as
    /// far as needed (and no further). `None` once the scenario is
    /// fully played out and drained.
    pub fn next_item(&mut self) -> Option<ScenarioItem> {
        self.next_keyed().map(|(_, item)| item)
    }

    /// Like [`ScenarioStream::next_item`], but also yields the item's
    /// canonical [`StreamKey`] — what the parallel merge orders by.
    pub fn next_keyed(&mut self) -> Option<(StreamKey, ScenarioItem)> {
        loop {
            if let Some(keyed) = self.ready.pop_front() {
                return Some(keyed);
            }
            if !self.finished && self.queue.is_empty() {
                // Every step has run and every campaign retired (session
                // teardown happens at retire time); nothing more will be
                // emitted, so pending can flush unconditionally.
                self.finished = true;
            }
            if self.finished {
                if self.pending.is_empty() {
                    return None;
                }
                self.release_wave(None);
                continue;
            }
            let watermark = self.queue.peek_time().expect("queue non-empty");
            // Strict inequality: a future step popping at exactly the
            // watermark may still emit equal-time items whose tie-break
            // keys precede a pending sys event.
            if self.min_pending.is_some_and(|m| m < watermark) {
                self.release_wave(Some(watermark));
                continue;
            }
            self.advance();
        }
    }

    /// Move every pending item with timestamp strictly before `before`
    /// (all of them when `None`) into the ready queue, in canonical key
    /// order. Correctness of wave release: kept items and all future
    /// emissions carry timestamps at or after the watermark, so a wave
    /// is totally ordered after everything already released and before
    /// everything still to come.
    fn release_wave(&mut self, before: Option<SimTime>) {
        let mut wave: Vec<Pending>;
        match before {
            None => {
                wave = std::mem::take(&mut self.pending);
                self.min_pending = None;
            }
            Some(t) => {
                wave = Vec::new();
                let mut kept_min: Option<SimTime> = None;
                let mut i = 0;
                while i < self.pending.len() {
                    if self.pending[i].key.0 < t {
                        wave.push(self.pending.swap_remove(i));
                    } else {
                        let pt = self.pending[i].key.0;
                        kept_min = Some(kept_min.map_or(pt, |m| m.min(pt)));
                        i += 1;
                    }
                }
                self.min_pending = kept_min;
            }
        }
        wave.sort_unstable_by_key(|p| p.key);
        self.ready.extend(wave.into_iter().map(|p| (p.key, p.item)));
    }

    /// High-water mark of items buffered awaiting the watermark — the
    /// producer-side memory proxy (the consumer-side one is the
    /// monitor's live-flow peak).
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Ground-truth labels of campaigns that have retired so far.
    pub fn retired_ground_truth(&self) -> impl Iterator<Item = &GroundTruth> {
        self.retired.iter().map(|(_, g)| g)
    }

    /// Capture the scheduler + per-campaign execution state as a
    /// serializable snapshot: campaign progress (steps remaining, RNG
    /// stream position, open sessions, servers touched), the network
    /// allocation counters, per-server sys sequence numbers, and the
    /// watermark machinery. Two streams that executed the same item
    /// prefix produce equal snapshots, so a restored service verifies
    /// its deterministic replay against the checkpointed snapshot
    /// instead of trusting it blindly.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            campaigns: self
                .campaigns
                .iter()
                .map(|run| CampaignProgress {
                    gci: run.gci as u64,
                    remaining: run.remaining as u64,
                    last_activity: run.last_activity,
                    touched: run.touched.iter().map(|&s| s as u64).collect(),
                    open_conns: run.conns.len() as u64,
                    rng: run.rng.state().to_vec(),
                    adversary: run.adversary.as_ref().map_or(0, Adversary::fingerprint),
                })
                .collect(),
            net: self.net.snapshot(),
            sys_seq: self.sys_seq.clone(),
            retired: self.retired.len() as u64,
            pending: self.pending.len() as u64,
            ready: self.ready.len() as u64,
            end: self.end,
            finished: self.finished,
        }
    }

    /// Latest simulated instant reached.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Finish the stream: ground truth for every campaign (in input
    /// order, exactly as the batch path labels them) plus the scenario
    /// end time. Call after [`ScenarioStream::next_item`] returns
    /// `None`; undelivered items are discarded otherwise.
    pub fn into_labels(mut self) -> (Vec<GroundTruth>, SimTime) {
        self.retired.sort_by_key(|(ci, _)| *ci);
        let labels = self.retired.drain(..).map(|(_, g)| g).collect();
        (labels, self.end)
    }

    /// Like [`ScenarioStream::into_labels`], but keeps each label's
    /// global campaign index — parallel producers return these so the
    /// merged label list can be re-sorted into plan order.
    pub fn into_labels_indexed(self) -> (Vec<(usize, GroundTruth)>, SimTime) {
        (self.retired, self.end)
    }

    /// Run the stream to exhaustion and collect everything into the
    /// batch [`ScenarioOutput`] — this is what `execute()` does.
    pub fn collect_output(mut self) -> ScenarioOutput {
        let mut records = Vec::new();
        let mut sys_events = Vec::new();
        let mut auth_log = Vec::new();
        while let Some(item) = self.next_item() {
            match item {
                ScenarioItem::Segment(r) => records.push(r),
                ScenarioItem::Auth(e) => auth_log.push(e),
                ScenarioItem::Sys(e) => sys_events.push(e),
            }
        }
        let (ground_truth, end) = self.into_labels();
        ScenarioOutput {
            trace: Trace::new(records),
            sys_events,
            auth_log,
            ground_truth,
            end,
        }
    }

    /// Pop and process one scheduler event.
    fn advance(&mut self) {
        let Some((t, entry)) = self.queue.pop() else {
            return;
        };
        let pop_rank;
        match entry {
            SchedEntry::Start(ci) => {
                let run = &self.campaigns[ci];
                pop_rank = rank(run.gci, None);
                if run.adversary.is_some() {
                    // Interactive: the first move materializes now; later
                    // moves materialize as outcomes come back.
                    self.materialize_next(t, ci, None);
                    if self.campaigns[ci].remaining == 0 {
                        self.retire(ci);
                    }
                } else if run.steps.is_empty() {
                    self.retire(ci);
                } else {
                    let gci = run.gci;
                    for (si, step) in run.steps.iter().enumerate() {
                        self.queue.schedule_ranked(
                            t + step.offset(),
                            rank(gci, Some(si)),
                            SchedEntry::Step(ci, si),
                        );
                    }
                }
            }
            SchedEntry::Step(ci, si) => {
                pop_rank = rank(self.campaigns[ci].gci, Some(si));
                let (step_end, outcome) = self.exec_step(t, ci, si);
                let run = &mut self.campaigns[ci];
                run.last_activity = run.last_activity.max(step_end);
                run.remaining -= 1;
                self.end = self.end.max(step_end);
                if self.campaigns[ci].adversary.is_some() {
                    // Feed the decoded outcome back; the adversary's
                    // reaction becomes the next scheduled step.
                    self.materialize_next(step_end.max(t), ci, outcome.as_ref());
                }
                if self.campaigns[ci].remaining == 0 {
                    self.retire(ci);
                }
            }
        }
        self.drain_emissions(t, pop_rank);
    }

    /// Execute one campaign step; returns the simulated instant it
    /// finished plus, for interactive campaigns, the decoded client-side
    /// [`CellOutcome`] the adversary reacts to. Mirrors the historical
    /// batch executor arm for arm. Network allocations (flow ids,
    /// ephemeral ports) happen inside the campaign's own scope, and
    /// random draws come from the campaign's own RNG, so the step
    /// behaves identically no matter which other campaigns share the
    /// stream.
    fn exec_step(&mut self, t: SimTime, ci: usize, si: usize) -> (SimTime, Option<CellOutcome>) {
        let part = &mut self.part;
        let net = &mut self.net;
        let run = &mut self.campaigns[ci];
        net.set_scope(run.gci as u32);
        let interactive = run.adversary.is_some();
        let step = &run.steps[si];
        match step {
            CampaignStep::Cell {
                server,
                user,
                script,
                ..
            } => {
                run.touched.insert(*server);
                let key = (*server, user.clone());
                let srv = part.servers[*server]
                    .as_deref_mut()
                    .expect("campaign touches a server this part does not own");
                let conn = run.conns.entry(key).or_insert_with(|| {
                    // External actors connect from outside; owners from
                    // their workstation.
                    let addr = HostAddr::internal(HostId(1000 + *server as u32));
                    srv.connect(net, t, addr, user, 0)
                });
                let delivery = srv.deliver_cell(net, t, conn, script);
                let outcome = interactive.then(|| {
                    conn.decode_outcome(&delivery)
                        .expect("the server delivers well-formed replies")
                });
                (delivery.end, outcome)
            }
            CampaignStep::Terminal {
                server,
                user,
                cmdline,
                ..
            } => {
                run.touched.insert(*server);
                let srv = part.servers[*server]
                    .as_deref_mut()
                    .expect("campaign touches a server this part does not own");
                if interactive {
                    // Interactive terminals ride a real client session so
                    // the command and its output cross the wire and the
                    // adversary reacts to what actually came back.
                    let key = (*server, user.clone());
                    let conn = run.conns.entry(key).or_insert_with(|| {
                        let addr = HostAddr::internal(HostId(1000 + *server as u32));
                        srv.connect(net, t, addr, user, 0)
                    });
                    let delivery = srv.deliver_terminal(net, t, conn, cmdline);
                    let outcome = conn
                        .decode_outcome(&delivery)
                        .expect("terminal delivery always carries output");
                    (delivery.end, Some(outcome))
                } else {
                    // Scripted terminals stay session-less, exactly as
                    // the batch executor always ran them.
                    srv.run_terminal(t, user, cmdline);
                    (t, None)
                }
            }
            CampaignStep::AuthGuess { username, src, .. } => {
                part.hub.login_guess(t, username, *src, &mut run.rng);
                (t, None)
            }
            CampaignStep::AuthLogin { username, src, .. } => {
                part.hub.login_legitimate(t, username, *src);
                (t, None)
            }
            CampaignStep::Probe {
                src, server, port, ..
            } => {
                run.touched.insert(*server);
                // Probes only read the (static) address table, so they
                // impose no ownership constraint on partitioning.
                let dst = part.addrs[*server];
                let sport = net.ephemeral_port();
                let f = net.open(t, *src, sport, dst, *port);
                let done = t + Duration::from_millis(1);
                net.close(done, f, true);
                (done, None)
            }
        }
    }

    /// Ask campaign `ci`'s adversary for its next move given `outcome`,
    /// append it to the campaign's steps, and schedule it `delay` after
    /// `now`. No-op (letting the campaign retire) once the adversary's
    /// loop completes.
    fn materialize_next(&mut self, now: SimTime, ci: usize, outcome: Option<&CellOutcome>) {
        let run = &mut self.campaigns[ci];
        let Some(adv) = run.adversary.as_mut() else {
            return;
        };
        let Some(action) = adv.next_action(outcome) else {
            return;
        };
        let at = now + action.delay;
        let si = run.steps.len();
        let offset = at.since(run.start);
        let step = match action.op {
            SessionOp::Cell(script) => CampaignStep::Cell {
                server: action.server,
                user: action.user,
                offset,
                script,
            },
            SessionOp::Terminal(cmdline) => CampaignStep::Terminal {
                server: action.server,
                user: action.user,
                offset,
                cmdline,
            },
        };
        run.steps.push(step);
        run.remaining += 1;
        run.duration = run.duration.max(offset);
        self.queue
            .schedule_ranked(at, rank(run.gci, Some(si)), SchedEntry::Step(ci, si));
    }

    /// Retire campaign `ci`: drop its steps, close its sessions (FIN
    /// for the WebSocket flow and every outbound flow its cells
    /// opened), and record its ground-truth label.
    fn retire(&mut self, ci: usize) {
        let run = &mut self.campaigns[ci];
        run.steps = Vec::new();
        let at = run.last_activity;
        for (_key, conn) in std::mem::take(&mut run.conns) {
            conn.close(&mut self.net, at);
        }
        // Scripted windows are knowable up front (max offset); an
        // interactive session's window is only known once its adversary
        // stops acting.
        let end = if run.adversary.is_some() {
            run.last_activity
        } else {
            run.start + run.duration
        };
        let gt = GroundTruth {
            class: run.class,
            name: run.name.clone(),
            servers: run.touched.iter().copied().collect(),
            start: run.start,
            end,
        };
        self.retired.push((run.gci, gt));
    }

    /// Move everything the last step emitted into the pending buffer,
    /// keyed by `(pop time, pop rank, intra-drain index)` — the locally
    /// computable equivalent of the old global emission counters (pops
    /// advance in `(time, rank)` order and each pop drains once, so the
    /// induced order is identical).
    fn drain_emissions(&mut self, pop_t: SimTime, pop_rank: u64) {
        let mut intra = 0u64;
        for rec in self.net.drain_records() {
            let key = (rec.time, KIND_SEGMENT, pop_t.0, pop_rank, intra);
            intra += 1;
            self.stash(Pending {
                key,
                item: ScenarioItem::Segment(rec),
            });
        }
        for ev in self.part.hub.drain_auth_events() {
            let key = (ev.time, KIND_AUTH, pop_t.0, pop_rank, intra);
            intra += 1;
            self.stash(Pending {
                key,
                item: ScenarioItem::Auth(ev),
            });
        }
        for s_idx in 0..self.part.servers.len() {
            let Some(srv) = self.part.servers[s_idx].as_deref_mut() else {
                continue;
            };
            for ev in srv.drain_sys_events() {
                let key = (ev.time, KIND_SYS, s_idx as u64, self.sys_seq[s_idx], 0);
                self.sys_seq[s_idx] += 1;
                self.stash(Pending {
                    key,
                    item: ScenarioItem::Sys(ev),
                });
            }
        }
        self.peak_pending = self.peak_pending.max(self.pending.len() + self.ready.len());
    }

    fn stash(&mut self, p: Pending) {
        let t = p.key.0;
        self.min_pending = Some(self.min_pending.map_or(t, |m| m.min(t)));
        self.pending.push(p);
    }
}

impl Iterator for ScenarioStream<'_> {
    type Item = ScenarioItem;

    fn next(&mut self) -> Option<ScenarioItem> {
        self.next_item()
    }
}

/// Scheduler tie-break rank: equal-time events order by campaign index,
/// then step index, with a campaign's `Start` before its own steps —
/// the same total order the batch executor's up-front FIFO scheduling
/// produced, independent of *when* entries were enqueued.
fn rank(ci: usize, si: Option<usize>) -> u64 {
    ((ci as u64) << 32) | si.map_or(0, |s| s as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benign::{session, BenignProfile};
    use crate::campaign::execute;
    use crate::exfiltration::{self, ExfilParams};
    use ja_kernelsim::deployment::DeploymentSpec;

    fn mixed_campaigns(d: &Deployment) -> Vec<(SimTime, Campaign)> {
        let mut rng = SimRng::new(11);
        let u0 = d.owner_of(0).to_string();
        let u1 = d.owner_of(1).to_string();
        vec![
            (
                SimTime::from_secs(5),
                session(0, &u0, &BenignProfile::default(), &mut rng),
            ),
            (
                SimTime::from_secs(60),
                exfiltration::campaign(1, &u1, &ExfilParams::default()),
            ),
        ]
    }

    #[test]
    fn stream_items_are_time_ordered() {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(31));
        let campaigns = mixed_campaigns(&d);
        let mut stream = ScenarioStream::new(&mut d, campaigns, 3);
        let mut last = SimTime::ZERO;
        let mut n = 0usize;
        while let Some(item) = stream.next_item() {
            assert!(item.time() >= last, "stream went backwards in time");
            last = item.time();
            n += 1;
        }
        assert!(n > 100, "stream produced {n} items");
    }

    #[test]
    fn collected_stream_matches_batch_execute_exactly() {
        let build = || Deployment::build(&DeploymentSpec::small_lab(32));
        let mut d1 = build();
        let campaigns = mixed_campaigns(&d1);
        let batch = execute(&mut d1, &campaigns, 9);
        let mut d2 = build();
        let campaigns2 = mixed_campaigns(&d2);
        let streamed = ScenarioStream::new(&mut d2, campaigns2, 9).collect_output();
        // Record-for-record identical capture.
        assert_eq!(batch.trace.records().len(), streamed.trace.records().len());
        for (a, b) in batch.trace.records().iter().zip(streamed.trace.records()) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.flow_id, b.flow_id);
            assert_eq!(a.stream_offset, b.stream_offset);
            assert_eq!(a.payload, b.payload);
            assert_eq!(a.wire_len, b.wire_len);
        }
        assert_eq!(batch.sys_events.len(), streamed.sys_events.len());
        for (a, b) in batch.sys_events.iter().zip(&streamed.sys_events) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.server_id, b.server_id);
            assert_eq!(a.class(), b.class());
        }
        assert_eq!(batch.auth_log, streamed.auth_log);
        assert_eq!(batch.ground_truth.len(), streamed.ground_truth.len());
        for (a, b) in batch.ground_truth.iter().zip(&streamed.ground_truth) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.servers, b.servers);
        }
        assert_eq!(batch.end, streamed.end);
    }

    #[test]
    fn sessions_close_when_campaigns_retire() {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(33));
        let campaigns = mixed_campaigns(&d);
        let out = ScenarioStream::new(&mut d, campaigns, 5).collect_output();
        // Every flow the scenario opened is closed by session teardown
        // (FIN) or probe RST before the capture ends.
        let summaries = out.trace.flow_summaries();
        let closed = out
            .trace
            .records()
            .iter()
            .filter(|r| r.flags.fin || r.flags.rst)
            .map(|r| r.flow_id)
            .collect::<std::collections::HashSet<_>>();
        for f in &summaries {
            assert!(
                closed.contains(&f.flow_id),
                "flow {} never closed",
                f.flow_id
            );
        }
    }

    #[test]
    fn pending_buffer_is_bounded_by_lookahead_not_capture_length() {
        // Same concurrency (one beacon campaign), growing capture: the
        // pending peak must stay flat while the item count grows, since
        // each beacon's emissions release as soon as the clock passes
        // them.
        let run = |beacons: u64| {
            let mut d = Deployment::build(&DeploymentSpec::small_lab(34));
            let u = d.owner_of(0).to_string();
            let c = exfiltration::campaign(
                0,
                &u,
                &ExfilParams {
                    variant: exfiltration::ExfilVariant::Beacon,
                    total_bytes: 64 * 1024 * beacons,
                    interval_secs: 30.0,
                    ..Default::default()
                },
            );
            let mut stream = ScenarioStream::new(&mut d, vec![(SimTime::ZERO, c)], 5);
            let mut total = 0usize;
            while stream.next_item().is_some() {
                total += 1;
            }
            (total, stream.peak_pending())
        };
        let (small_total, small_peak) = run(20);
        let (large_total, large_peak) = run(200);
        assert!(
            large_total > small_total * 5,
            "capture should grow: {small_total} -> {large_total}"
        );
        assert!(
            large_peak <= small_peak + 4,
            "pending peak must not grow with capture length: {small_peak} -> {large_peak}"
        );
    }

    #[test]
    fn ground_truth_accumulates_as_campaigns_retire() {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(35));
        let u0 = d.owner_of(0).to_string();
        let mut rng = SimRng::new(2);
        // A short early campaign and a long late one.
        let early = session(0, &u0, &BenignProfile::default(), &mut rng);
        let u1 = d.owner_of(1).to_string();
        let late = exfiltration::campaign(
            1,
            &u1,
            &ExfilParams {
                variant: exfiltration::ExfilVariant::Beacon,
                total_bytes: 64 * 1024 * 20,
                interval_secs: 600.0,
                ..Default::default()
            },
        );
        let campaigns = vec![(SimTime::ZERO, early), (SimTime::from_secs(30), late)];
        let mut stream = ScenarioStream::new(&mut d, campaigns, 6);
        let mut seen_partial = false;
        while stream.next_item().is_some() {
            let retired = stream.retired_ground_truth().count();
            if retired == 1 {
                seen_partial = true;
            }
        }
        assert!(seen_partial, "first campaign should retire mid-stream");
        let (labels, _) = stream.into_labels();
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn interactive_escalation_materializes_steps_from_outcomes() {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(37));
        let u0 = d.owner_of(0).to_string();
        let c = crate::interactive::escalation_campaign(0, &u0);
        assert!(c.steps.is_empty(), "interactive campaigns start stepless");
        let out = ScenarioStream::new(&mut d, vec![(SimTime::from_secs(5), c)], 7).collect_output();
        // The full explore→react→escalate loop ran: the probe cell, the
        // reaction, and the ssh escalation all left audit events.
        let cells = out
            .sys_events
            .iter()
            .filter(|e| e.class() == "cell_execute")
            .count();
        assert!(cells >= 2, "probe + escalation cells, got {cells}");
        let sshed = out
            .sys_events
            .iter()
            .any(|e| e.class() == "proc_exec" && format!("{e:?}").contains(".ssh/id_rsa"));
        assert!(sshed, "escalation step should exec ssh with the stolen key");
        // Ground truth covers the materialized session window.
        assert_eq!(out.ground_truth.len(), 1);
        let gt = &out.ground_truth[0];
        assert_eq!(gt.servers, vec![0]);
        assert_eq!(gt.start, SimTime::from_secs(5));
        assert!(gt.end > gt.start, "window must cover the session");
        assert_eq!(out.end, gt.end);
    }

    #[test]
    fn interactive_stream_is_deterministic() {
        let run = || {
            let mut d = Deployment::build(&DeploymentSpec::small_lab(38));
            let u0 = d.owner_of(0).to_string();
            let u1 = d.owner_of(1).to_string();
            let campaigns = vec![
                (
                    SimTime::from_secs(5),
                    crate::interactive::comm_exfil_campaign(0, &u0),
                ),
                (
                    SimTime::from_secs(9),
                    crate::interactive::terminal_abuse_campaign(1, &u1),
                ),
            ];
            let mut stream = ScenarioStream::new(&mut d, campaigns, 5);
            let mut items = Vec::new();
            while let Some((key, item)) = stream.next_keyed() {
                items.push((key, item.time()));
            }
            let snap = stream.snapshot();
            (items, snap)
        };
        let (a_items, a_snap) = run();
        let (b_items, b_snap) = run();
        assert_eq!(a_items, b_items);
        assert_eq!(a_snap, b_snap);
        assert!(
            a_snap.campaigns.iter().all(|c| c.adversary != 0),
            "interactive campaigns must report adversary fingerprints"
        );
    }

    #[test]
    fn worm_propagates_via_outputs_and_is_labeled_fleet_wide() {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(39));
        let u0 = d.owner_of(0).to_string();
        let fleet: Vec<usize> = (0..d.servers.len()).collect();
        let c = crate::interactive::worm_campaign(0, &u0, fleet, 3);
        let out = ScenarioStream::new(&mut d, vec![(SimTime::ZERO, c)], 3).collect_output();
        assert_eq!(out.ground_truth.len(), 1);
        let gt = &out.ground_truth[0];
        assert!(
            gt.servers.len() >= 2,
            "worm must reach at least two servers, got {:?}",
            gt.servers
        );
        // Each compromised server carries the dropped seed.
        for &s in &gt.servers {
            let user = d.owner_of(s).to_string();
            let seed_path = format!("/home/{user}/.jupyter/wormseed.py");
            if s != *gt.servers.last().unwrap() {
                assert!(
                    d.servers[s].vfs.read(&seed_path).is_ok(),
                    "seed missing on server {s}"
                );
            }
        }
    }

    #[test]
    fn snapshot_equal_at_equal_watermark_and_serde_round_trips() {
        let run_to = |items: usize| {
            let mut d = Deployment::build(&DeploymentSpec::small_lab(36));
            let campaigns = mixed_campaigns(&d);
            let mut stream = ScenarioStream::new(&mut d, campaigns, 9);
            for _ in 0..items {
                stream.next_item();
            }
            stream.snapshot()
        };
        let a = run_to(40);
        let b = run_to(40);
        assert_eq!(a, b, "same prefix must snapshot identically");
        let c = run_to(41);
        assert_ne!(a, c, "different watermarks must be distinguishable");

        use serde::Deserialize;
        let json = serde_json::to_string(&a).unwrap();
        let back = StreamSnapshot::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, a);
    }
}
