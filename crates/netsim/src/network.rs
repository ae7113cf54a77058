//! The world object: hosts open flows, send bytes, and every segment is
//! captured into the trace — the sensor position of Fig. 1's "deploy
//! monitors early at the network edges".

use crate::addr::{FiveTuple, HostAddr};
use crate::flow::{FlowId, FlowState, DEFAULT_MSS};
use crate::payload::{self, PayloadBytes};
use crate::segment::{Direction, SegFlags, SegmentRecord};
use crate::time::{Duration, SimTime};
use crate::trace::Trace;
use std::collections::HashMap;

/// Simulated network with a passive capture tap.
#[derive(Debug)]
pub struct Network {
    flows: HashMap<u64, FlowState>,
    records: Vec<SegmentRecord>,
    mss: usize,
    /// Per-segment serialization delay used to spread multi-segment
    /// writes over time (keeps timestamps strictly useful for rate
    /// features without a full bandwidth model).
    per_segment_gap: Duration,
    /// Current allocation scope (see [`Network::set_scope`]). Flow ids
    /// and ephemeral ports are allocated per-scope so that two actors in
    /// different scopes draw identical ids no matter how their actions
    /// interleave — the property parallel scenario producers rely on.
    scope: u32,
    next_flow_in_scope: HashMap<u32, u64>,
    next_ephemeral: HashMap<u32, u16>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Network with default MSS and a 50 µs per-segment gap.
    pub fn new() -> Self {
        Network {
            flows: HashMap::new(),
            records: Vec::new(),
            mss: DEFAULT_MSS,
            per_segment_gap: Duration(50),
            scope: 0,
            next_flow_in_scope: HashMap::new(),
            next_ephemeral: HashMap::new(),
        }
    }

    /// Override the MSS (tests use small values to force segmentation).
    pub fn with_mss(mut self, mss: usize) -> Self {
        self.mss = mss.max(1);
        self
    }

    /// Switch the allocation scope. Flow ids become
    /// `(scope << 32) | per-scope counter` and ephemeral ports restart at
    /// 40000 per scope, so an actor's allocations depend only on its own
    /// history — never on what other scopes did in between. Scenario
    /// streams set the scope to the global campaign index before each
    /// step, which is what makes any partition of campaigns across
    /// producer threads emit bit-identical records. The default scope is
    /// 0, preserving the classic dense 0,1,2,… ids for direct users.
    pub fn set_scope(&mut self, scope: u32) {
        self.scope = scope;
    }

    /// Allocate an ephemeral source port (within the current scope).
    pub fn ephemeral_port(&mut self) -> u16 {
        let c = self.next_ephemeral.entry(self.scope).or_insert(40000);
        let p = *c;
        *c = c.checked_add(1).unwrap_or(40000);
        p
    }

    /// Open a flow; records a SYN segment.
    pub fn open(
        &mut self,
        at: SimTime,
        src: HostAddr,
        src_port: u16,
        dst: HostAddr,
        dst_port: u16,
    ) -> FlowId {
        let tuple = FiveTuple::new(src, src_port, dst, dst_port);
        let ctr = self.next_flow_in_scope.entry(self.scope).or_insert(0);
        let id = FlowId(((self.scope as u64) << 32) | *ctr);
        *ctr += 1;
        self.flows.insert(id.0, FlowState::new(tuple, at));
        self.records.push(SegmentRecord {
            time: at,
            tuple,
            flow_id: id.0,
            dir: Direction::ToResponder,
            stream_offset: 0,
            payload: PayloadBytes::new(),
            wire_len: 0,
            flags: SegFlags {
                syn: true,
                ..Default::default()
            },
        });
        id
    }

    /// Send application bytes on a flow. Splits into MSS-sized segments,
    /// spreads them over `per_segment_gap` and captures each. Only the
    /// tap keeps the bytes, so per-flow memory does not grow with what
    /// the flow carried. Returns the time the last segment left.
    ///
    /// The write is materialized into **one** shared
    /// [`PayloadBytes`] allocation; every segment record holds a
    /// zero-copy slice of it, so a byte is copied once at capture no
    /// matter how many MSS segments (or downstream clones) it crosses.
    pub fn send(&mut self, at: SimTime, flow: FlowId, dir: Direction, payload: &[u8]) -> SimTime {
        let mss = self.mss;
        let gap = self.per_segment_gap;
        let state = self.flows.get_mut(&flow.0).expect("unknown flow");
        debug_assert!(state.is_open(), "send on closed flow");
        let tuple = state.tuple;
        let mut t = at;
        let mut offset = match dir {
            Direction::ToResponder => state.bytes_to_responder,
            Direction::ToInitiator => state.bytes_to_initiator,
        };
        payload::count_captured(payload.len() as u64);
        let shared = PayloadBytes::copy_from(payload);
        // One record per MSS-sized chunk; a zero-length write still
        // produces one (pure ACK/keepalive).
        let mut start = 0;
        loop {
            let end = (start + mss).min(payload.len());
            let chunk = shared.slice(start..end);
            let chunk_len = chunk.len();
            self.records.push(SegmentRecord {
                time: t,
                tuple,
                flow_id: flow.0,
                dir,
                stream_offset: offset,
                payload: chunk,
                wire_len: chunk_len as u32,
                flags: SegFlags::default(),
            });
            offset += chunk_len as u64;
            match dir {
                Direction::ToResponder => {
                    state.bytes_to_responder += chunk_len as u64;
                    state.segs_to_responder += 1;
                }
                Direction::ToInitiator => {
                    state.bytes_to_initiator += chunk_len as u64;
                    state.segs_to_initiator += 1;
                }
            }
            t += gap;
            start = end;
            if start == payload.len() {
                break;
            }
        }
        t
    }

    /// Send a large transfer with a snap length: `sample` bytes are
    /// captured for content analysis, and the remaining
    /// `total_len - sample.len()` bytes are represented by truncated
    /// records (payload empty, `wire_len` carrying the true size) —
    /// exactly how a snaplen-limited pcap records bulk transfers. Flow
    /// accounting reflects `total_len`.
    pub fn send_snapped(
        &mut self,
        at: SimTime,
        flow: FlowId,
        dir: Direction,
        sample: &[u8],
        total_len: u64,
    ) -> SimTime {
        let mut t = self.send(at, flow, dir, sample);
        let mut remaining = total_len.saturating_sub(sample.len() as u64);
        let gap = self.per_segment_gap;
        // Aggregate the truncated remainder into u32-sized accounting
        // records (one per ~4 GiB) rather than one per MSS — the capture
        // stays small while flow statistics stay true.
        let state = self.flows.get_mut(&flow.0).expect("unknown flow");
        let tuple = state.tuple;
        while remaining > 0 {
            let chunk = remaining.min(u32::MAX as u64);
            let offset = match dir {
                Direction::ToResponder => state.bytes_to_responder,
                Direction::ToInitiator => state.bytes_to_initiator,
            };
            self.records.push(SegmentRecord {
                time: t,
                tuple,
                flow_id: flow.0,
                dir,
                stream_offset: offset,
                payload: PayloadBytes::new(),
                wire_len: chunk as u32,
                flags: SegFlags::default(),
            });
            match dir {
                Direction::ToResponder => {
                    state.bytes_to_responder += chunk;
                    state.segs_to_responder += 1;
                }
                Direction::ToInitiator => {
                    state.bytes_to_initiator += chunk;
                    state.segs_to_initiator += 1;
                }
            }
            remaining -= chunk;
            t += gap;
        }
        t
    }

    /// Close a flow; records a FIN (or RST for abortive close).
    pub fn close(&mut self, at: SimTime, flow: FlowId, abortive: bool) {
        let state = self.flows.get_mut(&flow.0).expect("unknown flow");
        if state.closed_at.is_some() {
            return;
        }
        state.closed_at = Some(at);
        self.records.push(SegmentRecord {
            time: at,
            tuple: state.tuple,
            flow_id: flow.0,
            dir: Direction::ToResponder,
            stream_offset: state.bytes_to_responder,
            payload: PayloadBytes::new(),
            wire_len: 0,
            flags: SegFlags {
                fin: !abortive,
                rst: abortive,
                ..Default::default()
            },
        });
    }

    /// Flow state accessor.
    pub fn flow(&self, flow: FlowId) -> &FlowState {
        &self.flows[&flow.0]
    }

    /// Segments captured so far.
    pub fn captured(&self) -> usize {
        self.records.len()
    }

    /// Take every record captured since the last drain, in emission
    /// order. Streaming producers call this after each simulation step
    /// so the tap buffer never grows with the capture; a subsequent
    /// [`Network::into_trace`] only sees what was not drained.
    pub fn drain_records(&mut self) -> Vec<SegmentRecord> {
        std::mem::take(&mut self.records)
    }

    /// Finish the simulation and hand the capture to the analyst. The
    /// trace is sorted by time (stable for ties, preserving emit order).
    pub fn into_trace(mut self) -> Trace {
        self.records.sort_by_key(|r| r.time);
        Trace::new(self.records)
    }

    /// Capture the allocation state: current scope plus every per-scope
    /// flow-id and ephemeral-port counter, along with totals that act as
    /// a cheap divergence check. Live flow payload state is *not*
    /// serialized — a restored service rebuilds it by deterministic
    /// replay and uses this snapshot to verify the replay converged.
    pub fn snapshot(&self) -> NetworkSnapshot {
        let mut flow_counters: Vec<ScopeCounter> = self
            .next_flow_in_scope
            .iter()
            .map(|(&scope, &next)| ScopeCounter { scope, next })
            .collect();
        flow_counters.sort_by_key(|c| c.scope);
        let mut port_counters: Vec<ScopeCounter> = self
            .next_ephemeral
            .iter()
            .map(|(&scope, &next)| ScopeCounter {
                scope,
                next: next as u64,
            })
            .collect();
        port_counters.sort_by_key(|c| c.scope);
        NetworkSnapshot {
            scope: self.scope,
            flow_counters,
            port_counters,
            flows_opened: self.flows.len() as u64,
            segments_captured: self.records.len() as u64,
        }
    }

    /// Re-apply a captured allocation state to this network (scope and
    /// counters only; flows are rebuilt by replay). Used by layer tests
    /// to prove the snapshot round-trips.
    pub fn restore_counters(&mut self, snap: &NetworkSnapshot) {
        self.scope = snap.scope;
        self.next_flow_in_scope = snap
            .flow_counters
            .iter()
            .map(|c| (c.scope, c.next))
            .collect();
        self.next_ephemeral = snap
            .port_counters
            .iter()
            .map(|c| (c.scope, c.next as u16))
            .collect();
    }
}

/// One per-scope allocation counter of a [`NetworkSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScopeCounter {
    /// Allocation scope (global campaign index on scenario streams).
    pub scope: u32,
    /// Next value the counter will hand out.
    pub next: u64,
}

/// Serializable allocation state of a [`Network`] — part of the
/// layer-by-layer checkpoint contract. Equality between a checkpoint's
/// snapshot and a replayed network's snapshot proves the replay
/// reproduced the same allocation history.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NetworkSnapshot {
    /// Active allocation scope at capture time.
    pub scope: u32,
    /// Per-scope next-flow-id counters, sorted by scope.
    pub flow_counters: Vec<ScopeCounter>,
    /// Per-scope next-ephemeral-port counters, sorted by scope.
    pub port_counters: Vec<ScopeCounter>,
    /// Flows ever opened (divergence check).
    pub flows_opened: u64,
    /// Undrained captured segments at capture time (divergence check).
    pub segments_captured: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ports, HostId};

    fn hosts() -> (HostAddr, HostAddr) {
        (HostAddr::internal(HostId(1)), HostAddr::external(7))
    }

    #[test]
    fn open_send_close_produces_records() {
        let (a, b) = hosts();
        let mut net = Network::new();
        let f = net.open(SimTime::ZERO, a, 40000, b, ports::HUB_HTTPS);
        net.send(
            SimTime::from_millis(1),
            f,
            Direction::ToResponder,
            b"GET /hub HTTP/1.1",
        );
        net.send(
            SimTime::from_millis(2),
            f,
            Direction::ToInitiator,
            b"HTTP/1.1 200 OK",
        );
        net.close(SimTime::from_millis(3), f, false);
        let st = net.flow(f);
        assert_eq!(st.bytes_to_responder, 17);
        assert_eq!(st.bytes_to_initiator, 15);
        assert!(!st.is_open());
        let trace = net.into_trace();
        assert_eq!(trace.records().len(), 4); // SYN + 2 payload + FIN
        assert!(trace.records()[0].flags.syn);
        assert!(trace.records()[3].flags.fin);
    }

    #[test]
    fn segmentation_respects_mss() {
        let (a, b) = hosts();
        let mut net = Network::new().with_mss(100);
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        let end = net.send(SimTime::ZERO, f, Direction::ToResponder, &[0u8; 450]);
        assert_eq!(net.flow(f).segs_to_responder, 5);
        // 5 segments, 50 µs apart starting at 0 ⇒ last leaves at 200, fn
        // returns the *next* send slot (250).
        assert_eq!(end.as_micros(), 250);
        let trace = net.into_trace();
        let offsets: Vec<u64> = trace
            .records()
            .iter()
            .filter(|r| !r.payload.is_empty())
            .map(|r| r.stream_offset)
            .collect();
        assert_eq!(offsets, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn abortive_close_sets_rst() {
        let (a, b) = hosts();
        let mut net = Network::new();
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        net.close(SimTime::from_secs(1), f, true);
        net.close(SimTime::from_secs(2), f, true); // idempotent
        let trace = net.into_trace();
        let rsts: Vec<_> = trace.records().iter().filter(|r| r.flags.rst).collect();
        assert_eq!(rsts.len(), 1);
    }

    #[test]
    fn ephemeral_ports_increment() {
        let mut net = Network::new();
        let p1 = net.ephemeral_port();
        let p2 = net.ephemeral_port();
        assert_eq!(p2, p1 + 1);
    }

    #[test]
    fn drain_records_empties_tap_incrementally() {
        let (a, b) = hosts();
        let mut net = Network::new();
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        let first = net.drain_records();
        assert_eq!(first.len(), 1); // SYN
        net.send(SimTime::from_millis(1), f, Direction::ToResponder, b"xy");
        assert_eq!(net.captured(), 1);
        let second = net.drain_records();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].payload, b"xy".to_vec());
        assert_eq!(net.captured(), 0);
    }

    #[test]
    fn without_delivery_still_captures_but_does_not_buffer() {
        let (a, b) = hosts();
        let mut net = Network::new();
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        net.send(SimTime::from_millis(1), f, Direction::ToResponder, b"hello");
        assert_eq!(net.flow(f).bytes_to_responder, 5);
        let trace = net.into_trace();
        assert!(trace
            .records()
            .iter()
            .any(|r| r.payload == b"hello".to_vec()));
    }

    #[test]
    fn empty_send_records_keepalive() {
        let (a, b) = hosts();
        let mut net = Network::new();
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        net.send(SimTime::from_secs(1), f, Direction::ToResponder, &[]);
        let trace = net.into_trace();
        assert_eq!(trace.records().len(), 2);
        assert!(trace.records()[1].is_empty());
    }

    #[test]
    fn snapshot_round_trips_allocation_state() {
        let (a, b) = hosts();
        let mut net = Network::new();
        net.set_scope(3);
        net.ephemeral_port();
        net.open(SimTime::ZERO, a, 1, b, 2);
        net.set_scope(7);
        net.open(SimTime::ZERO, a, 3, b, 4);
        let snap = net.snapshot();

        // Serde round trip is lossless.
        use serde::Deserialize;
        let json = serde_json::to_string(&snap).unwrap();
        let back = NetworkSnapshot::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, snap);

        // A fresh network with restored counters continues the exact
        // allocation sequence the original would have produced.
        let mut fresh = Network::new();
        fresh.restore_counters(&snap);
        net.set_scope(3);
        fresh.set_scope(3);
        assert_eq!(fresh.ephemeral_port(), net.ephemeral_port());
        let f1 = net.open(SimTime::ZERO, a, 9, b, 10);
        let f2 = fresh.open(SimTime::ZERO, a, 9, b, 10);
        assert_eq!(f1, f2);
    }
}
