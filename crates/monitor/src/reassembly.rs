//! Streaming per-flow TCP reassembly — the sensor's first stage.
//!
//! Unlike `Trace::reassemble` (ground-truth utility), this is the
//! monitor's own streaming implementation: records arrive in capture
//! order (possibly reordered/duplicated/dropped), and each direction of
//! each flow maintains an out-of-order buffer, delivering the contiguous
//! prefix downstream and accounting gaps.

use ja_netsim::addr::FiveTuple;
use ja_netsim::payload::{self, PayloadBytes};
use ja_netsim::segment::{Direction, SegmentRecord};
use ja_netsim::time::SimTime;
use std::collections::{BTreeMap, HashMap};

/// How the reassembler classified a payload segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentDisposition {
    /// The segment contributed stream bytes the sensor had not seen
    /// before (delivered in order, or stashed behind a gap). Truncated
    /// captures (empty payload) also land here: they cannot be
    /// classified, so they keep counting toward volume/rate features.
    New,
    /// A retransmission: every byte was already delivered or already
    /// pending.
    Duplicate,
}

/// One direction of one flow, as reconstructed by the sensor.
///
/// Out-of-order segments are stashed as zero-copy [`PayloadBytes`]
/// slices of the captured record — the reorder window costs refcounts,
/// not copies. When `retain_data` is off (the streaming engine's
/// single-pass scan of every flow), delivered in-order bytes are handed
/// to the caller's `delivered` sink and **not** appended to `data`, so
/// retention is bounded by the reorder window instead of the flow
/// length.
#[derive(Debug)]
pub struct StreamState {
    /// Delivered contiguous bytes (empty when `retain_data` is off).
    pub data: Vec<u8>,
    /// Keep delivered bytes in `data` (the full-buffer default).
    retain_data: bool,
    /// Next expected offset.
    next: u64,
    /// Out-of-order segments waiting for the gap to fill.
    pending: BTreeMap<u64, PayloadBytes>,
    /// Duplicate segments seen.
    pub duplicates: u64,
    /// Bytes currently stuck behind a gap.
    pub pending_bytes: u64,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState {
            data: Vec::new(),
            retain_data: true,
            next: 0,
            pending: BTreeMap::new(),
            duplicates: 0,
            pending_bytes: 0,
        }
    }
}

impl StreamState {
    fn insert(
        &mut self,
        offset: u64,
        payload: &PayloadBytes,
        mut delivered: Option<&mut Vec<PayloadBytes>>,
    ) -> SegmentDisposition {
        if payload.is_empty() {
            return SegmentDisposition::New;
        }
        let end = offset + payload.len() as u64;
        if end <= self.next {
            self.duplicates += 1;
            return SegmentDisposition::Duplicate;
        }
        // Trim any already-delivered prefix (zero-copy suffix view).
        let (offset, payload) = if offset < self.next {
            let skip = (self.next - offset) as usize;
            (self.next, payload.slice_from(skip))
        } else {
            (offset, payload.clone())
        };
        if offset == self.next {
            self.deliver(payload, &mut delivered);
            // Drain pending that is now contiguous.
            while let Some((&off, _)) = self.pending.first_key_value() {
                if off > self.next {
                    break;
                }
                let (off, bytes) = self.pending.pop_first().expect("non-empty");
                self.pending_bytes = self.pending_bytes.saturating_sub(bytes.len() as u64);
                let end = off + bytes.len() as u64;
                if end <= self.next {
                    self.duplicates += 1;
                    continue;
                }
                let skip = (self.next - off) as usize;
                self.deliver(bytes.slice_from(skip), &mut delivered);
            }
            SegmentDisposition::New
        } else {
            // Out of order. A retransmission may be repacketized at a
            // shifted offset or a different length, but the byte at a
            // given stream offset is consistent, so stash only the
            // sub-ranges not already pending. Keeping `pending` disjoint
            // keeps `pending_bytes` an exact gauge of bytes stuck behind
            // the gap at every instant, not just after it drains.
            let fresh = self.uncovered_ranges(offset, end);
            if fresh.is_empty() {
                self.duplicates += 1;
                return SegmentDisposition::Duplicate;
            }
            for &(a, b) in &fresh {
                let lo = (a - offset) as usize;
                let hi = (b - offset) as usize;
                self.pending.insert(a, payload.slice(lo..hi));
                self.pending_bytes += b - a;
            }
            SegmentDisposition::New
        }
    }

    /// Hand one in-order chunk downstream: advance the stream cursor,
    /// append to `data` when retaining (a counted, unavoidable copy of
    /// the full-buffer path), and surface the zero-copy view to the
    /// caller's sink.
    fn deliver(&mut self, chunk: PayloadBytes, delivered: &mut Option<&mut Vec<PayloadBytes>>) {
        self.next += chunk.len() as u64;
        if self.retain_data {
            payload::count_copied(chunk.len() as u64);
            self.data.extend_from_slice(&chunk);
        }
        if let Some(sink) = delivered {
            sink.push(chunk);
        }
    }

    /// The sub-ranges of `[start, end)` not covered by any stashed
    /// pending segment, in offset order.
    fn uncovered_ranges(&self, mut start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut fresh = Vec::new();
        for (&off, bytes) in self.pending.range(..end) {
            let seg_end = off + bytes.len() as u64;
            if seg_end <= start {
                continue;
            }
            if off > start {
                fresh.push((start, off));
            }
            start = start.max(seg_end);
            if start >= end {
                return fresh;
            }
        }
        fresh.push((start, end));
        fresh
    }

    /// Is there a sequence gap (undelivered pending data)?
    pub fn has_gap(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Total delivered in-order bytes (whether or not they were
    /// retained in `data`).
    pub fn delivered_len(&self) -> u64 {
        self.next
    }

    /// Bytes this direction currently holds onto: the retained
    /// contiguous buffer plus unique bytes stuck behind a gap.
    pub fn retained_bytes(&self) -> u64 {
        self.data.len() as u64 + self.pending_bytes
    }

    /// Stop retaining delivered bytes in `data`. Only callable before
    /// any byte has been delivered — a flow's retention mode is decided
    /// when it is first seen, never mid-stream.
    pub fn drop_delivered(&mut self) {
        debug_assert!(self.data.is_empty(), "retention mode must be set up front");
        self.retain_data = false;
    }
}

/// Which direction(s) of a flow gained new stream bytes from one
/// absorbed record. Callers folding features incrementally mirror the
/// `*_times`/`*_sizes` bookkeeping off this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbsorbOutcome {
    /// The record contributed new upstream bytes (not a duplicate).
    pub up_new: bool,
    /// The record contributed new downstream bytes.
    pub down_new: bool,
}

/// Reconstructed view of one flow.
#[derive(Debug, Default)]
pub struct FlowBuf {
    /// Lean single-pass mode: see [`FlowBuf::set_lean`].
    lean: bool,
    /// Five-tuple (set on first record).
    pub tuple: Option<FiveTuple>,
    /// Client→server stream.
    pub up: StreamState,
    /// Server→client stream.
    pub down: StreamState,
    /// Timestamps of payload-bearing upstream segments (rate features).
    pub up_times: Vec<SimTime>,
    /// Timestamps of payload-bearing downstream segments.
    pub down_times: Vec<SimTime>,
    /// Upstream payload sizes.
    pub up_sizes: Vec<u32>,
    /// Downstream payload sizes.
    pub down_sizes: Vec<u32>,
    /// SYN seen.
    pub opened: Option<SimTime>,
    /// FIN/RST seen.
    pub closed: Option<SimTime>,
    /// RST seen.
    pub reset: bool,
}

impl FlowBuf {
    /// Absorb one captured record into this flow's reconstruction.
    ///
    /// Rate/volume features (`*_times`, `*_sizes`) only count segments
    /// that carry bytes the sensor has not seen before — retransmitted
    /// duplicates update `duplicates` but do not inflate the features
    /// the volumetric detectors read.
    pub fn absorb(&mut self, rec: &SegmentRecord) {
        self.absorb_into(rec, None, None);
    }

    /// [`FlowBuf::absorb`] with delivered-chunk sinks: every in-order
    /// byte the record unlocks (including drained pendings) is pushed
    /// to the matching direction's sink as a zero-copy slice, in stream
    /// order. The incremental scanner feeds on these; the returned
    /// outcome tells the caller which direction (if any) gained new
    /// stream bytes, for folding rate features in the same pass.
    pub fn absorb_with(
        &mut self,
        rec: &SegmentRecord,
        up_sink: &mut Vec<PayloadBytes>,
        down_sink: &mut Vec<PayloadBytes>,
    ) -> AbsorbOutcome {
        self.absorb_into(rec, Some(up_sink), Some(down_sink))
    }

    fn absorb_into(
        &mut self,
        rec: &SegmentRecord,
        up_sink: Option<&mut Vec<PayloadBytes>>,
        down_sink: Option<&mut Vec<PayloadBytes>>,
    ) -> AbsorbOutcome {
        let mut outcome = AbsorbOutcome::default();
        self.tuple.get_or_insert(rec.tuple);
        if rec.flags.syn {
            self.opened.get_or_insert(rec.time);
        }
        if rec.flags.fin || rec.flags.rst {
            self.closed.get_or_insert(rec.time);
            self.reset |= rec.flags.rst;
        }
        if rec.wire_len > 0 {
            match rec.dir {
                Direction::ToResponder => {
                    if self.up.insert(rec.stream_offset, &rec.payload, up_sink)
                        == SegmentDisposition::New
                    {
                        outcome.up_new = true;
                        if !self.lean {
                            self.up_times.push(rec.time);
                            self.up_sizes.push(rec.wire_len);
                        }
                    }
                }
                Direction::ToInitiator => {
                    if self.down.insert(rec.stream_offset, &rec.payload, down_sink)
                        == SegmentDisposition::New
                    {
                        outcome.down_new = true;
                        if !self.lean {
                            self.down_times.push(rec.time);
                            self.down_sizes.push(rec.wire_len);
                        }
                    }
                }
            }
        }
        outcome
    }

    /// Put the flow in lean single-pass mode: stop retaining delivered
    /// bytes in both directions' `data` buffers *and* stop growing the
    /// per-segment `*_times`/`*_sizes` vectors — the caller folds rate
    /// features through [`crate::features::RateAcc`] from
    /// [`FlowBuf::absorb_with`] outcomes instead. Only valid before
    /// the first record is absorbed; `FlowFeatures::from_flow` must not
    /// be used on a lean flow.
    pub fn set_lean(&mut self) {
        self.lean = true;
        self.up.drop_delivered();
        self.down.drop_delivered();
    }

    /// Bytes this flow currently retains across both directions
    /// (contiguous buffers plus reorder-window pendings).
    pub fn retained_bytes(&self) -> u64 {
        self.up.retained_bytes() + self.down.retained_bytes()
    }
}

/// Reassembler over an entire capture.
#[derive(Debug, Default)]
pub struct Reassembler {
    flows: HashMap<u64, FlowBuf>,
    /// Total records consumed.
    pub records_in: u64,
}

impl Reassembler {
    /// Empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one captured record.
    pub fn feed(&mut self, rec: &SegmentRecord) {
        self.records_in += 1;
        self.flows.entry(rec.flow_id).or_default().absorb(rec);
    }

    /// Feed an entire trace.
    pub fn feed_trace(&mut self, trace: &ja_netsim::trace::Trace) {
        for r in trace.records() {
            self.feed(r);
        }
    }

    /// The reconstructed flows, keyed by flow id.
    pub fn flows(&self) -> &HashMap<u64, FlowBuf> {
        &self.flows
    }

    /// Consume into the flow map.
    pub fn into_flows(self) -> HashMap<u64, FlowBuf> {
        self.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_netsim::addr::{HostAddr, HostId};
    use ja_netsim::network::Network;
    use ja_netsim::rng::SimRng;
    use ja_netsim::time::Duration;

    fn pb(bytes: &[u8]) -> PayloadBytes {
        PayloadBytes::copy_from(bytes)
    }

    fn ins(st: &mut StreamState, offset: u64, bytes: &[u8]) -> SegmentDisposition {
        st.insert(offset, &pb(bytes), None)
    }

    fn capture(mss: usize, payload: &[u8]) -> ja_netsim::trace::Trace {
        let mut net = Network::new().with_mss(mss);
        let f = net.open(
            SimTime::ZERO,
            HostAddr::internal(HostId(1)),
            1,
            HostAddr::external(1),
            2,
        );
        net.send(SimTime::from_millis(1), f, Direction::ToResponder, payload);
        net.send(SimTime::from_millis(2), f, Direction::ToInitiator, b"ack");
        net.close(SimTime::from_millis(3), f, false);
        net.into_trace()
    }

    #[test]
    fn in_order_reassembly() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let trace = capture(100, &data);
        let mut r = Reassembler::new();
        r.feed_trace(&trace);
        let fb = &r.flows()[&0];
        assert_eq!(fb.up.data, data);
        assert_eq!(fb.down.data, b"ack");
        assert!(fb.opened.is_some());
        assert!(fb.closed.is_some());
        assert!(!fb.up.has_gap());
        assert_eq!(fb.up_sizes.len(), 10);
    }

    #[test]
    fn reordered_and_duplicated_reassembly() {
        let data: Vec<u8> = (0u8..200).collect();
        let trace = capture(16, &data);
        let mut recs = trace.into_records();
        let dup = recs
            .iter()
            .find(|r| !r.payload.is_empty())
            .cloned()
            .unwrap();
        recs.push(dup);
        let mut rng = SimRng::new(3);
        let shuffled =
            ja_netsim::trace::Trace::new(recs).perturb(&mut rng, 0.0, Duration::from_millis(100));
        let mut r = Reassembler::new();
        r.feed_trace(&shuffled);
        let fb = &r.flows()[&0];
        assert_eq!(fb.up.data, data);
        assert!(fb.up.duplicates >= 1 || fb.up.pending_bytes == 0);
    }

    #[test]
    fn gap_withholds_suffix() {
        let data: Vec<u8> = (0u8..100).collect();
        let trace = capture(10, &data);
        let recs: Vec<_> = trace
            .into_records()
            .into_iter()
            .filter(|r| r.stream_offset != 30 || r.payload.is_empty())
            .collect();
        let mut r = Reassembler::new();
        for rec in &recs {
            r.feed(rec);
        }
        let fb = &r.flows()[&0];
        assert_eq!(fb.up.data, (0u8..30).collect::<Vec<_>>());
        assert!(fb.up.has_gap());
        assert!(fb.up.pending_bytes > 0);
    }

    #[test]
    fn overlap_trimmed() {
        let mut st = StreamState::default();
        ins(&mut st, 0, &[1, 2, 3, 4]);
        // Overlapping retransmit covering [2, 6).
        ins(&mut st, 2, &[3, 4, 5, 6]);
        assert_eq!(st.data, vec![1, 2, 3, 4, 5, 6]);
        // Fully-covered duplicate.
        ins(&mut st, 0, &[1, 2]);
        assert_eq!(st.duplicates, 1);
    }

    #[test]
    fn pending_replacement_adjusts_gap_accounting() {
        let mut st = StreamState::default();
        // Repacketized retransmissions at an already-pending offset:
        // the longer payload wins and `pending_bytes` tracks the delta.
        ins(&mut st, 10, &[10, 11]);
        assert_eq!(st.pending_bytes, 2);
        ins(&mut st, 10, &[10, 11, 12, 13, 14]);
        assert_eq!(st.pending_bytes, 5);
        // A shorter retransmission must never truncate captured bytes.
        ins(&mut st, 10, &[10, 11, 12]);
        assert_eq!(st.pending_bytes, 5);
        assert_eq!(st.duplicates, 1);
        // Fill the gap: every stashed byte drains, none goes stale or
        // is lost.
        ins(&mut st, 0, &(0u8..10).collect::<Vec<_>>());
        assert_eq!(st.data, (0u8..15).collect::<Vec<_>>());
        assert_eq!(st.pending_bytes, 0);
        assert!(!st.has_gap());
    }

    #[test]
    fn partial_overlap_counts_unique_pending_bytes() {
        let mut st = StreamState::default();
        // While the gap is open, `pending_bytes` must gauge *unique*
        // stashed bytes even when stashes partially overlap.
        ins(&mut st, 10, &(10u8..20).collect::<Vec<_>>());
        assert_eq!(st.pending_bytes, 10);
        // [15, 25) overlaps [10, 20): only [20, 25) is new.
        assert_eq!(
            ins(&mut st, 15, &(15u8..25).collect::<Vec<_>>()),
            SegmentDisposition::New
        );
        assert_eq!(st.pending_bytes, 15);
        // [5, 30) straddles everything stashed: [5, 10) and [25, 30).
        assert_eq!(
            ins(&mut st, 5, &(5u8..30).collect::<Vec<_>>()),
            SegmentDisposition::New
        );
        assert_eq!(st.pending_bytes, 25);
        ins(&mut st, 0, &(0u8..5).collect::<Vec<_>>());
        assert_eq!(st.data, (0u8..30).collect::<Vec<_>>());
        assert_eq!(st.pending_bytes, 0);
        assert!(!st.has_gap());
    }

    #[test]
    fn shifted_retransmission_within_pending_is_duplicate() {
        let mut st = StreamState::default();
        // Stash [10, 20) behind a gap, then retransmit subsets at
        // shifted offsets: no new bytes, so both are duplicates.
        ins(&mut st, 10, &(10u8..20).collect::<Vec<_>>());
        assert_eq!(
            ins(&mut st, 12, &[12, 13, 14]),
            SegmentDisposition::Duplicate
        );
        assert_eq!(
            ins(&mut st, 15, &(15u8..20).collect::<Vec<_>>()),
            SegmentDisposition::Duplicate
        );
        assert_eq!(st.duplicates, 2);
        assert_eq!(st.pending_bytes, 10);
        // A shifted segment reaching past the stash carries new bytes.
        assert_eq!(
            ins(&mut st, 15, &(15u8..25).collect::<Vec<_>>()),
            SegmentDisposition::New
        );
        ins(&mut st, 0, &(0u8..10).collect::<Vec<_>>());
        assert_eq!(st.data, (0u8..25).collect::<Vec<_>>());
        assert_eq!(st.pending_bytes, 0);
        assert!(!st.has_gap());
    }

    #[test]
    fn duplicates_do_not_inflate_rate_features() {
        let data: Vec<u8> = (0u8..200).collect();
        let trace = capture(20, &data);
        let mut clean = Reassembler::new();
        clean.feed_trace(&trace);
        // Retransmit every upstream payload segment once — borrowed
        // replay, no cloned record vector.
        let dups: Vec<_> = trace
            .records()
            .iter()
            .filter(|r| !r.payload.is_empty() && r.dir == Direction::ToResponder)
            .collect();
        assert!(!dups.is_empty());
        let mut noisy = Reassembler::new();
        noisy.feed_trace(&trace);
        for r in dups {
            noisy.feed(r);
        }
        let (c, n) = (&clean.flows()[&0], &noisy.flows()[&0]);
        assert_eq!(n.up.data, data);
        assert!(n.up.duplicates >= 10);
        // The volumetric/rate features must match the clean capture.
        assert_eq!(n.up_sizes, c.up_sizes);
        assert_eq!(n.up_times, c.up_times);
    }

    #[test]
    fn pending_coalesces_on_fill() {
        let mut st = StreamState::default();
        ins(&mut st, 10, &[10, 11]);
        ins(&mut st, 5, &[5, 6, 7, 8, 9]);
        assert!(st.has_gap() || st.data.is_empty());
        ins(&mut st, 0, &[0, 1, 2, 3, 4]);
        assert_eq!(st.data, (0u8..12).collect::<Vec<_>>());
        assert!(!st.has_gap());
    }
}
