//! The capture: what the passive sensor saw.
//!
//! A [`Trace`] is the synthetic pcap every experiment hands to the
//! monitor. It supports per-flow reassembly (what Zeek's TCP analyzer
//! does), perturbation (drops/reordering, for the robustness ablation),
//! and aggregate summaries (the "traffic keeps increasing" axis of E5).

use crate::addr::FiveTuple;
use crate::rng::SimRng;
use crate::segment::{Direction, SegmentRecord};
use crate::time::{Duration, SimTime};
use std::collections::BTreeMap;

/// An ordered capture of segment records.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<SegmentRecord>,
}

/// Per-flow aggregate view.
#[derive(Clone, Debug)]
pub struct FlowSummary {
    /// Flow id.
    pub flow_id: u64,
    /// Five-tuple.
    pub tuple: FiveTuple,
    /// First segment time.
    pub first: SimTime,
    /// Last segment time.
    pub last: SimTime,
    /// Bytes initiator→responder.
    pub bytes_up: u64,
    /// Bytes responder→initiator.
    pub bytes_down: u64,
    /// Total segments.
    pub segments: u64,
    /// Did the flow close with RST?
    pub reset: bool,
}

impl FlowSummary {
    /// Flow duration.
    pub fn duration(&self) -> Duration {
        self.last.since(self.first)
    }

    /// Upload asymmetry in [-1, 1] (+1 = pure upload).
    pub fn asymmetry(&self) -> f64 {
        let (u, d) = (self.bytes_up as f64, self.bytes_down as f64);
        if u + d == 0.0 {
            0.0
        } else {
            (u - d) / (u + d)
        }
    }
}

/// Whole-trace statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Segment count.
    pub segments: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Distinct flows.
    pub flows: u64,
    /// Capture duration (first to last record).
    pub duration_secs: f64,
}

impl Trace {
    /// Wrap a record list (assumed time-sorted; [`Trace::sort`] fixes it
    /// otherwise).
    pub fn new(records: Vec<SegmentRecord>) -> Self {
        Trace { records }
    }

    /// The records.
    pub fn records(&self) -> &[SegmentRecord] {
        &self.records
    }

    /// Consume into records.
    pub fn into_records(self) -> Vec<SegmentRecord> {
        self.records
    }

    /// Stable sort by timestamp.
    pub fn sort(&mut self) {
        self.records.sort_by_key(|r| r.time);
    }

    /// Merge another trace into this one (re-sorts).
    pub fn merge(&mut self, other: Trace) {
        self.records.extend(other.records);
        self.sort();
    }

    /// Keep only records matching a predicate.
    pub fn filter(&self, pred: impl Fn(&SegmentRecord) -> bool) -> Trace {
        Trace::new(self.records.iter().filter(|r| pred(r)).cloned().collect())
    }

    /// Aggregate statistics.
    pub fn summary(&self) -> TraceSummary {
        let mut flows = std::collections::HashSet::new();
        let mut bytes = 0u64;
        for r in &self.records {
            flows.insert(r.flow_id);
            bytes += r.wire_len as u64;
        }
        let duration_secs = match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.time.since(a.time).as_secs_f64(),
            _ => 0.0,
        };
        TraceSummary {
            segments: self.records.len() as u64,
            bytes,
            flows: flows.len() as u64,
            duration_secs,
        }
    }

    /// Per-flow aggregates, ordered by flow id.
    pub fn flow_summaries(&self) -> Vec<FlowSummary> {
        let mut map: BTreeMap<u64, FlowSummary> = BTreeMap::new();
        for r in &self.records {
            let e = map.entry(r.flow_id).or_insert_with(|| FlowSummary {
                flow_id: r.flow_id,
                tuple: r.tuple,
                first: r.time,
                last: r.time,
                bytes_up: 0,
                bytes_down: 0,
                segments: 0,
                reset: false,
            });
            e.first = e.first.min(r.time);
            e.last = e.last.max(r.time);
            e.segments += 1;
            e.reset |= r.flags.rst;
            match r.dir {
                Direction::ToResponder => e.bytes_up += r.wire_len as u64,
                Direction::ToInitiator => e.bytes_down += r.wire_len as u64,
            }
        }
        map.into_values().collect()
    }

    /// Reassemble one direction of one flow from stream offsets,
    /// tolerating duplicates and reordering; returns the contiguous
    /// prefix (bytes after a gap are withheld, exactly like a TCP
    /// reassembler's delivery rule).
    pub fn reassemble(&self, flow_id: u64, dir: Direction) -> Vec<u8> {
        let mut chunks: BTreeMap<u64, &SegmentRecord> = BTreeMap::new();
        for r in &self.records {
            if r.flow_id == flow_id && r.dir == dir && !r.payload.is_empty() {
                // Last writer wins for duplicate offsets.
                chunks.insert(r.stream_offset, r);
            }
        }
        let mut out = Vec::new();
        let mut next = 0u64;
        for (off, r) in chunks {
            if off > next {
                break; // gap — stop at contiguous prefix
            }
            let skip = (next - off) as usize;
            if skip < r.payload.len() {
                out.extend_from_slice(&r.payload[skip..]);
                next = off + r.payload.len() as u64;
            }
        }
        out
    }

    /// Robustness perturbation: drop each payload record with probability
    /// `drop_rate` and shuffle timestamps within a `reorder_window`.
    /// Control records (SYN/FIN/RST) are preserved.
    pub fn perturb(&self, rng: &mut SimRng, drop_rate: f64, reorder_window: Duration) -> Trace {
        let mut out: Vec<SegmentRecord> = Vec::with_capacity(self.records.len());
        for r in &self.records {
            let is_control = r.flags.syn || r.flags.fin || r.flags.rst;
            if !is_control && rng.chance(drop_rate) {
                continue;
            }
            let mut r = r.clone();
            if reorder_window.as_micros() > 0 {
                let jitter = rng.range(0, reorder_window.as_micros());
                r.time = SimTime(r.time.as_micros() + jitter);
            }
            out.push(r);
        }
        let mut t = Trace::new(out);
        t.sort();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HostAddr, HostId};
    use crate::network::Network;

    fn build_trace() -> Trace {
        let a = HostAddr::internal(HostId(1));
        let b = HostAddr::external(2);
        let mut net = Network::new().with_mss(4);
        let f = net.open(SimTime::ZERO, a, 1000, b, 443);
        net.send(
            SimTime::from_millis(1),
            f,
            Direction::ToResponder,
            b"abcdefghij",
        );
        net.send(SimTime::from_millis(5), f, Direction::ToInitiator, b"0123");
        net.close(SimTime::from_millis(9), f, false);
        let g = net.open(SimTime::from_millis(2), a, 1001, b, 8888);
        net.send(SimTime::from_millis(3), g, Direction::ToResponder, b"xy");
        net.close(SimTime::from_millis(4), g, true);
        net.into_trace()
    }

    #[test]
    fn summary_counts() {
        let t = build_trace();
        let s = t.summary();
        assert_eq!(s.flows, 2);
        assert_eq!(s.bytes, 10 + 4 + 2);
        assert!(s.segments >= 7);
        assert!(s.duration_secs > 0.0);
    }

    #[test]
    fn flow_summaries_aggregate() {
        let t = build_trace();
        let fs = t.flow_summaries();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].bytes_up, 10);
        assert_eq!(fs[0].bytes_down, 4);
        assert!(!fs[0].reset);
        assert!(fs[1].reset);
        assert!(fs[0].asymmetry() > 0.0);
    }

    #[test]
    fn reassembly_matches_sent_bytes() {
        let t = build_trace();
        assert_eq!(
            t.reassemble(0, Direction::ToResponder),
            b"abcdefghij".to_vec()
        );
        assert_eq!(t.reassemble(0, Direction::ToInitiator), b"0123".to_vec());
        assert_eq!(t.reassemble(1, Direction::ToResponder), b"xy".to_vec());
    }

    #[test]
    fn reassembly_handles_duplicates_and_reorder() {
        let t = build_trace();
        let mut recs = t.clone().into_records();
        // Duplicate a payload record and shuffle order.
        let dup = recs
            .iter()
            .find(|r| !r.payload.is_empty() && r.flow_id == 0)
            .unwrap()
            .clone();
        recs.push(dup);
        recs.reverse();
        let t2 = Trace::new(recs);
        assert_eq!(
            t2.reassemble(0, Direction::ToResponder),
            b"abcdefghij".to_vec()
        );
    }

    #[test]
    fn reassembly_stops_at_gap() {
        let t = build_trace();
        let recs: Vec<SegmentRecord> = t
            .into_records()
            .into_iter()
            .filter(|r| !(r.flow_id == 0 && r.stream_offset == 4 && !r.payload.is_empty()))
            .collect();
        let t2 = Trace::new(recs);
        // Chunk at offset 4..8 dropped: only the first 4 bytes delivered.
        assert_eq!(t2.reassemble(0, Direction::ToResponder), b"abcd".to_vec());
    }

    #[test]
    fn perturb_drops_payloads_not_control() {
        let t = build_trace();
        let mut rng = SimRng::new(1);
        let p = t.perturb(&mut rng, 1.0, Duration::ZERO);
        assert!(p.records().iter().all(|r| r.payload.is_empty()));
        let controls = p
            .records()
            .iter()
            .filter(|r| r.flags.syn || r.flags.fin || r.flags.rst)
            .count();
        assert_eq!(controls, 4); // 2 SYN + 1 FIN + 1 RST
    }

    #[test]
    fn perturb_zero_is_identity_shape() {
        let t = build_trace();
        let mut rng = SimRng::new(2);
        let p = t.perturb(&mut rng, 0.0, Duration::ZERO);
        assert_eq!(p.records().len(), t.records().len());
    }

    #[test]
    fn filter_by_port() {
        let t = build_trace();
        let only_8888 = t.filter(|r| r.tuple.dst_port == 8888);
        assert!(only_8888.records().iter().all(|r| r.tuple.dst_port == 8888));
        assert!(only_8888.summary().segments > 0);
    }

    #[test]
    fn merge_resorts() {
        let t1 = build_trace();
        let t2 = build_trace();
        let mut m = t1.clone();
        m.merge(t2);
        let times: Vec<u64> = m.records().iter().map(|r| r.time.as_micros()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }
}
