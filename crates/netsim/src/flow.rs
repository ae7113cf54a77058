//! Flow identity and per-flow state.

use crate::addr::FiveTuple;
use crate::time::SimTime;

/// Handle to an open (or closed) flow in a [`crate::network::Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Maximum segment size used when chopping application writes.
pub const DEFAULT_MSS: usize = 1448;

/// Internal state of one flow.
#[derive(Clone, Debug)]
pub struct FlowState {
    /// Canonical five-tuple (initiator as src).
    pub tuple: FiveTuple,
    /// When the flow was opened.
    pub opened_at: SimTime,
    /// When the flow was closed (None while open).
    pub closed_at: Option<SimTime>,
    /// Bytes sent initiator→responder.
    pub bytes_to_responder: u64,
    /// Bytes sent responder→initiator.
    pub bytes_to_initiator: u64,
    /// Segments sent initiator→responder.
    pub segs_to_responder: u64,
    /// Segments sent responder→initiator.
    pub segs_to_initiator: u64,
}

impl FlowState {
    /// Fresh open flow.
    pub fn new(tuple: FiveTuple, opened_at: SimTime) -> Self {
        FlowState {
            tuple,
            opened_at,
            closed_at: None,
            bytes_to_responder: 0,
            bytes_to_initiator: 0,
            segs_to_responder: 0,
            segs_to_initiator: 0,
        }
    }

    /// Is the flow still open?
    pub fn is_open(&self) -> bool {
        self.closed_at.is_none()
    }

    /// Total bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_to_responder + self.bytes_to_initiator
    }

    /// Outbound/inbound byte asymmetry in [-1, 1]: +1 is pure upload
    /// (initiator pushing data out — the exfiltration signature when the
    /// responder is external), -1 pure download.
    pub fn asymmetry(&self) -> f64 {
        let up = self.bytes_to_responder as f64;
        let down = self.bytes_to_initiator as f64;
        if up + down == 0.0 {
            return 0.0;
        }
        (up - down) / (up + down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HostAddr, HostId};

    fn tuple() -> FiveTuple {
        FiveTuple::new(
            HostAddr::internal(HostId(1)),
            40000,
            HostAddr::external(1),
            443,
        )
    }

    #[test]
    fn asymmetry_bounds() {
        let mut f = FlowState::new(tuple(), SimTime::ZERO);
        assert_eq!(f.asymmetry(), 0.0);
        f.bytes_to_responder = 100;
        assert_eq!(f.asymmetry(), 1.0);
        f.bytes_to_initiator = 100;
        assert_eq!(f.asymmetry(), 0.0);
        f.bytes_to_initiator = 300;
        assert_eq!(f.asymmetry(), -0.5);
    }

    #[test]
    fn open_close_lifecycle() {
        let mut f = FlowState::new(tuple(), SimTime::from_secs(1));
        assert!(f.is_open());
        f.closed_at = Some(SimTime::from_secs(2));
        assert!(!f.is_open());
        assert_eq!(f.total_bytes(), 0);
    }
}
