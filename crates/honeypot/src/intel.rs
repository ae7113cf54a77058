//! Threat-intelligence sharing: a rule learned at the edge becomes
//! usable by production monitors after a propagation delay (triage +
//! push).

use ja_monitor::rules::Rule;
use ja_netsim::time::SimTime;

/// A published rule with its availability time.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PublishedRule {
    /// When the decoy captured the underlying payload.
    pub learned_at: SimTime,
    /// When production monitors can use it.
    pub available_at: SimTime,
    /// The rule.
    pub rule: Rule,
}
