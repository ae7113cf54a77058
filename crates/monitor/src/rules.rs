//! Signature rules: the "latest signatures of attacks in the wild" the
//! paper wants honeypots to learn at the edge and push to production
//! monitors before attackers reach them (§IV.A).
//!
//! Two delivery models coexist:
//!
//! - A static [`RuleSet`] configured up front (builtin signatures plus
//!   anything merged in before analysis starts).
//! - A hot-reloadable [`RuleFeed`]: timed rules published *while the
//!   monitor is running* (the honeypot intel loop). Every rule carries
//!   an `available_at` instant, and the engine only applies a rule to
//!   flows that began at or after it — a rule learned at simulated time
//!   `t` never matches traffic observed before it propagated, exactly
//!   as a real intel push cannot retroactively alert on yesterday's
//!   capture.

use ja_attackgen::AttackClass;
use ja_netsim::time::SimTime;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// What a rule matches on.
#[derive(Clone, Debug, PartialEq)]
pub enum Pattern {
    /// Substring in executed cell code (needs content visibility).
    CodeSubstring(String),
    /// Substring in the HTTP upgrade target (token leaks, odd paths).
    UrlSubstring(String),
    /// Destination port match (stratum pools, DNS tunnels).
    DstPort(u16),
    /// Substring in a process command line (audit-plane rules).
    CmdlineSubstring(String),
}

// The vendored serde derive has no tuple-variant dialect, so the
// checkpoint encoding for `Pattern` is hand-written as an internally
// tagged object: `{"kind": "...", "s": ...}` / `{"kind": "dst_port",
// "port": ...}`.
impl serde::Serialize for Pattern {
    fn to_value(&self) -> serde::Value {
        let (kind, key, val) = match self {
            Pattern::CodeSubstring(s) => ("code_substring", "s", s.to_value()),
            Pattern::UrlSubstring(s) => ("url_substring", "s", s.to_value()),
            Pattern::DstPort(p) => ("dst_port", "port", p.to_value()),
            Pattern::CmdlineSubstring(s) => ("cmdline_substring", "s", s.to_value()),
        };
        serde::Value::Object(vec![
            ("kind".to_string(), serde::Value::String(kind.to_string())),
            (key.to_string(), val),
        ])
    }
}

impl serde::Deserialize for Pattern {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let kind = value["kind"]
            .as_str()
            .ok_or_else(|| serde::DeError::custom("pattern missing kind"))?;
        let s = || String::from_value(&value["s"]);
        match kind {
            "code_substring" => Ok(Pattern::CodeSubstring(s()?)),
            "url_substring" => Ok(Pattern::UrlSubstring(s()?)),
            "cmdline_substring" => Ok(Pattern::CmdlineSubstring(s()?)),
            "dst_port" => u16::from_value(&value["port"]).map(Pattern::DstPort),
            other => Err(serde::DeError::custom(format!(
                "unknown pattern kind {other:?}"
            ))),
        }
    }
}

/// Where a rule came from. Alert attribution follows the origin, so a
/// report can say which plane (builtin sensor vs honeypot intel loop)
/// produced a detection.
#[derive(
    Clone,
    Copy,
    Debug,
    Default,
    PartialEq,
    Eq,
    Hash,
    PartialOrd,
    Ord,
    serde::Serialize,
    serde::Deserialize,
)]
pub enum RuleOrigin {
    /// Shipped with the production sensor.
    #[default]
    Builtin,
    /// Learned by an edge decoy and propagated to production monitors.
    HoneypotIntel,
}

/// One signature rule.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Rule {
    /// Unique rule id.
    pub id: String,
    /// Class the rule indicates.
    pub class: AttackClass,
    /// Match pattern.
    pub pattern: Pattern,
    /// Confidence contributed by a match.
    pub confidence: f64,
    /// Provenance (decides alert-source attribution).
    pub origin: RuleOrigin,
}

/// A rule plus the earliest simulated instant a production monitor may
/// use it (learned-at plus the intel propagation delay).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimedRule {
    /// When production monitors may start matching with this rule.
    pub available_at: SimTime,
    /// The rule itself.
    pub rule: Rule,
}

/// Shared feed state behind the lock: published rules in publish order
/// plus an id index for O(1) re-publish dedup.
#[derive(Default)]
struct FeedInner {
    rules: Vec<TimedRule>,
    ids: HashSet<String>,
}

// Manual Debug: the dedup set iterates in hash order, which varies per
// instance — sort it so equal feeds format identically (service config
// fingerprints hash the Debug rendering).
impl std::fmt::Debug for FeedInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut ids: Vec<&String> = self.ids.iter().collect();
        ids.sort_unstable();
        f.debug_struct("FeedInner")
            .field("rules", &self.rules)
            .field("ids", &ids)
            .finish()
    }
}

/// Serializable state of a [`RuleFeed`]: every published rule in publish
/// order. The generation stamp is not stored: it counts successful
/// publishes, so it is the rule count. Part of the layer-by-layer
/// service checkpoint contract.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FeedCheckpoint {
    /// Published rules with availability times, in publish order.
    pub rules: Vec<TimedRule>,
}

/// A hot-reloadable rule feed: the publisher half (the pipeline's
/// honeypot intel loop) pushes [`TimedRule`]s while the subscriber half
/// (every streaming-monitor shard) consults it per analyzed flow.
/// Clones share state, so one handle can feed any number of worker
/// threads; publishing mid-capture is exactly the hot-reload path.
///
/// Every successful publish bumps a lock-free **epoch** counter.
/// Subscribers ([`crate::matcher::FeedCache`]) key their compiled
/// snapshot on it: an unchanged epoch means the cached automaton is
/// current and the per-flow cost is one atomic load — no read lock, no
/// scan.
#[derive(Clone, Debug, Default)]
pub struct RuleFeed {
    inner: Arc<RwLock<FeedInner>>,
    epoch: Arc<AtomicU64>,
}

impl RuleFeed {
    /// An empty feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a rule that becomes usable at `available_at`, bumping
    /// the feed epoch. Re-publishing an id already in the feed is a
    /// no-op (and leaves the epoch untouched). Returns whether the rule
    /// was newly inserted.
    pub fn publish(&self, available_at: SimTime, rule: Rule) -> bool {
        let mut inner = self.inner.write().expect("rule feed poisoned");
        if !inner.ids.insert(rule.id.clone()) {
            return false;
        }
        inner.rules.push(TimedRule { available_at, rule });
        // Bumped while holding the write lock, so a subscriber that
        // observes the new epoch and then snapshots is guaranteed to
        // see this rule.
        self.epoch.fetch_add(1, Ordering::Release);
        true
    }

    /// Number of published rules (available or not).
    pub fn len(&self) -> usize {
        self.inner.read().expect("rule feed poisoned").rules.len()
    }

    /// Is the feed empty? Lock-free: rules are never removed, so the
    /// feed is empty exactly while the epoch is still zero.
    pub fn is_empty(&self) -> bool {
        self.epoch() == 0
    }

    /// The feed's generation stamp: incremented on every successful
    /// publish, never otherwise. Lock-free.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// All published rules with their availability times.
    pub fn snapshot(&self) -> Vec<TimedRule> {
        self.inner.read().expect("rule feed poisoned").rules.clone()
    }

    /// Serializable feed contents, for the service checkpoint contract.
    pub fn checkpoint(&self) -> FeedCheckpoint {
        FeedCheckpoint {
            rules: self.snapshot(),
        }
    }

    /// Rebuild a feed from a [`RuleFeed::checkpoint`]: same rules in the
    /// same publish order, id index reconstructed, epoch set to the rule
    /// count — the generation the original reached, since only a
    /// successful publish moves it. Subscribers attached to the
    /// restored feed therefore compile exactly the snapshot subscribers
    /// of the original would have ([`crate::matcher::FeedCache`] keys
    /// compiled snapshots on the epoch).
    pub fn restore(cp: &FeedCheckpoint) -> Self {
        let feed = RuleFeed::new();
        {
            let mut inner = feed.inner.write().expect("rule feed poisoned");
            for tr in &cp.rules {
                inner.ids.insert(tr.rule.id.clone());
                inner.rules.push(tr.clone());
            }
        }
        feed.epoch.store(cp.rules.len() as u64, Ordering::Release);
        feed
    }

    /// Rules a monitor may apply to a flow that began at `at`: only
    /// those whose `available_at` is not after it. Publish order is
    /// preserved, so output is deterministic for a deterministic
    /// publisher.
    pub fn rules_at(&self, at: SimTime) -> Vec<Rule> {
        let mut rules = Vec::new();
        self.for_each_available(at, |r| rules.push(r.clone()));
        rules
    }

    /// Visit (borrowed, in publish order) every rule available to a
    /// flow that began at `at` — the allocation-free variant of
    /// [`RuleFeed::rules_at`] the per-flow hot path uses.
    pub fn for_each_available<F: FnMut(&Rule)>(&self, at: SimTime, mut f: F) {
        for t in self.inner.read().expect("rule feed poisoned").rules.iter() {
            if t.available_at <= at {
                f(&t.rule);
            }
        }
    }
}

/// A rule set with (naive, linear-scan) match helpers. The hot paths
/// run a [`crate::matcher::CompiledRuleSet`] built from this set; the
/// scans here remain the reference implementation the equivalence
/// property tests pin the compiled matcher against.
#[derive(Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    /// Id index for O(1) add-dedup.
    ids: HashSet<String>,
}

// Manual Debug for the same reason as [`FeedInner`]: the dedup set's
// hash order varies per instance, and config fingerprints hash the
// Debug rendering.
impl std::fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut ids: Vec<&String> = self.ids.iter().collect();
        ids.sort_unstable();
        f.debug_struct("RuleSet")
            .field("rules", &self.rules)
            .field("ids", &ids)
            .finish()
    }
}

impl RuleSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The builtin signatures a production sensor ships with. Honeypot
    /// intel extends this set at runtime.
    pub fn builtin() -> Self {
        let mut rs = Self::new();
        for (id, class, pattern, conf) in [
            (
                "sig-miner-cmd",
                AttackClass::Cryptomining,
                Pattern::CmdlineSubstring("xmrig".into()),
                0.95,
            ),
            (
                "sig-stratum-port",
                AttackClass::Cryptomining,
                Pattern::DstPort(3333),
                0.7,
            ),
            (
                "sig-stratum-tls-port",
                AttackClass::Cryptomining,
                Pattern::DstPort(14444),
                0.6,
            ),
            (
                "sig-curl-pipe-sh",
                AttackClass::Misconfiguration,
                Pattern::CmdlineSubstring("| sh".into()),
                0.8,
            ),
            (
                "sig-os-system",
                AttackClass::Misconfiguration,
                Pattern::CodeSubstring("os.system".into()),
                0.5,
            ),
            (
                "sig-ransom-note",
                AttackClass::Ransomware,
                Pattern::CodeSubstring("README_RESTORE".into()),
                0.9,
            ),
            (
                "sig-cred-harvest",
                AttackClass::AccountTakeover,
                Pattern::CmdlineSubstring(".ssh/id_rsa".into()),
                0.85,
            ),
            (
                "sig-token-in-url",
                AttackClass::Misconfiguration,
                Pattern::UrlSubstring("token=".into()),
                0.6,
            ),
        ] {
            rs.add(Rule {
                id: id.into(),
                class,
                pattern,
                confidence: conf,
                origin: RuleOrigin::Builtin,
            });
        }
        rs
    }

    /// Add a rule (honeypot intel path).
    pub fn add(&mut self, rule: Rule) {
        // Id-dedup: re-learning an existing signature is a no-op.
        if self.ids.insert(rule.id.clone()) {
            self.rules.push(rule);
        }
    }

    /// The rules, in insertion order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Compile this set for single-pass matching.
    pub fn compiled(&self, mode: crate::matcher::MatchMode) -> crate::matcher::CompiledRuleSet {
        crate::matcher::CompiledRuleSet::compile(self, mode)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules matching executed code.
    pub fn match_code(&self, code: &str) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(
                |r| matches!(&r.pattern, Pattern::CodeSubstring(s) if code.contains(s.as_str())),
            )
            .collect()
    }

    /// Rules matching an upgrade-request target.
    pub fn match_url(&self, url: &str) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(|r| matches!(&r.pattern, Pattern::UrlSubstring(s) if url.contains(s.as_str())))
            .collect()
    }

    /// Rules matching a destination port.
    pub fn match_port(&self, port: u16) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(|r| matches!(&r.pattern, Pattern::DstPort(p) if *p == port))
            .collect()
    }

    /// Rules matching a process command line.
    pub fn match_cmdline(&self, cmdline: &str) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(
                |r| matches!(&r.pattern, Pattern::CmdlineSubstring(s) if cmdline.contains(s.as_str())),
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_rules_match_expected_artifacts() {
        let rs = RuleSet::builtin();
        assert!(!rs.is_empty());
        assert!(!rs.match_cmdline("/tmp/.x -o pool:3333 (xmrig)").is_empty());
        assert!(!rs.match_port(3333).is_empty());
        assert!(rs.match_port(443).is_empty());
        assert!(!rs
            .match_code("open('README_RESTORE.txt','w').write(note)")
            .is_empty());
        assert!(!rs
            .match_url("/api/kernels/k0/channels?token=abc")
            .is_empty());
        assert!(rs.match_code("print('hello')").is_empty());
    }

    #[test]
    fn add_dedups_by_id() {
        let mut rs = RuleSet::new();
        let rule = Rule {
            id: "x".into(),
            class: AttackClass::ZeroDay,
            pattern: Pattern::CodeSubstring("abc".into()),
            confidence: 0.5,
            origin: RuleOrigin::Builtin,
        };
        rs.add(rule.clone());
        rs.add(rule);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn learned_rule_extends_coverage() {
        let mut rs = RuleSet::builtin();
        let before = rs.match_code("comm.send(buffer[:40960])").len();
        assert_eq!(before, 0);
        rs.add(Rule {
            id: "hp-learned-1".into(),
            class: AttackClass::ZeroDay,
            pattern: Pattern::CodeSubstring("comm.send(buffer".into()),
            confidence: 0.8,
            origin: RuleOrigin::HoneypotIntel,
        });
        assert_eq!(rs.match_code("comm.send(buffer[:40960])").len(), 1);
    }

    fn timed(id: &str, token: &str, at: SimTime) -> TimedRule {
        TimedRule {
            available_at: at,
            rule: Rule {
                id: id.into(),
                class: AttackClass::Cryptomining,
                pattern: Pattern::CodeSubstring(token.into()),
                confidence: 0.9,
                origin: RuleOrigin::HoneypotIntel,
            },
        }
    }

    #[test]
    fn feed_gates_rules_on_availability() {
        let feed = RuleFeed::new();
        assert!(feed.is_empty());
        let t = timed("hp-1-1", "evil_token", SimTime::from_secs(600));
        feed.publish(t.available_at, t.rule);
        assert_eq!(feed.len(), 1);
        assert!(feed.rules_at(SimTime::from_secs(599)).is_empty());
        assert_eq!(feed.rules_at(SimTime::from_secs(600)).len(), 1);
        assert_eq!(feed.rules_at(SimTime::from_secs(10_000)).len(), 1);
    }

    #[test]
    fn feed_dedups_by_id_and_shares_state_across_clones() {
        let feed = RuleFeed::new();
        let handle = feed.clone();
        let t = timed("hp-1-1", "evil_token", SimTime::ZERO);
        handle.publish(t.available_at, t.rule.clone());
        handle.publish(SimTime::from_secs(9), t.rule); // same id, later time
        assert_eq!(feed.len(), 1);
        assert_eq!(feed.snapshot()[0].available_at, SimTime::ZERO);
        // A second distinct rule is visible through every handle.
        let t2 = timed("hp-2-1", "other_token", SimTime::ZERO);
        feed.publish(t2.available_at, t2.rule);
        assert_eq!(handle.rules_at(SimTime::ZERO).len(), 2);
    }

    #[test]
    fn pattern_serde_round_trips_every_variant() {
        use serde::{Deserialize, Serialize};
        for p in [
            Pattern::CodeSubstring("miner".into()),
            Pattern::UrlSubstring("/api/kernels?token=".into()),
            Pattern::DstPort(3333),
            Pattern::CmdlineSubstring("xmrig".into()),
        ] {
            let back = Pattern::from_value(&p.to_value()).unwrap();
            assert_eq!(back, p);
        }
        assert!(Pattern::from_value(&serde::Value::Null).is_err());
    }

    #[test]
    fn feed_checkpoint_restores_rules_epoch_and_dedup() {
        let feed = RuleFeed::new();
        let t1 = timed("hp-1-1", "evil_token", SimTime::from_secs(10));
        let t2 = timed("hp-2-1", "other_token", SimTime::from_secs(20));
        feed.publish(t1.available_at, t1.rule.clone());
        feed.publish(t2.available_at, t2.rule);

        use serde::Deserialize;
        let json = serde_json::to_string(&feed.checkpoint()).unwrap();
        let cp = FeedCheckpoint::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        let restored = RuleFeed::restore(&cp);

        assert_eq!(restored.epoch(), feed.epoch());
        assert!(!restored.is_empty());
        assert_eq!(restored.len(), 2);
        assert_eq!(
            restored.rules_at(SimTime::from_secs(15)).len(),
            feed.rules_at(SimTime::from_secs(15)).len()
        );
        // Dedup index was rebuilt: re-publishing a restored id is a
        // no-op and leaves the epoch untouched.
        assert!(!restored.publish(SimTime::ZERO, t1.rule));
        assert_eq!(restored.epoch(), feed.epoch());
    }
}
