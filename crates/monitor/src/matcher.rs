//! Compiled multi-pattern signature matching: one automaton per rule
//! plane, so a payload is scanned **once** regardless of rule count.
//!
//! The naive path in [`crate::rules::RuleSet`] costs O(rules × payload)
//! `contains` scans per payload, and the hot-reload path additionally
//! takes the [`RuleFeed`] read lock on every analyzed flow. Both costs
//! grow with the learned-signature volume the paper's §IV intel loop
//! promises. This module removes the dependence on rule count:
//!
//! - [`PatternMatcher`] is an own-rolled byte-level Aho-Corasick
//!   automaton (the workspace is offline/vendored, so no external
//!   crates): a trie over all patterns with BFS-built failure links.
//!   One pass over the haystack reports every matching pattern id.
//! - [`CompiledRuleSet`] compiles a rule list per plane — one automaton
//!   each for `CodeSubstring`, `UrlSubstring` and `CmdlineSubstring`
//!   patterns, and a direct lookup table for `DstPort` rules — while
//!   reporting matches in **rule insertion order**, bit-identical to
//!   the naive scan (alerts and their order are pinned by property
//!   tests).
//! - [`FeedCache`] layers a generation-stamped compiled snapshot on a
//!   [`RuleFeed`]: publishers bump the feed's epoch, and each streaming
//!   shard recompiles its cached automaton **only when the epoch
//!   changed** — the per-flow cost of an idle feed is one atomic load,
//!   no lock, no scan.
//!
//! # Why matches are time-gated *after* automaton hits
//!
//! Feed rules carry an `available_at` instant and must never match
//! flows that began earlier (no retroactive alerts — a signature
//! learned at simulated time `t` cannot alert on yesterday's capture).
//! The compiled snapshot deliberately contains **every** published
//! rule, and availability is enforced by filtering hits against the
//! cached per-rule `available_at` *after* the single-pass scan. The
//! alternative — compiling only the currently-available subset — would
//! force a recompile whenever any rule crosses its availability
//! horizon, i.e. on a wall-clock schedule unrelated to publishes, and
//! the automaton would no longer be a pure function of the feed epoch.
//! Gating after the scan keeps the cache keyed by epoch alone while
//! preserving the invariant exactly: a hit on an unavailable rule is
//! dropped before an alert is built.

use crate::rules::{Pattern, Rule, RuleFeed, RuleSet};
use ja_netsim::time::SimTime;
use std::collections::{HashMap, VecDeque};

/// How rule matching executes. The default is [`MatchMode::Compiled`];
/// [`MatchMode::Naive`] preserves the original per-rule `contains`
/// scans (and the per-flow feed lock) as a measurable baseline — the
/// `e7_rulescale` bench and the equivalence property tests run both
/// modes against each other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatchMode {
    /// Linear per-rule scans, exactly the pre-compilation behaviour.
    Naive,
    /// Single-pass Aho-Corasick automata + port lookup table.
    #[default]
    Compiled,
}

/// One trie node of the automaton.
#[derive(Clone, Debug, Default)]
struct Node {
    /// Outgoing edges, sorted by byte for binary search.
    next: Vec<(u8, u32)>,
    /// Longest proper suffix of this node's path that is also a path
    /// prefix in the trie.
    fail: u32,
    /// Every pattern id that ends at this node, including those
    /// inherited from the failure chain (propagated at build time, so
    /// matching never walks the chain).
    out: Vec<u32>,
}

/// An own-rolled byte-level Aho-Corasick automaton over a fixed pattern
/// list. Pattern ids are the indices of the pattern list passed to
/// [`PatternMatcher::build`].
///
/// Matching semantics mirror `str::contains` per pattern: a pattern
/// matches if it occurs anywhere in the haystack, the empty pattern
/// matches every haystack (including the empty one), and each pattern
/// is reported at most once per haystack no matter how often it
/// occurs.
#[derive(Clone, Debug, Default)]
pub struct PatternMatcher {
    nodes: Vec<Node>,
    /// Dense root transitions: `root_next[b]` is the depth-1 node for
    /// byte `b`, or 0 (stay at root). Keeps the common miss path O(1).
    root_next: Vec<u32>,
    /// Ids of zero-length patterns (they match everything).
    empty_ids: Vec<u32>,
    patterns: usize,
}

impl PatternMatcher {
    /// Compile an automaton over `patterns`. Pattern ids are indices
    /// into this slice.
    pub fn build<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        let mut nodes = vec![Node::default()];
        let mut empty_ids = Vec::new();
        for (id, p) in patterns.iter().enumerate() {
            let p = p.as_ref();
            if p.is_empty() {
                empty_ids.push(id as u32);
                continue;
            }
            let mut cur = 0usize;
            for &b in p {
                cur = match nodes[cur].next.binary_search_by_key(&b, |e| e.0) {
                    Ok(i) => nodes[cur].next[i].1 as usize,
                    Err(i) => {
                        let nid = nodes.len() as u32;
                        nodes.push(Node::default());
                        nodes[cur].next.insert(i, (b, nid));
                        nid as usize
                    }
                };
            }
            nodes[cur].out.push(id as u32);
        }
        // BFS failure links; outputs of the failure target are folded
        // into each node so a hit never walks the chain at match time.
        let mut queue = VecDeque::new();
        let root_children: Vec<(u8, u32)> = nodes[0].next.clone();
        for &(_, c) in &root_children {
            nodes[c as usize].fail = 0;
            queue.push_back(c);
        }
        while let Some(u) = queue.pop_front() {
            let edges: Vec<(u8, u32)> = nodes[u as usize].next.clone();
            for (b, c) in edges {
                let mut f = nodes[u as usize].fail as usize;
                let cf = loop {
                    if let Ok(i) = nodes[f].next.binary_search_by_key(&b, |e| e.0) {
                        break nodes[f].next[i].1;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = nodes[f].fail as usize;
                };
                nodes[c as usize].fail = cf;
                let inherited = nodes[cf as usize].out.clone();
                nodes[c as usize].out.extend(inherited);
                queue.push_back(c);
            }
        }
        let mut root_next = vec![0u32; 256];
        for &(b, c) in &root_children {
            root_next[b as usize] = c;
        }
        PatternMatcher {
            nodes,
            root_next,
            empty_ids,
            patterns: patterns.len(),
        }
    }

    /// Number of patterns the automaton was built over.
    pub fn pattern_count(&self) -> usize {
        self.patterns
    }

    /// True if built over zero patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns == 0
    }

    /// Scan `haystack` once and fill `out` with every matching pattern
    /// id, ascending and deduplicated. `out` is cleared first; a
    /// zero-match scan leaves it empty without allocating.
    pub fn find_into(&self, haystack: &[u8], out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.empty_ids);
        if self.nodes.len() > 1 {
            let mut s = 0u32;
            for &b in haystack {
                s = self.step(s, b);
                let hits = &self.nodes[s as usize].out;
                if !hits.is_empty() {
                    out.extend_from_slice(hits);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Matching pattern ids, ascending and deduplicated.
    pub fn find(&self, haystack: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        self.find_into(haystack, &mut out);
        out
    }

    /// Start a resumable scan. Feeding chunks `c1, c2, …` through
    /// [`PatternMatcher::feed`] and then calling
    /// [`PatternMatcher::finish_into`] is equivalent to a single
    /// [`PatternMatcher::find_into`] over the concatenation — for *any*
    /// split, including empty chunks. This is what lets the streaming
    /// scanner match in-order bytes as they arrive and drop them,
    /// persisting only the automaton state between segments.
    pub fn begin(&self) -> MatcherState {
        MatcherState::default()
    }

    /// Advance a resumable scan over the next in-order chunk.
    ///
    /// The state must only ever be fed to the automaton that created
    /// it (state ids are automaton-specific); rebuild states after a
    /// rule-feed recompile.
    pub fn feed(&self, st: &mut MatcherState, chunk: &[u8]) {
        if self.nodes.len() <= 1 {
            return;
        }
        let mut s = st.state;
        for &b in chunk {
            s = self.step(s, b);
            let hits = &self.nodes[s as usize].out;
            if !hits.is_empty() {
                st.hits.extend_from_slice(hits);
            }
        }
        st.state = s;
    }

    /// Finalize a resumable scan into `out`: every matching pattern id,
    /// ascending and deduplicated — bit-identical to
    /// [`PatternMatcher::find_into`] over the concatenated chunks. The
    /// state is left reset, ready for the next haystack.
    pub fn finish_into(&self, st: &mut MatcherState, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.empty_ids);
        out.append(&mut st.hits);
        out.sort_unstable();
        out.dedup();
        st.state = 0;
    }

    /// [`PatternMatcher::finish_into`], allocating.
    pub fn finish(&self, st: &mut MatcherState) -> Vec<u32> {
        let mut out = Vec::new();
        self.finish_into(st, &mut out);
        out
    }

    /// One automaton transition on byte `b` from state `s`.
    #[inline]
    fn step(&self, mut s: u32, b: u8) -> u32 {
        loop {
            if s == 0 {
                return self.root_next[b as usize];
            }
            let node = &self.nodes[s as usize];
            if let Ok(i) = node.next.binary_search_by_key(&b, |e| e.0) {
                return node.next[i].1;
            }
            s = node.fail;
        }
    }
}

/// A resumable scan cursor: the automaton state reached so far plus
/// the pattern ids hit so far (raw — deduplicated and sorted at
/// [`PatternMatcher::finish_into`]). One lives per flow per plane in
/// the incremental scanner; it is intentionally small so thousands of
/// live flows cost bytes, not buffers.
#[derive(Clone, Debug, Default)]
pub struct MatcherState {
    state: u32,
    hits: Vec<u32>,
}

impl MatcherState {
    /// Reset to the start-of-haystack state (e.g. at a message
    /// boundary, where matching must not span two haystacks).
    pub fn reset(&mut self) {
        self.state = 0;
        self.hits.clear();
    }
}

/// One plane's automaton plus the map from pattern id back to the
/// owning rule's index. Pattern ids are assigned in rule order, so
/// ascending pattern ids translate to ascending rule indices — the
/// naive scan's output order.
#[derive(Clone, Debug, Default)]
struct PlaneIndex {
    ac: PatternMatcher,
    rule_of: Vec<u32>,
}

impl PlaneIndex {
    fn build(entries: &[(&str, u32)]) -> Self {
        let patterns: Vec<&[u8]> = entries.iter().map(|(p, _)| p.as_bytes()).collect();
        PlaneIndex {
            ac: PatternMatcher::build(&patterns),
            rule_of: entries.iter().map(|&(_, r)| r).collect(),
        }
    }

    /// Rule indices (ascending) whose patterns occur in `haystack`.
    fn hit_rules_into(&self, haystack: &[u8], scratch: &mut Vec<u32>, out: &mut Vec<u32>) {
        self.ac.find_into(haystack, scratch);
        out.extend(scratch.iter().map(|&pid| self.rule_of[pid as usize]));
    }
}

/// A rule list compiled for single-pass matching, produced from a
/// [`RuleSet`] (static rules) or a feed snapshot. The `match_*` methods
/// return exactly what [`RuleSet`]'s naive scans return — same rules,
/// same (insertion) order — which the equivalence property tests pin.
#[derive(Clone, Debug, Default)]
pub struct CompiledRuleSet {
    rules: Vec<Rule>,
    mode: MatchMode,
    code: PlaneIndex,
    url: PlaneIndex,
    cmdline: PlaneIndex,
    /// Direct port lookup: dst port → rule indices, insertion order.
    ports: HashMap<u16, Vec<u32>>,
}

impl CompiledRuleSet {
    /// Compile a static rule set.
    pub fn compile(rules: &RuleSet, mode: MatchMode) -> Self {
        Self::from_rules(rules.rules().to_vec(), mode)
    }

    /// Compile an owned rule list (the feed-snapshot path). In
    /// [`MatchMode::Naive`] no automata are built and the `match_*`
    /// methods fall back to linear scans.
    pub fn from_rules(rules: Vec<Rule>, mode: MatchMode) -> Self {
        let mut code = Vec::new();
        let mut url = Vec::new();
        let mut cmdline = Vec::new();
        let mut ports: HashMap<u16, Vec<u32>> = HashMap::new();
        if mode == MatchMode::Compiled {
            for (i, r) in rules.iter().enumerate() {
                let i = i as u32;
                match &r.pattern {
                    Pattern::CodeSubstring(s) => code.push((s.as_str(), i)),
                    Pattern::UrlSubstring(s) => url.push((s.as_str(), i)),
                    Pattern::CmdlineSubstring(s) => cmdline.push((s.as_str(), i)),
                    Pattern::DstPort(p) => ports.entry(*p).or_default().push(i),
                }
            }
        }
        CompiledRuleSet {
            code: PlaneIndex::build(&code),
            url: PlaneIndex::build(&url),
            cmdline: PlaneIndex::build(&cmdline),
            ports,
            rules,
            mode,
        }
    }

    /// The compiled rules, in insertion order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The mode this set was compiled for.
    pub fn mode(&self) -> MatchMode {
        self.mode
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules matching executed code (single automaton pass).
    pub fn match_code(&self, code: &str) -> Vec<&Rule> {
        self.match_plane(
            &self.code,
            code,
            |r| matches!(&r.pattern, Pattern::CodeSubstring(s) if code.contains(s.as_str())),
        )
    }

    /// Rules matching an upgrade-request target.
    pub fn match_url(&self, url: &str) -> Vec<&Rule> {
        self.match_plane(
            &self.url,
            url,
            |r| matches!(&r.pattern, Pattern::UrlSubstring(s) if url.contains(s.as_str())),
        )
    }

    /// Rules matching a process command line.
    pub fn match_cmdline(&self, cmdline: &str) -> Vec<&Rule> {
        self.match_plane(
            &self.cmdline,
            cmdline,
            |r| matches!(&r.pattern, Pattern::CmdlineSubstring(s) if cmdline.contains(s.as_str())),
        )
    }

    /// Rules matching a destination port (table lookup).
    pub fn match_port(&self, port: u16) -> Vec<&Rule> {
        match self.mode {
            MatchMode::Naive => self
                .rules
                .iter()
                .filter(|r| matches!(&r.pattern, Pattern::DstPort(p) if *p == port))
                .collect(),
            MatchMode::Compiled => match self.ports.get(&port) {
                Some(idxs) => idxs.iter().map(|&i| &self.rules[i as usize]).collect(),
                None => Vec::new(),
            },
        }
    }

    fn match_plane<F: Fn(&Rule) -> bool>(
        &self,
        plane: &PlaneIndex,
        haystack: &str,
        naive: F,
    ) -> Vec<&Rule> {
        match self.mode {
            MatchMode::Naive => self.rules.iter().filter(|r| naive(r)).collect(),
            MatchMode::Compiled => {
                let mut scratch = Vec::new();
                plane.ac.find_into(haystack.as_bytes(), &mut scratch);
                scratch
                    .iter()
                    .map(|&pid| &self.rules[plane.rule_of[pid as usize] as usize])
                    .collect()
            }
        }
    }

    /// Append the rule indices (ascending) of code-plane hits.
    pub(crate) fn code_hit_indices(&self, code: &str, scratch: &mut Vec<u32>, out: &mut Vec<u32>) {
        self.code.hit_rules_into(code.as_bytes(), scratch, out);
    }

    /// Append the rule indices (ascending) of URL-plane hits.
    pub(crate) fn url_hit_indices(&self, url: &str, scratch: &mut Vec<u32>, out: &mut Vec<u32>) {
        self.url.hit_rules_into(url.as_bytes(), scratch, out);
    }

    /// Rule at `idx` (compiled order = insertion/publish order).
    pub(crate) fn rule(&self, idx: u32) -> &Rule {
        &self.rules[idx as usize]
    }
}

/// A per-consumer generation-cached compiled snapshot of a
/// [`RuleFeed`]. Each streaming shard owns one: the per-flow fast path
/// is a single atomic epoch load, and the snapshot (automata + per-rule
/// `available_at` for post-match time-gating) is recompiled only when a
/// publisher bumped the epoch since the last flow.
#[derive(Clone, Debug)]
pub struct FeedCache {
    feed: RuleFeed,
    mode: MatchMode,
    seen_epoch: u64,
    /// `available_at` per rule, parallel to the compiled rule order.
    avail: Vec<SimTime>,
    compiled: CompiledRuleSet,
}

impl FeedCache {
    /// A cache over `feed`. Starts empty (epoch 0 = nothing published),
    /// so a run with an idle feed never compiles or locks anything.
    pub fn new(feed: RuleFeed, mode: MatchMode) -> Self {
        FeedCache {
            feed,
            mode,
            seen_epoch: 0,
            avail: Vec::new(),
            compiled: CompiledRuleSet::default(),
        }
    }

    /// The matching mode consumers should use against this cache.
    pub fn mode(&self) -> MatchMode {
        self.mode
    }

    /// The feed epoch the cached snapshot was compiled against (`0`
    /// until the first refresh that observed a publish). Checkpoint
    /// snapshots record this to verify a restored shard's cache state.
    pub fn generation(&self) -> u64 {
        self.seen_epoch
    }

    /// The underlying live feed (the naive baseline reads it directly).
    pub fn feed(&self) -> &RuleFeed {
        &self.feed
    }

    /// Bring the cached snapshot up to date: one atomic load when
    /// nothing was published since the last call, one snapshot +
    /// recompile when the epoch moved.
    pub fn refresh(&mut self) {
        let epoch = self.feed.epoch();
        if epoch == self.seen_epoch {
            return;
        }
        // The snapshot is taken *after* the epoch read, so it can only
        // be newer than `epoch` — a racing publish costs one redundant
        // recompile on the next flow, never a stale cache.
        let snap = self.feed.snapshot();
        self.avail = snap.iter().map(|t| t.available_at).collect();
        let rules: Vec<Rule> = snap.into_iter().map(|t| t.rule).collect();
        self.compiled = CompiledRuleSet::from_rules(rules, MatchMode::Compiled);
        self.seen_epoch = epoch;
    }

    /// Is the cached snapshot empty? (Valid after [`FeedCache::refresh`].)
    pub fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }

    /// The compiled snapshot plus per-rule availability instants.
    pub(crate) fn parts(&self) -> (&CompiledRuleSet, &[SimTime]) {
        (&self.compiled, &self.avail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleOrigin;
    use ja_attackgen::AttackClass;

    /// Naive reference: ids of patterns contained in the haystack.
    fn naive_ids(patterns: &[&str], hay: &str) -> Vec<u32> {
        patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| hay.contains(**p))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn assert_matches_naive(patterns: &[&str], hays: &[&str]) {
        let ac = PatternMatcher::build(patterns);
        for hay in hays {
            assert_eq!(
                ac.find(hay.as_bytes()),
                naive_ids(patterns, hay),
                "patterns={patterns:?} hay={hay:?}"
            );
        }
    }

    #[test]
    fn overlapping_patterns_all_reported() {
        assert_matches_naive(
            &["abab", "baba", "ab", "bab"],
            &["ababab", "abab", "ba", "xxababyy"],
        );
    }

    #[test]
    fn pattern_prefix_suffix_substring_of_another() {
        // "abc" prefixes "abcdef"; "def" suffixes it; "cde" is interior.
        assert_matches_naive(
            &["abc", "abcdef", "def", "cde", "bcd"],
            &["abcdef", "abc", "zabcdefz", "def", "cdef"],
        );
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert_matches_naive(&["", "x"], &["", "x", "yyy"]);
        let ac = PatternMatcher::build(&["", "x"]);
        assert_eq!(ac.find(b""), vec![0]);
    }

    #[test]
    fn single_byte_patterns() {
        assert_matches_naive(&["a", "z", "0"], &["", "a", "za", "000", "bcd"]);
    }

    #[test]
    fn non_ascii_utf8_payloads() {
        assert_matches_naive(
            &["héllo", "🦀", "é", "ünïcode", "naïve"],
            &["héllo wörld", "rust 🦀 crab", "plain ascii", "naïveté", "é"],
        );
    }

    #[test]
    fn pattern_spanning_exact_end_of_haystack() {
        assert_matches_naive(
            &["end", "the_end", "d"],
            &["this is the_end", "end", "ends early", "no match her"],
        );
    }

    #[test]
    fn duplicate_occurrences_report_once() {
        let ac = PatternMatcher::build(&["aa"]);
        assert_eq!(ac.find(b"aaaaaa"), vec![0]);
    }

    #[test]
    fn empty_automaton_matches_nothing() {
        let ac = PatternMatcher::build::<&str>(&[]);
        assert!(ac.is_empty());
        assert!(ac.find(b"anything").is_empty());
    }

    fn rule(id: &str, pattern: Pattern) -> Rule {
        Rule {
            id: id.into(),
            class: AttackClass::Cryptomining,
            pattern,
            confidence: 0.9,
            origin: RuleOrigin::HoneypotIntel,
        }
    }

    #[test]
    fn compiled_ruleset_mirrors_naive_builtin() {
        let rs = RuleSet::builtin();
        let compiled = CompiledRuleSet::compile(&rs, MatchMode::Compiled);
        for hay in [
            "open('README_RESTORE.txt','w').write(note)",
            "print('hello')",
            "os.system('ls'); README_RESTORE",
        ] {
            let naive: Vec<&str> = rs.match_code(hay).iter().map(|r| r.id.as_str()).collect();
            let fast: Vec<&str> = compiled
                .match_code(hay)
                .iter()
                .map(|r| r.id.as_str())
                .collect();
            assert_eq!(naive, fast, "hay={hay}");
        }
        for port in [3333, 14444, 443, 80] {
            let naive: Vec<&str> = rs.match_port(port).iter().map(|r| r.id.as_str()).collect();
            let fast: Vec<&str> = compiled
                .match_port(port)
                .iter()
                .map(|r| r.id.as_str())
                .collect();
            assert_eq!(naive, fast, "port={port}");
        }
        let url = "/api/kernels/k0/channels?token=abc";
        assert_eq!(rs.match_url(url).len(), compiled.match_url(url).len());
        let cmd = "/tmp/.x -o pool:3333 (xmrig) | sh";
        let naive: Vec<&str> = rs
            .match_cmdline(cmd)
            .iter()
            .map(|r| r.id.as_str())
            .collect();
        let fast: Vec<&str> = compiled
            .match_cmdline(cmd)
            .iter()
            .map(|r| r.id.as_str())
            .collect();
        assert_eq!(naive, fast);
    }

    #[test]
    fn feed_cache_recompiles_only_on_epoch_change() {
        let feed = RuleFeed::new();
        let mut cache = FeedCache::new(feed.clone(), MatchMode::Compiled);
        cache.refresh();
        assert!(cache.is_empty());
        feed.publish(
            SimTime::from_secs(10),
            rule("hp-0-0", Pattern::CodeSubstring("evil_tok".into())),
        );
        assert_eq!(feed.epoch(), 1);
        cache.refresh();
        assert_eq!(cache.parts().0.len(), 1);
        assert_eq!(cache.parts().1, &[SimTime::from_secs(10)]);
        // Re-publishing a known id is a no-op: epoch unchanged.
        feed.publish(
            SimTime::from_secs(99),
            rule("hp-0-0", Pattern::CodeSubstring("evil_tok".into())),
        );
        assert_eq!(feed.epoch(), 1);
    }
}
