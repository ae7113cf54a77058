//! System provenance graph (Bates-style), built from the audit stream.
//!
//! Nodes are processes, files and remote endpoints; edges are the
//! audited operations. Two queries matter for the taxonomy: *ancestry*
//! (what led to this artifact — incident response) and *taint reach*
//! (which files could have flowed to this remote — exfil scoping).

use ja_kernelsim::events::{SysEvent, SysEventKind};
use ja_netsim::time::SimTime;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Graph node.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    /// A user session on a server.
    User(String),
    /// A process (server-scoped pid).
    Process(u32, u32),
    /// A file path on a server.
    File(u32, String),
    /// A remote endpoint.
    Remote(String),
}

/// Edge kinds (direction: from → to = influence flows that way).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// User executed code / spawned process.
    Executed,
    /// File content read into the subject.
    Read,
    /// Subject wrote the file.
    Wrote,
    /// Subject renamed/deleted the file.
    Modified,
    /// Subject sent data to the remote.
    SentTo,
}

/// One provenance edge.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Source node.
    pub from: Node,
    /// Destination node.
    pub to: Node,
    /// Kind.
    pub kind: EdgeKind,
    /// When.
    pub time: SimTime,
}

/// The provenance graph.
#[derive(Clone, Debug, Default)]
pub struct ProvenanceGraph {
    edges: Vec<Edge>,
    adjacency: HashMap<Node, Vec<usize>>,
    reverse: HashMap<Node, Vec<usize>>,
}

impl ProvenanceGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an audit event stream.
    pub fn from_events(events: &[SysEvent]) -> Self {
        let mut g = Self::new();
        for e in events {
            let user = Node::User(e.user.clone());
            match &e.kind {
                SysEventKind::CellExecute { .. } => {}
                SysEventKind::FileRead { path, .. } => {
                    g.add(Edge {
                        from: Node::File(e.server_id, path.clone()),
                        to: user,
                        kind: EdgeKind::Read,
                        time: e.time,
                    });
                }
                SysEventKind::FileWrite { path, .. } => {
                    g.add(Edge {
                        from: user,
                        to: Node::File(e.server_id, path.clone()),
                        kind: EdgeKind::Wrote,
                        time: e.time,
                    });
                }
                SysEventKind::FileRename { from, to } => {
                    g.add(Edge {
                        from: Node::File(e.server_id, from.clone()),
                        to: Node::File(e.server_id, to.clone()),
                        kind: EdgeKind::Modified,
                        time: e.time,
                    });
                }
                SysEventKind::FileDelete { path } => {
                    g.add(Edge {
                        from: user,
                        to: Node::File(e.server_id, path.clone()),
                        kind: EdgeKind::Modified,
                        time: e.time,
                    });
                }
                SysEventKind::ProcExec { pid, .. } => {
                    g.add(Edge {
                        from: user,
                        to: Node::Process(e.server_id, pid.0),
                        kind: EdgeKind::Executed,
                        time: e.time,
                    });
                }
                SysEventKind::CpuSample { .. } => {}
                SysEventKind::NetConnect { dst, dst_port } => {
                    g.add(Edge {
                        from: user,
                        to: Node::Remote(format!("{dst}:{dst_port}")),
                        kind: EdgeKind::SentTo,
                        time: e.time,
                    });
                }
                SysEventKind::NetSend { dst, dst_port, .. } => {
                    g.add(Edge {
                        from: user,
                        to: Node::Remote(format!("{dst}:{dst_port}")),
                        kind: EdgeKind::SentTo,
                        time: e.time,
                    });
                }
            }
        }
        g
    }

    /// Add an edge.
    pub fn add(&mut self, edge: Edge) {
        let idx = self.edges.len();
        self.adjacency
            .entry(edge.from.clone())
            .or_default()
            .push(idx);
        self.reverse.entry(edge.to.clone()).or_default().push(idx);
        self.edges.push(edge);
    }

    /// Edge count.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Ancestry: nodes with a time-respecting path *into* `node`
    /// (what influenced this artifact), in [`Node`] order.
    pub fn ancestry(&self, node: &Node) -> BTreeSet<Node> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<(Node, SimTime)> = VecDeque::new();
        queue.push_back((node.clone(), SimTime(u64::MAX)));
        while let Some((n, before)) = queue.pop_front() {
            if let Some(idxs) = self.reverse.get(&n) {
                for &i in idxs {
                    let e = &self.edges[i];
                    if e.time <= before && seen.insert(e.from.clone()) {
                        queue.push_back((e.from.clone(), e.time));
                    }
                }
            }
        }
        seen
    }

    /// Taint reach: nodes reachable *from* `node` by time-respecting
    /// paths (where could this data have gone), in [`Node`] order.
    pub fn reach(&self, node: &Node) -> BTreeSet<Node> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<(Node, SimTime)> = VecDeque::new();
        queue.push_back((node.clone(), SimTime::ZERO));
        while let Some((n, after)) = queue.pop_front() {
            if let Some(idxs) = self.adjacency.get(&n) {
                for &i in idxs {
                    let e = &self.edges[i];
                    if e.time >= after && seen.insert(e.to.clone()) {
                        queue.push_back((e.to.clone(), e.time));
                    }
                }
            }
        }
        seen
    }

    /// Files whose content could have reached `remote` (exfil scoping):
    /// ancestry of the remote filtered to file nodes, sorted.
    pub fn files_reaching_remote(&self, remote: &Node) -> Vec<Node> {
        self.ancestry(remote)
            .into_iter()
            .filter(|n| matches!(n, Node::File(_, _)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_kernelsim::events::SysEventKind;
    use ja_netsim::addr::HostAddr;

    fn events() -> Vec<SysEvent> {
        let mk = |t: u64, kind: SysEventKind| SysEvent {
            time: SimTime::from_secs(t),
            server_id: 0,
            user: "alice".into(),
            kind,
        };
        vec![
            mk(
                1,
                SysEventKind::FileRead {
                    path: "/home/alice/models/ckpt_0.bin".into(),
                    bytes: 1000,
                },
            ),
            mk(
                2,
                SysEventKind::FileWrite {
                    path: "/tmp/.m.tar.gz".into(),
                    bytes: 1000,
                    entropy_bits: 7.9,
                },
            ),
            mk(
                3,
                SysEventKind::NetConnect {
                    dst: HostAddr::external(21),
                    dst_port: 443,
                },
            ),
            mk(
                4,
                SysEventKind::NetSend {
                    dst: HostAddr::external(21),
                    dst_port: 443,
                    bytes: 1000,
                },
            ),
            // Unrelated later read: must NOT appear in remote ancestry
            // via time-respecting paths... (read at t=9 feeds user after
            // the send at t=4).
            mk(
                9,
                SysEventKind::FileRead {
                    path: "/home/alice/unrelated.csv".into(),
                    bytes: 10,
                },
            ),
        ]
    }

    #[test]
    fn exfil_chain_recovered() {
        let g = ProvenanceGraph::from_events(&events());
        let remote = Node::Remote(format!("{}:443", HostAddr::external(21)));
        let files = g.files_reaching_remote(&remote);
        assert!(files.contains(&Node::File(0, "/home/alice/models/ckpt_0.bin".into())));
    }

    #[test]
    fn time_respecting_ancestry_excludes_later_reads() {
        let g = ProvenanceGraph::from_events(&events());
        let remote = Node::Remote(format!("{}:443", HostAddr::external(21)));
        let files = g.files_reaching_remote(&remote);
        assert!(
            !files.contains(&Node::File(0, "/home/alice/unrelated.csv".into())),
            "{files:?}"
        );
    }

    #[test]
    fn reach_from_file() {
        let g = ProvenanceGraph::from_events(&events());
        let file = Node::File(0, "/home/alice/models/ckpt_0.bin".into());
        let reach = g.reach(&file);
        assert!(reach.contains(&Node::Remote(format!("{}:443", HostAddr::external(21)))));
    }

    #[test]
    fn ancestry_iterates_in_node_order() {
        let mk = |t: u64, kind: SysEventKind| SysEvent {
            time: SimTime::from_secs(t),
            server_id: 0,
            user: "u".into(),
            kind,
        };
        let read = |path: &str| SysEventKind::FileRead {
            path: path.into(),
            bytes: 1,
        };
        // Discovered as user, /b, /a; listed in `Node` order.
        let g = ProvenanceGraph::from_events(&[
            mk(1, read("/b")),
            mk(2, read("/a")),
            mk(
                3,
                SysEventKind::FileWrite {
                    path: "/out".into(),
                    bytes: 1,
                    entropy_bits: 1.0,
                },
            ),
        ]);
        let anc: Vec<Node> = g
            .ancestry(&Node::File(0, "/out".into()))
            .into_iter()
            .collect();
        assert_eq!(
            anc,
            [
                Node::User("u".into()),
                Node::File(0, "/a".into()),
                Node::File(0, "/b".into()),
            ]
        );
    }

    #[test]
    fn empty_graph_queries() {
        let g = ProvenanceGraph::new();
        assert!(g.is_empty());
        assert!(g.ancestry(&Node::User("x".into())).is_empty());
        assert!(g.reach(&Node::User("x".into())).is_empty());
    }

    #[test]
    fn rename_links_files() {
        let mk = |t: u64, kind: SysEventKind| SysEvent {
            time: SimTime::from_secs(t),
            server_id: 0,
            user: "u".into(),
            kind,
        };
        let g = ProvenanceGraph::from_events(&[mk(
            1,
            SysEventKind::FileRename {
                from: "/a.csv".into(),
                to: "/a.csv.locked".into(),
            },
        )]);
        let anc = g.ancestry(&Node::File(0, "/a.csv.locked".into()));
        assert!(anc.contains(&Node::File(0, "/a.csv".into())));
    }
}
