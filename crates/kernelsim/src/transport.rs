//! What one client request gets back from a notebook server.
//!
//! The paper's threat model is a hands-on-keyboard attacker at a live
//! REPL: a *client* that sends an execute request, reads the replies it
//! gets back, and decides what to do next. A client opens a
//! [`ClientConn`] with [`NotebookServer::connect`], sends a cell with
//! [`NotebookServer::deliver_cell`] or a terminal command with
//! [`NotebookServer::deliver_terminal`], and reads the
//! [`SessionDelivery`] through [`ClientConn::decode_outcome`].
//!
//! [`ClientConn`]: crate::server::ClientConn
//! [`ClientConn::decode_outcome`]: crate::server::ClientConn::decode_outcome
//! [`NotebookServer::connect`]: crate::server::NotebookServer::connect
//! [`NotebookServer::deliver_cell`]: crate::server::NotebookServer::deliver_cell
//! [`NotebookServer::deliver_terminal`]: crate::server::NotebookServer::deliver_terminal

use ja_jupyter_proto::channels::Channel;
use ja_jupyter_proto::wire::WireMessage;
use ja_netsim::time::SimTime;

/// What came back from delivering one request: the kernel's plaintext
/// reply messages (empty for terminal requests), the terminal output
/// text (terminal requests only), and the simulation time the exchange
/// finished. [`ClientConn::decode_outcome`](crate::server::ClientConn::decode_outcome)
/// turns it into a typed outcome.
#[derive(Clone, Debug)]
pub struct SessionDelivery {
    /// Kernel protocol replies, `(channel, message)`, in emission order.
    pub replies: Vec<(Channel, WireMessage)>,
    /// Terminal output text, for terminal requests.
    pub terminal_output: Option<String>,
    /// Simulation time the exchange finished.
    pub end: SimTime,
}

#[cfg(test)]
mod tests {
    use crate::actions::{Action, CellScript};
    use crate::config::ServerConfig;
    use crate::server::NotebookServer;
    use ja_netsim::addr::{HostAddr, HostId};
    use ja_netsim::network::Network;
    use ja_netsim::time::SimTime;

    fn boot() -> (NotebookServer, Network) {
        let mut srv = NotebookServer::new(1, ServerConfig::hardened(), 42);
        srv.provision_user("alice", SimTime::ZERO);
        srv.start_kernel("alice", SimTime::ZERO);
        (srv, Network::new())
    }

    #[test]
    fn deliver_cell_outcome_matches_effect() {
        let (mut srv, mut net) = boot();
        let mut conn = srv.connect(
            &mut net,
            SimTime::ZERO,
            HostAddr::internal(HostId(200)),
            "alice",
            0,
        );
        let script = CellScript::new(
            "print('hi')",
            vec![Action::Print {
                text: "hi\n".into(),
            }],
        );
        let delivery = srv.deliver_cell(&mut net, SimTime::from_secs(1), &mut conn, &script);
        assert!(delivery.end > SimTime::from_secs(1));
        let outcome = conn.decode_outcome(&delivery).unwrap();
        assert!(outcome.succeeded());
        assert_eq!(outcome.stdout, "hi\n");
    }

    #[test]
    fn deliver_cell_surfaces_kernel_errors() {
        let (mut srv, mut net) = boot();
        let mut conn = srv.connect(
            &mut net,
            SimTime::ZERO,
            HostAddr::internal(HostId(200)),
            "alice",
            0,
        );
        let script = CellScript::new(
            "open('/no/such')",
            vec![Action::ReadFile {
                path: "/no/such".into(),
            }],
        );
        let delivery = srv.deliver_cell(&mut net, SimTime::from_secs(1), &mut conn, &script);
        let outcome = conn.decode_outcome(&delivery).unwrap();
        assert!(outcome.stderr.contains("FileNotFoundError"));
    }

    #[test]
    fn deliver_terminal_returns_synthesized_output() {
        let (mut srv, mut net) = boot();
        let mut conn = srv.connect(
            &mut net,
            SimTime::ZERO,
            HostAddr::internal(HostId(200)),
            "alice",
            0,
        );
        let delivery = srv.deliver_terminal(
            &mut net,
            SimTime::from_secs(1),
            &mut conn,
            "ls /home/alice/data/",
        );
        let outcome = conn.decode_outcome(&delivery).unwrap();
        assert!(outcome.succeeded());
        assert!(outcome.stdout.contains("/home/alice/data/run_0.csv"));
        // Exactly one process spawned, exactly one proc_exec audited.
        assert_eq!(
            srv.sys_events
                .iter()
                .filter(|e| e.class() == "proc_exec")
                .count(),
            1
        );
    }

    #[test]
    fn terminal_cat_missing_file_reports_error_text() {
        let (mut srv, mut net) = boot();
        let mut conn = srv.connect(
            &mut net,
            SimTime::ZERO,
            HostAddr::internal(HostId(200)),
            "alice",
            0,
        );
        let delivery =
            srv.deliver_terminal(&mut net, SimTime::from_secs(1), &mut conn, "cat ~/.nope");
        let out = delivery.terminal_output.as_deref().unwrap();
        assert!(out.contains("No such file or directory"), "{out}");
    }
}
