//! The five kernel sockets.
//!
//! "Jupyter listens on several ports `shell_port`, `iopub_port`,
//! `control_port`, `hb_port` using TCP transport with HMAC-SHA256
//! signature" (§II).

use serde::{Deserialize, Serialize};

/// The kernel's communication channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Channel {
    /// Request/reply: code execution, introspection.
    Shell,
    /// Broadcast: outputs, status — every client sees this.
    IoPub,
    /// Like shell but for priority messages (interrupt, shutdown).
    Control,
    /// Kernel→client input requests (`input()`).
    Stdin,
    /// Heartbeat echo channel.
    Heartbeat,
}

impl Channel {
    /// All channels in canonical order.
    pub const ALL: [Channel; 5] = [
        Channel::Shell,
        Channel::IoPub,
        Channel::Control,
        Channel::Stdin,
        Channel::Heartbeat,
    ];

    /// Wire name used in the WebSocket multiplexing layer.
    pub fn name(self) -> &'static str {
        match self {
            Channel::Shell => "shell",
            Channel::IoPub => "iopub",
            Channel::Control => "control",
            Channel::Stdin => "stdin",
            Channel::Heartbeat => "hb",
        }
    }

    /// Parse a wire name.
    pub fn from_name(s: &str) -> Option<Channel> {
        match s {
            "shell" => Some(Channel::Shell),
            "iopub" => Some(Channel::IoPub),
            "control" => Some(Channel::Control),
            "stdin" => Some(Channel::Stdin),
            "hb" => Some(Channel::Heartbeat),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_names_round_trip() {
        for &ch in &Channel::ALL {
            assert_eq!(Channel::from_name(ch.name()), Some(ch));
        }
        assert_eq!(Channel::from_name("bogus"), None);
    }
}
