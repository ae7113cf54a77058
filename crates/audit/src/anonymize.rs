//! Privacy-preserving export for the proposed *Jupyter Security &
//! Resiliency Data Set*.
//!
//! "Although NCSA can retain longitudinal data, log anonymization and
//! privacy-preserving sharing need to be studied" (§IV.B). This module
//! implements the baseline treatment: keyed pseudonymization of users
//! and path leaves, with structure (directories, event classes,
//! volumes, timings) preserved — what detection research needs, without
//! identities.

use ja_crypto::hmac::HmacSha256;
use ja_kernelsim::events::{SysEvent, SysEventKind};

/// Keyed pseudonymizer.
///
/// It holds the site secret only as a keyed [`HmacSha256`], so `{:?}`
/// cannot print it and the key schedule runs once, not per identifier.
#[derive(Clone, Debug)]
pub struct Anonymizer {
    mac: HmacSha256,
}

impl Anonymizer {
    /// Anonymizer with a site-secret key (same key ⇒ consistent
    /// pseudonyms across exports, enabling longitudinal study).
    pub fn new(key: &[u8]) -> Self {
        Anonymizer {
            mac: HmacSha256::new(key),
        }
    }

    /// Pseudonym for an identifier: keyed hash, 8 hex chars.
    pub fn pseudonym(&self, ident: &str) -> String {
        let mut mac = self.mac.clone();
        mac.update(ident.as_bytes());
        ja_crypto::hex::encode(&mac.finalize()[..4])
    }

    /// Anonymize a path: directories become per-component pseudonyms,
    /// extension preserved (extension distribution is a ransomware
    /// research signal).
    pub fn anon_path(&self, path: &str) -> String {
        let (stem, ext) = match path.rfind('.') {
            Some(i) if i > path.rfind('/').unwrap_or(0) => (&path[..i], &path[i..]),
            _ => (path, ""),
        };
        let mut out = String::new();
        for comp in stem.split('/') {
            if comp.is_empty() {
                continue;
            }
            out.push('/');
            out.push_str(&self.pseudonym(comp));
        }
        if out.is_empty() {
            out.push('/');
        }
        out.push_str(ext);
        out
    }

    /// Anonymize one event.
    pub fn anon_event(&self, e: &SysEvent) -> SysEvent {
        let mut out = e.clone();
        out.user = self.pseudonym(&e.user);
        out.kind = match &e.kind {
            SysEventKind::FileRead { path, bytes } => SysEventKind::FileRead {
                path: self.anon_path(path),
                bytes: *bytes,
            },
            SysEventKind::FileWrite {
                path,
                bytes,
                entropy_bits,
            } => SysEventKind::FileWrite {
                path: self.anon_path(path),
                bytes: *bytes,
                entropy_bits: *entropy_bits,
            },
            SysEventKind::FileRename { from, to } => SysEventKind::FileRename {
                from: self.anon_path(from),
                to: self.anon_path(to),
            },
            SysEventKind::FileDelete { path } => SysEventKind::FileDelete {
                path: self.anon_path(path),
            },
            SysEventKind::CellExecute { kernel_id, code } => SysEventKind::CellExecute {
                kernel_id: *kernel_id,
                // Code is redacted to a length-preserving pseudonym: the
                // content is the most identifying artifact of all.
                code: format!("<redacted:{}:{}>", code.len(), self.pseudonym(code)),
            },
            SysEventKind::ProcExec { pid, name, cmdline } => SysEventKind::ProcExec {
                pid: *pid,
                name: name.clone(), // binary names are a shared vocabulary
                cmdline: format!("<redacted:{}>", self.pseudonym(cmdline)),
            },
            other => other.clone(),
        };
        out
    }

    /// Anonymize a whole stream.
    pub fn anon_stream(&self, events: &[SysEvent]) -> Vec<SysEvent> {
        events.iter().map(|e| self.anon_event(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_netsim::time::SimTime;

    fn anon() -> Anonymizer {
        Anonymizer::new(b"site-secret")
    }

    #[test]
    fn pseudonym_is_the_keyed_hmac_prefix() {
        let long_key = [7u8; 100];
        for key in [&b"site-secret"[..], &[], &long_key] {
            let a = Anonymizer::new(key);
            for ident in ["alice", "", "/home/bob/data.csv"] {
                let tag = ja_crypto::hmac::hmac_sha256(key, ident.as_bytes());
                assert_eq!(a.pseudonym(ident), ja_crypto::hex::encode(&tag[..4]));
            }
        }
    }

    #[test]
    fn debug_does_not_print_the_key() {
        let key = b"site-secret-probe";
        let dbg = format!("{:?}", Anonymizer::new(key));
        let byte_list = format!("{:?}", key.to_vec());
        assert!(
            !dbg.contains(byte_list.trim_matches(|c| c == '[' || c == ']')),
            "{dbg}"
        );
        assert!(!dbg.contains(&ja_crypto::hex::encode(key)), "{dbg}");
        assert!(!dbg.contains("site-secret-probe"), "{dbg}");
    }

    #[test]
    fn pseudonyms_deterministic_and_distinct() {
        let a = anon();
        assert_eq!(a.pseudonym("alice"), a.pseudonym("alice"));
        assert_ne!(a.pseudonym("alice"), a.pseudonym("bob"));
        // Different key, different pseudonyms.
        let b = Anonymizer::new(b"other-site");
        assert_ne!(a.pseudonym("alice"), b.pseudonym("alice"));
    }

    #[test]
    fn path_structure_and_extension_preserved() {
        let a = anon();
        let p = a.anon_path("/home/alice/data/run_0.csv");
        assert!(p.ends_with(".csv"));
        assert_eq!(p.matches('/').count(), 4);
        assert!(!p.contains("alice"));
        // Same directory maps consistently.
        let q = a.anon_path("/home/alice/data/run_1.csv");
        let p_dir = p.rsplit_once('/').unwrap().0.to_string();
        let q_dir = q.rsplit_once('/').unwrap().0.to_string();
        assert_eq!(p_dir, q_dir);
    }

    #[test]
    fn event_anonymization_strips_identities() {
        let a = anon();
        let e = SysEvent {
            time: SimTime::from_secs(5),
            server_id: 2,
            user: "alice".into(),
            kind: SysEventKind::FileWrite {
                path: "/home/alice/secret_project/results.csv".into(),
                bytes: 100,
                entropy_bits: 4.2,
            },
        };
        let ae = a.anon_event(&e);
        assert_ne!(ae.user, "alice");
        assert_eq!(ae.time, e.time);
        match ae.kind {
            SysEventKind::FileWrite {
                path,
                bytes,
                entropy_bits,
            } => {
                assert!(!path.contains("secret_project"));
                assert_eq!(bytes, 100);
                assert_eq!(entropy_bits, 4.2);
            }
            _ => panic!("kind changed"),
        }
    }

    #[test]
    fn code_is_redacted() {
        let a = anon();
        let e = SysEvent {
            time: SimTime::ZERO,
            server_id: 0,
            user: "u".into(),
            kind: SysEventKind::CellExecute {
                kernel_id: 0,
                code: "password = 'hunter2'".into(),
            },
        };
        match a.anon_event(&e).kind {
            SysEventKind::CellExecute { code, .. } => {
                assert!(!code.contains("hunter2"));
                assert!(code.starts_with("<redacted:"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn detection_signals_survive_anonymization() {
        // Entropy and volume are untouched, so the ransomware detector
        // still fires on an anonymized stream.
        use crate::detectors::AuditDetector;
        let mk = |t: u64, path: String| SysEvent {
            time: SimTime::from_secs(t),
            server_id: 0,
            user: "victim".into(),
            kind: SysEventKind::FileWrite {
                path,
                bytes: 1000,
                entropy_bits: 7.9,
            },
        };
        let events: Vec<SysEvent> = (0..15)
            .map(|i| mk(i, format!("/home/v/f{i}.csv")))
            .collect();
        let a = anon();
        let anon_events = a.anon_stream(&events);
        let alerts = AuditDetector::new().analyze(&anon_events);
        assert!(alerts
            .iter()
            .any(|al| al.class == ja_attackgen::AttackClass::Ransomware));
    }
}
