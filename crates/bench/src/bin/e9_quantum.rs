//! E9 — the quantum threats (§IV.B): harvest-now-decrypt-later exposure
//! of recorded Jupyter traffic under different PQC adoption curves and
//! CRQC arrival dates, plus the signature-spoofing matrix.

use ja_crypto::pqc::{spoofing_matrix, AdoptionCurve, HarvestAdversary, RecordedSession};

/// Simulate `days` of traffic: `sessions_per_day` sessions, each with a
/// volume and a sensitivity lifetime, recorded by the adversary.
fn harvest(curve: &AdoptionCurve, days: u32, sessions_per_day: u64) -> HarvestAdversary {
    let mut adv = HarvestAdversary::new();
    for day in 0..days {
        for s in 0..sessions_per_day {
            let kex = curve.pick_kex(day, s);
            // Research artifacts stay sensitive for ~5 years (embargo +
            // competitive window).
            adv.record(RecordedSession {
                captured_day: day,
                kex,
                bytes: 50_000_000,
                sensitivity_days: 5 * 365,
            });
        }
    }
    adv
}

fn main() {
    // Takes no seed; parsing still rejects a malformed command line.
    ja_bench::Args::from_env();
    println!("=== E9: harvest-now-decrypt-later exposure ===\n");
    println!(
        "traffic model: 200 sessions/day x 50 MB, sensitivity window 5 years, 10-year capture\n"
    );
    let days = 10 * 365u32;
    let curves = [
        ("no-migration", AdoptionCurve::none()),
        ("pessimistic", AdoptionCurve::pessimistic()),
        ("optimistic", AdoptionCurve::optimistic()),
    ];
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>14}",
        "PQC adoption", "CRQC @ yr 3", "CRQC @ yr 5", "CRQC @ yr 8", "CRQC @ yr 12"
    );
    for (name, curve) in &curves {
        let adv = harvest(curve, days, 200);
        print!("{name:<16}");
        for crqc_year in [3u32, 5, 8, 12] {
            let ratio = adv.exposure_ratio(crqc_year * 365);
            print!(" {:>13.1}%", ratio * 100.0);
        }
        println!();
    }
    println!(
        "\n(exposure = fraction of all recorded bytes readable when the CRQC arrives: sessions"
    );
    println!(" that used classical key exchange and are still inside their sensitivity window.)");

    println!("\nadoption fractions over time:");
    print!("{:<16}", "year");
    for y in [0u32, 1, 2, 3, 5, 8] {
        print!(" {:>7}", y);
    }
    println!();
    for (name, curve) in &curves {
        print!("{name:<16}");
        for y in [0u32, 1, 2, 3, 5, 8] {
            print!(" {:>6.0}%", curve.fraction(y * 365) * 100.0);
        }
        println!();
    }

    println!("\nsignature spoofing matrix:");
    println!(
        "{:<16} {:>22} {:>22}",
        "scheme", "forgeable pre-CRQC", "forgeable post-CRQC"
    );
    for o in spoofing_matrix() {
        println!(
            "{:<16} {:>22} {:>22}",
            o.scheme.label(),
            o.forgeable_before_crqc,
            o.forgeable_after_crqc
        );
    }
    println!("\n(Jupyter's HMAC-SHA256 message signing survives a CRQC; its TLS transport and any");
    println!(
        " classical public-key signatures in the SSO chain do not — matching the paper's call"
    );
    println!(" to adapt the cryptographic design.)");
}
