//! E1 — regenerate Fig. 1: the taxonomy of Jupyter Notebook attacks,
//! and verify it is *live*: every class has an executable campaign and
//! at least one detector plane.

use ja_core::taxonomy::Taxonomy;

fn main() {
    // Takes no seed; parsing still rejects a malformed command line.
    ja_bench::Args::from_env();
    let taxonomy = Taxonomy::paper_fig1();
    println!("=== E1: Fig. 1 — Jupyter Notebook attack taxonomy ===\n");
    println!("{}", taxonomy.render());
    println!("nodes: {}", taxonomy.node_count());
    println!("attack-class leaves: {}", taxonomy.leaves().len());
    match taxonomy.verify_coverage() {
        Ok(()) => println!(
            "coverage check: PASS (every class has a campaign generator and a detector plane)"
        ),
        Err(e) => {
            println!("coverage check: FAIL — {e}");
            std::process::exit(1);
        }
    }
}
