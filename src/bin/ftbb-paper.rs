//! `ftbb-paper [--quick] [ROW…]` — run the paper's experiments
//! ([`ftbb::paper::EXPERIMENTS`]) and print them as Markdown: per row a
//! table, then one ✓/✗ line per claim of the paper. `PAPER_RESULTS.md` at
//! the repository root is this program's output with no arguments.
//!
//! Exits 1 if any claim's verdict differs from its declared status — a
//! claim that holds has gone red, or a declared gap has closed and must be
//! flipped to `Holds` — and 2 on a bad argument.

use ftbb::paper::{Profile, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut profile = Profile::FULL;
    let mut rows = Vec::new();
    for arg in std::env::args().skip(1) {
        match EXPERIMENTS.iter().find(|e| e.name == arg) {
            Some(row) => rows.push(row),
            None if arg == "--quick" => profile = Profile::QUICK,
            None => {
                let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
                eprintln!(
                    "usage: ftbb-paper [--quick] [ROW…]\nrows: {}",
                    names.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if rows.is_empty() {
        rows.extend(EXPERIMENTS);
    }

    println!("# Paper results\n");
    println!(
        "Output of `cargo run --release --bin ftbb-paper{}`: every experiment of Iamnitchi \
         & Foster (ICPP 2000) on the discrete-event simulator (virtual time — exact and \
         identical on every host), each followed by the paper's claims about it, checked \
         on the table's shape. ✓ the claim is true of the table above it, ✗ it is not; a \
         declared *gap* names the ROADMAP item expected to close it.",
        if profile.quick { " -- --quick" } else { "" }
    );
    let mut as_declared = true;
    for row in rows {
        let started = std::time::Instant::now();
        let (text, ok) = row.render(&(row.run)(profile));
        eprintln!(
            "[{} ran in {:.1} s]",
            row.name,
            started.elapsed().as_secs_f64()
        );
        println!("\n{text}");
        as_declared &= ok;
    }
    if as_declared {
        ExitCode::SUCCESS
    } else {
        eprintln!("ftbb-paper: a claim's verdict is not as declared in src/paper.rs");
        ExitCode::FAILURE
    }
}
