//! Prints the canonicalized (host-stripped) form of a `BENCH_*.json`
//! report on stdout.
//!
//! ```text
//! cargo run --release -p hyperloop-bench --bin canonize -- out/BENCH_figures.json
//! ```
//!
//! The canonical form is [`simcore::jsonw::canonicalize_report`] — the same
//! transform the in-tree byte-identity tests use — so two same-seed runs
//! must print identical bytes regardless of machine speed or allocator
//! behavior. CI compares the canonical form of its quick figure pass
//! against that of the committed `BENCH_BASELINE.json` with `cmp`, so a
//! change that moves any simulated number must re-ratchet the baseline in
//! the same change.
//!
//! Any flag, or no report at all, exits with status 2 and the usage line.

use hyperloop_bench::cli;
use simcore::jsonw::canonicalize_report;
use std::process::ExitCode;

fn main() -> ExitCode {
    let usage = "usage: canonize <BENCH_*.json> ...";
    let args = cli::parse_or_exit("canonize", usage, &[], &[], 1..=usize::MAX);
    for path in &args.positional {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("canonize: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match canonicalize_report(&text) {
            Ok(canon) => println!("{canon}"),
            Err(e) => {
                eprintln!("canonize: {path}: malformed JSON: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
