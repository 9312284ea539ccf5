//! Regenerates `EXPERIMENTS.md` from `BENCH_*.json` benchmark reports.
//!
//! ```text
//! expgen <reports-dir> [-o <file.md>] [--check <committed.md>]
//! ```
//!
//! * With `-o`, writes the regenerated document to the file.
//! * With `--check`, regenerates from the available reports and fails
//!   (exit 1) on structural drift against the committed document: missing
//!   generation marker, a regenerated section heading absent from the
//!   committed doc, or a non-finite table cell on either side.
//! * With neither, prints the document to stdout.
//!
//! In every mode, a claim whose verdict computed from the reports differs
//! from its declared one ([`hyperloop_bench::exp::mismatches`]) exits 1,
//! naming the figure and the claim, and writes nothing.
//!
//! Each report must pass the same check as `benchcheck`
//! ([`hyperloop_bench::report::check_report`]); one that fails exits 1,
//! naming the file, the scenario and the key, and renders nothing.
//!
//! Any `TRACE_<fig>_<arm>.json` Chrome traces in the same directory are
//! folded in too: their counter tracks (pen depth, window occupancy)
//! become sparkline rows in the matching `<fig>/<arm>` scenario's table.
//!
//! An unknown flag, `-o`/`--check` without a value, or anything but one
//! reports directory exits with status 2 and the usage line.

use hyperloop_bench::{cli, exp};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = cli::parse_or_exit(
        "expgen",
        "usage: expgen <reports-dir> [-o <file.md>] [--check <committed.md>]",
        &[],
        &["-o", "--out", "--check"],
        1..=1,
    );
    let out = args.value("-o").or(args.value("--out")).map(Path::new);
    let check = args.value("--check").map(Path::new);
    match run(Path::new(&args.positional[0]), out, check) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("expgen: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(dir: &Path, out: Option<&Path>, check: Option<&Path>) -> Result<(), String> {
    let cannot =
        |what: &str, p: &Path, e: std::io::Error| format!("cannot {what} {}: {e}", p.display());
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| cannot("read", dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json in {}", dir.display()));
    }
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| cannot("read", p, e));
    let mut scns = Vec::new();
    for f in &files {
        let mut s = exp::parse_report(&read(f)?).map_err(|e| format!("{}: {e}", f.display()))?;
        eprintln!("expgen: {} -> {} scenarios", f.display(), s.len());
        scns.append(&mut s);
    }
    let traces = exp::attach_tracks(dir, &mut scns)?;
    eprintln!("expgen: folded counter tracks from {traces} trace file(s)");

    let wrong = exp::mismatches(&scns);
    for w in &wrong {
        eprintln!("expgen: CLAIM {w}");
    }
    if !wrong.is_empty() {
        return Err(format!(
            "{} claim verdict(s) moved — fix the cause, or update the declaration beside the figure's runner",
            wrong.len()
        ));
    }

    let doc = exp::generate(&scns);
    if let Some(committed) = check {
        if let Err(errs) = exp::check(&read(committed)?, &doc) {
            for e in errs {
                eprintln!("expgen: DRIFT: {e}");
            }
            let c = committed.display();
            return Err(format!(
                "{c} drifted from the reports — regenerate with `expgen {} -o {c}`",
                dir.display()
            ));
        }
        eprintln!(
            "expgen: {} is structurally consistent with {} report file(s)",
            committed.display(),
            files.len()
        );
    } else if let Some(out) = out {
        std::fs::write(out, &doc).map_err(|e| cannot("write", out, e))?;
        eprintln!("expgen: wrote {}", out.display());
    } else {
        print!("{doc}");
    }
    Ok(())
}
