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
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = cli::parse_or_exit(
        "expgen",
        "usage: expgen <reports-dir> [-o <file.md>] [--check <committed.md>]",
        &[],
        &["-o", "--out", "--check"],
        1..=1,
    );
    let dir = PathBuf::from(&args.positional[0]);
    let out = args.value("-o").or(args.value("--out")).map(PathBuf::from);
    let check = args.value("--check").map(PathBuf::from);

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("expgen: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("expgen: no BENCH_*.json in {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut scns = Vec::new();
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("expgen: cannot read {}: {e}", f.display());
                return ExitCode::FAILURE;
            }
        };
        match exp::parse_report(&text) {
            Ok(mut s) => {
                eprintln!("expgen: {} -> {} scenarios", f.display(), s.len());
                scns.append(&mut s);
            }
            Err(e) => {
                eprintln!("expgen: {}: {e}", f.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // Fold counter tracks out of any TRACE_*.json sitting next to the
    // reports: `TRACE_<fig>_<arm>.json` attaches to scenario `<fig>/<arm>`
    // (the inverse of the `/` → `_` flattening the trace sink applies).
    let mut traces: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("TRACE_") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    traces.sort();
    for t in &traces {
        let stem = t.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(name) = stem
            .strip_prefix("TRACE_")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        let Some((fig, arm)) = name.rsplit_once('_') else {
            continue;
        };
        let scn_name = format!("{fig}/{arm}");
        let Some(scn) = scns.iter_mut().find(|s| s.name == scn_name) else {
            continue;
        };
        let tracks = std::fs::read_to_string(t)
            .map_err(|e| e.to_string())
            .and_then(|text| exp::parse_counter_tracks(&text));
        match tracks {
            Ok(tracks) => {
                eprintln!(
                    "expgen: {} -> {} counter tracks for {scn_name}",
                    t.display(),
                    tracks.len()
                );
                scn.tracks = tracks;
            }
            Err(e) => {
                eprintln!("expgen: {}: {e}", t.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let doc = exp::generate(&scns);

    if let Some(committed_path) = check {
        let committed = match std::fs::read_to_string(&committed_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("expgen: cannot read {}: {e}", committed_path.display());
                return ExitCode::FAILURE;
            }
        };
        return match exp::check(&committed, &doc) {
            Ok(()) => {
                eprintln!(
                    "expgen: {} is structurally consistent with {} report file(s)",
                    committed_path.display(),
                    files.len()
                );
                ExitCode::SUCCESS
            }
            Err(errs) => {
                for e in errs {
                    eprintln!("expgen: DRIFT: {e}");
                }
                eprintln!(
                    "expgen: {} drifted from the reports — regenerate with `expgen {} -o {}`",
                    committed_path.display(),
                    dir.display(),
                    committed_path.display()
                );
                ExitCode::FAILURE
            }
        };
    }

    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, &doc) {
            eprintln!("expgen: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("expgen: wrote {}", out.display());
    } else {
        print!("{doc}");
    }
    ExitCode::SUCCESS
}
