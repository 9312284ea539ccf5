//! The claims gate and the single renderer, end to end: `expgen` refuses a
//! report on which a paper claim computes another verdict than the one
//! declared, and `figures` prints a section exactly as `expgen` renders
//! it from the same report.

use simcore::jsonw::{parse, to_string, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const EXPGEN: &str = env!("CARGO_BIN_EXE_expgen");
const EXPERIMENTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// Runs `figures <id> --quick --json <dir>/` into a fresh directory;
/// returns the directory and what `figures` printed.
fn quick_report(case: &str, id: &str) -> (PathBuf, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(FIGURES)
        .args([id, "--quick", "--json"])
        .arg(&dir)
        .output()
        .expect("spawn figures");
    assert!(out.status.success(), "figures {id} failed");
    (dir, String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

fn expgen(dir: &Path, args: &[&str]) -> Output {
    Command::new(EXPGEN)
        .arg(dir)
        .args(args)
        .output()
        .expect("spawn expgen")
}

/// The value under `key` of a JSON object.
fn field<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
    let JsonValue::Obj(fields) = v else {
        panic!("not an object")
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
}

/// Gives every `fig8a/<size>/HyperLoop` arm twice the p99 of its Naive
/// arm.
fn slow_hyperloop_down(report: &str) -> String {
    let mut doc = parse(report).expect("parse");
    let JsonValue::Arr(scns) = field(&mut doc, "scenarios") else {
        panic!("no scenarios array")
    };
    let name = |s: &JsonValue| {
        s.get("name")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };
    let naive: Vec<(String, u64)> = scns
        .iter()
        .filter(|s| name(s).ends_with("/Naive-Event"))
        .map(|s| {
            let size = name(s).replace("/Naive-Event", "");
            (
                size,
                s.at(&["latency", "p99_ns"]).unwrap().as_u64().unwrap(),
            )
        })
        .collect();
    assert_eq!(naive.len(), 7, "one Naive arm per Fig. 8 size");
    for s in scns.iter_mut() {
        let Some(size) = name(s).strip_suffix("/HyperLoop").map(str::to_string) else {
            continue;
        };
        let (_, p99) = naive.iter().find(|(sz, _)| *sz == size).unwrap();
        *field(field(s, "latency"), "p99_ns") = JsonValue::U64(2 * p99);
    }
    to_string(&doc)
}

#[test]
fn a_fig8a_report_with_hyperloop_slower_fails_the_claims_gate() {
    let (dir, _) = quick_report("claims_fig8a", "fig8a");
    let check = || expgen(&dir, &["--check", EXPERIMENTS]);
    let clean = check();
    let stderr = String::from_utf8_lossy(&clean.stderr);
    assert_eq!(clean.status.code(), Some(0), "stderr: {stderr}");

    let path = dir.join("BENCH_figures.json");
    let report = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, slow_hyperloop_down(&report)).unwrap();
    let out = check();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(
            "fig8a: claim \"Naive-RDMA p99 is up to 801.8x higher than HyperLoop's.\" diverges"
        ),
        "figure and claim not named: {stderr}"
    );
    // `-o` refuses to write the doc on the same report.
    let md = dir.join("E.md");
    let out = expgen(&dir, &["-o", md.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!md.exists(), "expgen wrote a doc with a moved claim");
}

#[test]
fn figures_prints_a_section_exactly_as_expgen_renders_it() {
    let (dir, printed) = quick_report("claims_table2", "table2");
    let out = expgen(&dir, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = String::from_utf8(out.stdout).unwrap();
    let start = doc.find("\n## Table 2").expect("a Table 2 section");
    let end = doc[start + 1..]
        .find("\n## ")
        .map_or(doc.len(), |i| start + 1 + i);
    let section = &doc[start..end];
    assert!(section.contains("| measured gains |") && section.contains("Claim: "));
    assert!(
        printed.contains(section),
        "figures printed:\n{printed}\nexpgen rendered:\n{section}"
    );
}
