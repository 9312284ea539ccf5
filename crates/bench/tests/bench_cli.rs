//! The other bench CLIs reject bad input as loudly as `figures`: an
//! unknown flag, a flag missing its value, or a wrong number of positional
//! arguments exits with status 2, prints the binary's usage line, and
//! runs nothing. expgen also refuses a report whose blocks break their
//! declared shape instead of rendering around the damage.

use simcore::jsonw::{parse, to_string, JsonValue};
use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str], reason: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(reason), "{args:?}: stderr {stderr}");
    assert!(
        stderr.contains("usage: "),
        "{args:?}: usage line missing: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

const BENCHCHECK: &str = env!("CARGO_BIN_EXE_benchcheck");
const EXPGEN: &str = env!("CARGO_BIN_EXE_expgen");
const SMOKE: &str = env!("CARGO_BIN_EXE_smoke");
const CANONIZE: &str = env!("CARGO_BIN_EXE_canonize");

#[test]
fn benchcheck_rejects_an_unknown_flag() {
    assert_rejected(
        BENCHCHECK,
        &["--baselin", "B.json", "r.json"],
        "unknown flag --baselin",
    );
}

#[test]
fn benchcheck_rejects_a_baseline_without_a_value() {
    assert_rejected(
        BENCHCHECK,
        &["r.json", "--baseline"],
        "--baseline needs a value",
    );
}

#[test]
fn benchcheck_rejects_no_report() {
    assert_rejected(BENCHCHECK, &[], "wrong number of arguments: 0");
}

#[test]
fn expgen_rejects_an_unknown_flag() {
    assert_rejected(EXPGEN, &["out", "--chek", "E.md"], "unknown flag --chek");
}

#[test]
fn expgen_rejects_a_check_without_a_value() {
    assert_rejected(EXPGEN, &["out", "--check"], "--check needs a value");
}

#[test]
fn expgen_rejects_two_report_dirs() {
    assert_rejected(EXPGEN, &["out", "out2"], "wrong number of arguments: 2");
}

#[test]
fn smoke_rejects_an_unknown_flag() {
    assert_rejected(SMOKE, &["--jsn", "x.json"], "unknown flag --jsn");
}

#[test]
fn smoke_rejects_a_json_without_a_value() {
    assert_rejected(SMOKE, &["--json"], "--json needs a value");
}

#[test]
fn smoke_rejects_a_positional_argument() {
    assert_rejected(SMOKE, &["x.json"], "wrong number of arguments: 1");
}

#[test]
fn canonize_rejects_an_unknown_flag() {
    assert_rejected(CANONIZE, &["--pretty", "r.json"], "unknown flag --pretty");
}

#[test]
fn canonize_rejects_no_report() {
    assert_rejected(CANONIZE, &[], "wrong number of arguments: 0");
}

/// The committed baseline with `block.key` of `shardscale/1` replaced by
/// `value` (`None` deletes the key), as report text.
fn edited_baseline(block: &str, key: &str, value: Option<JsonValue>) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
    let mut doc = parse(&std::fs::read_to_string(path).expect("read baseline")).expect("parse");
    let JsonValue::Obj(root) = &mut doc else {
        panic!("baseline is not an object")
    };
    let (_, JsonValue::Arr(scenarios)) = root.iter_mut().find(|(k, _)| k == "scenarios").unwrap()
    else {
        panic!("no scenarios array")
    };
    let scenario = scenarios
        .iter_mut()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("shardscale/1"))
        .expect("shardscale/1");
    let JsonValue::Obj(fields) = scenario else {
        panic!("scenario is not an object")
    };
    let (_, JsonValue::Obj(block)) = fields.iter_mut().find(|(k, _)| k == block).unwrap() else {
        panic!("{block} is not an object")
    };
    block.retain(|(k, _)| k != key);
    if let Some(v) = value {
        block.push((key.to_string(), v));
    }
    to_string(&doc)
}

/// Runs expgen on a directory holding only `report` and asserts it
/// refuses the report, naming the file, the scenario and the key.
fn assert_expgen_refuses(case: &str, report: &str, key: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(case);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("BENCH_figures.json"), report).unwrap();
    let out = Command::new(EXPGEN)
        .arg(&dir)
        .output()
        .expect("spawn expgen");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    for needle in ["BENCH_figures.json", "shardscale/1", key] {
        assert!(stderr.contains(needle), "{needle} not named: {stderr}");
    }
    assert!(out.stdout.is_empty(), "expgen rendered a document");
}

#[test]
fn expgen_refuses_a_tail_block_with_a_string_op_count() {
    let report = edited_baseline("tail", "ops", Some(JsonValue::Str("624".into())));
    assert_expgen_refuses("expgen_tail_ops", &report, "tail.ops");
}

#[test]
fn expgen_refuses_a_stage_attribution_without_stages() {
    let report = edited_baseline("stage_attribution", "stages", None);
    assert_expgen_refuses("expgen_no_stages", &report, "stage_attribution.stages");
}
