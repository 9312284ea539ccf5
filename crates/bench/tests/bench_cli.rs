//! The other bench CLIs reject bad input as loudly as `figures`: an
//! unknown flag, a flag missing its value, or a wrong number of positional
//! arguments exits with status 2, prints the binary's usage line, and
//! runs nothing.

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
