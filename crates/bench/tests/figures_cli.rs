//! The `figures` CLI rejects bad input loudly: each case exits with status
//! 2, prints a usage line naming every valid figure id, and runs nothing.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

fn assert_rejected(args: &[&str], reason: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(reason), "{args:?}: stderr {stderr}");
    assert!(
        stderr.contains("ids: fig2a fig2b") && stderr.contains("txnmix ablations"),
        "{args:?}: usage line missing: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn unknown_figure_id_is_rejected() {
    assert_rejected(&["shardscal"], "unknown figure id \"shardscal\"");
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["txnmix", "--quik"], "unknown flag --quik");
}

#[test]
fn json_without_a_value_is_rejected() {
    assert_rejected(&["txnmix", "--json"], "--json needs a value");
    assert_rejected(&["--json", "--quick", "txnmix"], "--json needs a value");
}

#[test]
fn trace_without_a_value_is_rejected() {
    assert_rejected(&["txnmix", "--trace"], "--trace needs a value");
}
