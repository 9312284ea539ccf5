//! The indexed observability folds and Chrome exports are byte-identical
//! to the retained reference model (`simcore::obsref`) on a real traced
//! run: Locking-mode multi-key transactions on a 4-shard `ShardedKv`,
//! zipfian θ = 0.99, so the stream carries lock retries, aborts, backoff
//! phases and a real tail.

use hyperloop_bench::txnmix::{run_txnmix, TxnMixOpts};
use hyperloop_repro::hyperloop::txn::CommitMode;
use hyperloop_repro::simcore::obsref::{assert_equivalent, tail_profile, txn_attribution};

#[test]
fn contended_locking_run_folds_identically_to_the_reference() {
    let res = run_txnmix(
        CommitMode::Locking,
        TxnMixOpts {
            txns: 48,
            theta: 0.99,
            trace: true,
            ..TxnMixOpts::default()
        },
    );
    assert!(res.aborted > 0, "the run saw no contention");
    let events = &res.run.trace.events;
    // The comparison is only worth something if the stream has a tail and
    // folded transactions to disagree about.
    assert!(tail_profile(events).tail_ops > 0);
    assert!(txn_attribution(events).txns > 0);
    assert_equivalent(events, &res.run.trace.samples);
}
