//! The transaction-mix benchmark: multi-key transactions vs contention.
//!
//! One client machine drives a 4-shard [`ShardedKv`] with a mix of YCSB
//! workload-F read-modify-write transactions and two-key [`Transfer`]
//! transactions (distinct zipfian accounts, often on different shards),
//! through both commit paths of the transaction layer: **locking**
//! (paper-§5 gCAS write locks in global key order) and **optimistic**
//! (FDB-style validate-then-commit over version words). The zipfian skew
//! `theta` is the contention knob — higher theta concentrates traffic on
//! fewer hot keys, driving lock retries on the locking path and validation
//! aborts on the optimistic one.
//!
//! Auditing is always on for measured arms: the standard auditor set plus
//! the transaction auditor (atomicity, isolation, lock hygiene) watch
//! every arm, and every arm additionally checks *conservation* — transfers
//! move value between accounts, so the sum of all balances must end at
//! zero. A lost update, partial commit or leaked lock shows up as either
//! an audit violation or a conservation failure.
//!
//! [`Transfer`]: ycsb::Operation::Transfer

use crate::report::{us, Report, Scenario};
use crate::run::{self, Arm, Outcome, Profile};
use crate::shardscale::{sharded_groups, Sharded, REPLICAS_PER_SHARD};
use hyperloop::txn::{CommitMode, TxnOutcome};
use hyperloop::ShardId;
use kvstore::{KvConfig, KvTxn, ReplicatedKv, ShardedKv};
use simcore::{Histogram, MetricsRegistry, SimTime};
use std::collections::HashMap;
use testbed::cluster::drive;
use ycsb::{Generator, Operation, Workload};

/// Number of shards (each a full replication chain).
pub const SHARDS: u32 = 4;
/// Logical transactions kept in flight concurrently.
pub const CONCURRENCY: usize = 8;
/// Accounts in the transfer keyspace (workload F uses a disjoint keyspace
/// of the same size, offset above it).
pub const RECORDS: u64 = 256;

/// Transaction-mix benchmark parameters ([`SHARDS`] chains of
/// [`REPLICAS_PER_SHARD`]).
#[derive(Debug, Clone, Copy)]
pub struct TxnMixOpts {
    /// Logical transactions to complete (each retried until it commits).
    pub txns: u64,
    /// Zipfian skew `theta ∈ (0, 1)` — the contention knob.
    pub theta: f64,
    /// Root seed.
    pub seed: u64,
    /// Capture causal traces on the observed arm: txn phase spans, op
    /// parent tags and sampled `txn.*` counter tracks. Observational only
    /// — the simulated timeline is byte-identical either way.
    pub trace: bool,
}

impl Default for TxnMixOpts {
    fn default() -> Self {
        TxnMixOpts {
            txns: 512,
            theta: 0.9,
            seed: 0x7A317,
            trace: false,
        }
    }
}

/// Result of one (mode, theta) arm.
#[derive(Debug, Clone)]
pub struct TxnMixResult {
    /// The commit path measured.
    pub mode: CommitMode,
    /// Commit attempts that aborted and were retried.
    pub aborted: u64,
    /// Lock acquisitions that backed off and retried (locking path).
    pub lock_retries: u64,
    /// Mean number of distinct shards per committed transaction.
    pub mean_span: f64,
    /// Abort root-cause tally, `(label, count)` in the normative cause
    /// order; counts sum to `aborted`.
    pub abort_causes: Vec<(String, u64)>,
    /// The arm's outcome: `ops` counts committed logical transactions and
    /// `latency` their commit latency (submission to committed outcome);
    /// health tracks each txn against its primary key's shard. Traced arms
    /// keep their stream (txn phase spans, op tags, transport events) and
    /// the sampled `txn.*` counter tracks.
    pub run: Outcome,
}

impl TxnMixResult {
    /// Aborts per commit (the contention signature).
    pub fn abort_ratio(&self) -> f64 {
        self.aborted as f64 / self.run.ops.max(1) as f64
    }
}

/// One logical transaction drawn from the workload mix, retried across
/// aborts until it commits.
#[derive(Debug, Clone)]
enum MixOp {
    /// Read-only txn (the F read half).
    Read(u64),
    /// Workload-F RMW: read the key, write back a derived value.
    Rmw(u64, Vec<u8>),
    /// Two-account transfer (conserves the balance sum).
    Transfer(u64, u64, u64),
}

fn balance(v: Option<Vec<u8>>) -> i64 {
    v.map(|b| i64::from_le_bytes(b[..8].try_into().expect("8-byte balance")))
        .unwrap_or(0)
}

/// Builds and submits one transaction for `op`; returns the txn id.
fn submit(kv: &mut ShardedKv<hyperloop::GroupClient>, op: &MixOp, f_base: u64) -> u64 {
    let mut t: KvTxn = kv.txn();
    match op {
        MixOp::Read(key) => {
            kv.txn_get(&mut t, f_base + key);
        }
        MixOp::Rmw(key, value) => {
            kv.txn_get(&mut t, f_base + key);
            kv.txn_put(&mut t, f_base + key, value.clone())
                .expect("geometry");
        }
        MixOp::Transfer(from, to, amount) => {
            let bf = balance(kv.txn_get(&mut t, *from));
            let bt = balance(kv.txn_get(&mut t, *to));
            kv.txn_put(&mut t, *from, (bf - *amount as i64).to_le_bytes().to_vec())
                .expect("geometry");
            kv.txn_put(&mut t, *to, (bt + *amount as i64).to_le_bytes().to_vec())
                .expect("geometry");
        }
    }
    kv.txn_commit(t)
}

/// The shard a logical transaction is tracked against for SLO health:
/// the routed shard of its primary (first-read) key.
fn primary_shard(kv: &ShardedKv<hyperloop::GroupClient>, op: &MixOp, f_base: u64) -> u32 {
    match op {
        MixOp::Read(k) | MixOp::Rmw(k, _) => kv.route(f_base + k).0,
        MixOp::Transfer(from, _, _) => kv.route(*from).0,
    }
}

/// Distinct shards `op` touches.
fn span_of(kv: &ShardedKv<hyperloop::GroupClient>, op: &MixOp, f_base: u64) -> u64 {
    match op {
        MixOp::Read(k) | MixOp::Rmw(k, _) => {
            let _ = kv.route(f_base + k);
            1
        }
        MixOp::Transfer(from, to, _) => {
            if kv.route(*from) == kv.route(*to) {
                1
            } else {
                2
            }
        }
    }
}

/// Runs one arm with audit + trace taps on, then `run::tax_pair`
/// re-runs the identical timeline bare to measure the observability tax.
///
/// # Panics
///
/// Panics on data-path errors, a stalled run, a livelocked transaction, or
/// a conservation failure.
pub fn run_txnmix(mode: CommitMode, opts: TxnMixOpts) -> TxnMixResult {
    run::tax_pair(
        |observed| run_txnmix_once(mode, opts, observed),
        |r| &mut r.run,
    )
}

fn run_txnmix_once(mode: CommitMode, opts: TxnMixOpts, observed: bool) -> TxnMixResult {
    let mut arm = Arm::start(Profile::Txn, observed, opts.trace, opts.txns);
    let Sharded {
        mut sim,
        clients,
        mut replicas,
        ..
    } = sharded_groups(&arm, SHARDS, 0, opts.seed);
    let stores: Vec<ReplicatedKv<hyperloop::GroupClient>> = clients
        .into_iter()
        .map(|c| ReplicatedKv::new(c, KvConfig::default()))
        .collect();
    let mut kv = ShardedKv::with_hash_router(stores);
    kv.enable_txns(mode, opts.seed ^ 0x7);
    kv.set_txn_audit(arm.audit.clone());
    // The txn manager shares the cluster tracer: phase spans and op tags
    // land in the same buffer as the transport events (and feed the
    // phase-pairing auditor even when the buffer itself is disabled).
    kv.set_txn_tracer(arm.tracer.clone());

    // The offered load: alternate workload-F ops (reads + RMWs on a
    // keyspace above the accounts) and two-key transfers (on the account
    // keyspace, where conservation is checked).
    let f_base = RECORDS;
    let mut fgen = Generator::with_theta(Workload::F, RECORDS, opts.seed ^ 0xF0, opts.theta);
    let mut tgen = Generator::with_theta(Workload::Transfer, RECORDS, opts.seed ^ 0x71, opts.theta);
    let mut drawn = 0u64;
    let mut next_op = |fgen: &mut Generator, tgen: &mut Generator| -> MixOp {
        drawn += 1;
        if drawn.is_multiple_of(2) {
            match fgen.next_op() {
                Operation::Read { key } => MixOp::Read(key),
                Operation::ReadModifyWrite { key, value } => MixOp::Rmw(key, value),
                other => MixOp::Read(other.key()),
            }
        } else {
            loop {
                if let Operation::Transfer { from, to, amount } = tgen.next_op() {
                    return MixOp::Transfer(from, to, amount);
                }
            }
        }
    };

    let mut outstanding: HashMap<u64, (MixOp, SimTime, u32)> = HashMap::new();
    let mut hist = Histogram::new();
    let mut committed = 0u64;
    let mut span_sum = 0u64;
    let mut submitted = 0u64;
    let mut last_completed = vec![0u64; SHARDS as usize];
    let started = sim.now();
    let mut idle_ticks = 0u32;
    while committed < opts.txns {
        // Fill the concurrency window with fresh logical transactions.
        while outstanding.len() < CONCURRENCY && submitted < opts.txns {
            let op = next_op(&mut fgen, &mut tgen);
            let shard = primary_shard(&kv, &op, f_base);
            let id = submit(&mut kv, &op, f_base);
            outstanding.insert(id, (op, sim.now(), 0));
            arm.health.record_issue(sim.now(), shard);
            submitted += 1;
        }
        sim.run();
        let done = drive(&mut sim, |ctx| {
            kv.poll(ctx);
            kv.pump_txns(ctx)
        });
        // Host-side sampling of the txn counters into Perfetto counter
        // tracks — never touches the simulated timeline.
        arm.sample(sim.now(), |reg| kv.txn_manager().export_into(reg, "txn"));
        if done.is_empty() {
            idle_ticks += 1;
            assert!(
                idle_ticks < 10_000,
                "txnmix stalled at {committed}/{} with {} outstanding",
                opts.txns,
                outstanding.len()
            );
        } else {
            idle_ticks = 0;
        }
        for (id, outcome) in done {
            let (op, t0, attempts) = outstanding.remove(&id).expect("unknown txn completed");
            match outcome {
                TxnOutcome::Committed => {
                    let lat = sim.now().since(t0);
                    hist.record(lat);
                    arm.health
                        .record_ack(sim.now(), primary_shard(&kv, &op, f_base), lat);
                    span_sum += span_of(&kv, &op, f_base);
                    committed += 1;
                }
                TxnOutcome::Aborted => {
                    assert!(
                        attempts < 256,
                        "logical op livelocked after {attempts} aborts: {op:?}"
                    );
                    // Retry with fresh reads (and fresh versions).
                    let id = submit(&mut kv, &op, f_base);
                    outstanding.insert(id, (op, t0, attempts + 1));
                }
            }
        }
        arm.health.tick(sim.now());
        // Keep every chain's pre-posted descriptor runway topped up.
        drive(&mut sim, |ctx| {
            for (s, last) in last_completed.iter_mut().enumerate() {
                let now_done = kv.shard(ShardId(s as u32)).transport.completed();
                let delta = now_done - *last;
                if delta > 0 {
                    *last = now_done;
                    for r in replicas[s].iter_mut() {
                        r.replenish(ctx, delta as u32);
                    }
                }
            }
        });
    }
    let elapsed = sim.now().since(started);
    assert_eq!(sim.model.fab.stats().errors, 0, "data-path errors");

    // Conservation: transfers move value between accounts; the account
    // keyspace must sum to zero or a transaction lost (or forged) money.
    let total: i64 = (0..RECORDS)
        .map(|k| balance(kv.get(k).map(|v| v.to_vec())))
        .sum();
    assert_eq!(total, 0, "transfers did not conserve value: sum {total}");

    let mgr = kv.txn_manager();
    let mut registry = MetricsRegistry::new();
    sim.model.export_into(&mut registry, "cluster");
    mgr.export_into(&mut registry, "txn");
    registry.merge_histogram("bench.txn_latency", &hist);
    registry.set_gauge("bench.elapsed_secs", elapsed.as_secs_f64());
    arm.health.export_into(&mut registry, "health");
    TxnMixResult {
        mode,
        aborted: mgr.aborted,
        lock_retries: mgr.lock_retries,
        mean_span: span_sum as f64 / committed.max(1) as f64,
        abort_causes: mgr
            .abort_cause_counts()
            .iter()
            .map(|&(label, n)| (label.to_string(), n))
            .collect(),
        run: arm.finish(&sim, committed, elapsed, &hist, registry),
    }
}

/// The contention skews of the sweep.
pub const THETAS: [f64; 3] = [0.5, 0.9, 0.99];

/// Transaction-mix sweep: both commit paths across contention levels.
pub fn txnmix(rep: &mut Report, quick: bool) {
    rep.banner(
        "Transaction mix: multi-key commit/abort throughput vs contention (4 shards, audit on)",
    );
    rep.line(format!(
        "{:<12} {:<7} {:>10} {:>9} {:>9} {:>12} {:>10} {:>10} {:>6}",
        "mode", "theta", "Ktxn/s", "commits", "aborts", "lock_retry", "mean", "p99", "span"
    ));
    for mode in [CommitMode::Locking, CommitMode::Optimistic] {
        for theta in THETAS {
            let opts = TxnMixOpts {
                txns: if quick { 192 } else { 512 },
                theta,
                trace: rep.profile_enabled(),
                ..TxnMixOpts::default()
            };
            let r = run_txnmix(mode, opts);
            assert_eq!(
                r.run.health.violations, 0,
                "txn audit violations:\n{}",
                r.run.audit_json
            );
            let label = match mode {
                CommitMode::Locking => "locking",
                CommitMode::Optimistic => "optimistic",
            };
            rep.line(format!(
                "{:<12} {:<7} {:>10.1} {:>9} {:>9} {:>12} {:>10} {:>10} {:>6.2}",
                label,
                theta,
                r.run.ops_per_sec() / 1e3,
                r.run.ops,
                r.aborted,
                r.lock_retries,
                us(r.run.latency.mean),
                us(r.run.latency.p99),
                r.mean_span,
            ));
            let name = format!("txnmix/{label}/theta{theta}");
            r.run.write_artifacts(rep, &name);
            rep.scenario(
                Scenario::new(&name)
                    .system("HyperLoop")
                    .seed(opts.seed)
                    .config("mode", label)
                    .config("shards", SHARDS)
                    .config("replicas_per_shard", REPLICAS_PER_SHARD)
                    .config("theta", theta)
                    .config("txns", opts.txns)
                    .config("concurrency", CONCURRENCY)
                    .config("records", RECORDS)
                    .latency(&r.run.latency)
                    .gauge("ops_per_sec", r.run.ops_per_sec())
                    .gauge("abort_ratio", r.abort_ratio())
                    .gauge("lock_retries", r.lock_retries as f64)
                    .gauge("mean_span", r.mean_span)
                    .outcome(&r.run)
                    .abort_causes(r.abort_causes.clone()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::simprof::{txn_chrome_trace_with_counters, txn_folded_stacks};
    use simcore::TxnAttribution;

    fn quick_opts(theta: f64) -> TxnMixOpts {
        TxnMixOpts {
            txns: 96,
            theta,
            ..TxnMixOpts::default()
        }
    }

    #[test]
    fn both_commit_paths_run_clean_on_four_shards() {
        for mode in [CommitMode::Locking, CommitMode::Optimistic] {
            let r = run_txnmix(mode, quick_opts(0.9));
            assert_eq!(r.run.ops, 96);
            assert_eq!(
                r.run.health.violations, 0,
                "{mode:?} violations:\n{}",
                r.run.audit_json
            );
            // Counter sanity: aborts and commits are both bounded by
            // commit attempts.
            let started = r.run.registry.counter("txn.started").unwrap();
            assert!(r.run.ops <= started);
            assert!(r.aborted <= started);
            assert!((1.0..=2.0).contains(&r.mean_span), "span {}", r.mean_span);
        }
    }

    #[test]
    fn contention_drives_retries_or_aborts() {
        // High skew must produce more conflict work than low skew on at
        // least one of the two conflict channels.
        let lo = run_txnmix(CommitMode::Locking, quick_opts(0.5));
        let hi = run_txnmix(CommitMode::Locking, quick_opts(0.99));
        assert!(
            hi.lock_retries + hi.aborted >= lo.lock_retries + lo.aborted,
            "contention knob inert: hi {}+{} vs lo {}+{}",
            hi.lock_retries,
            hi.aborted,
            lo.lock_retries,
            lo.aborted
        );
    }

    /// Regression: the optimistic path once corrected the client version
    /// cache from in-flight validation acks, so a transaction submitted
    /// while a conflicting commit was between its version bump and its
    /// client-side install paired a *fresh* version with a *stale* read —
    /// and the torn pair validated cleanly, committing a lost update.
    /// Only high contention at full scale opens the window; conservation
    /// (checked inside the run) catches the lost debit.
    #[test]
    fn optimistic_high_contention_conserves_value() {
        let opts = TxnMixOpts {
            txns: 512,
            theta: 0.99,
            ..TxnMixOpts::default()
        };
        let r = run_txnmix_once(CommitMode::Optimistic, opts, true);
        assert_eq!(r.run.ops, 512);
        assert_eq!(r.run.health.violations, 0, "{}", r.run.audit_json);
    }

    #[test]
    fn txn_breakdown_tiles_commit_latency_in_both_modes() {
        for mode in [CommitMode::Locking, CommitMode::Optimistic] {
            let opts = TxnMixOpts {
                trace: true,
                ..quick_opts(0.9)
            };
            let r = run_txnmix_once(mode, opts, true);
            let att = TxnAttribution::from_events(&r.run.trace.events);
            assert!(att.txns > 0, "{mode:?}: no complete txns folded");
            assert_eq!(att.truncated, 0, "{mode:?}: unpaired phase spans");
            assert!(att.linked_ops > 0, "{mode:?}: no parent-tagged ops");
            let diff = (att.mean_e2e_ns() - att.phase_mean_sum_ns()).abs();
            assert!(
                diff <= 1.0,
                "{mode:?}: phase means must tile mean commit latency (off {diff} ns)"
            );
        }
    }

    #[test]
    fn tracing_is_observer_only() {
        let base = run_txnmix_once(CommitMode::Locking, quick_opts(0.9), true);
        let traced = run_txnmix_once(
            CommitMode::Locking,
            TxnMixOpts {
                trace: true,
                ..quick_opts(0.9)
            },
            true,
        );
        assert_eq!(base.run.latency.p99, traced.run.latency.p99);
        assert_eq!(base.run.ops, traced.run.ops);
        assert_eq!(base.aborted, traced.aborted);
        assert_eq!(base.abort_causes, traced.abort_causes);
        assert_eq!(
            base.run.audit_json, traced.run.audit_json,
            "tracing must not perturb the timeline"
        );
        // Health and the windowed series are trace-independent.
        assert_eq!(base.run.health, traced.run.health);
        assert_eq!(base.run.series, traced.run.series);
        assert_eq!(base.run.series.to_json(), traced.run.series.to_json());
    }

    #[test]
    fn traced_artifacts_are_byte_identical_for_same_seed() {
        let opts = TxnMixOpts {
            trace: true,
            ..quick_opts(0.9)
        };
        let a = run_txnmix_once(CommitMode::Locking, opts, true).run.trace;
        let b = run_txnmix_once(CommitMode::Locking, opts, true).run.trace;
        assert_eq!(
            txn_chrome_trace_with_counters(&a.events, &a.samples),
            txn_chrome_trace_with_counters(&b.events, &b.samples),
            "txn chrome trace must be deterministic"
        );
        assert_eq!(
            txn_folded_stacks(&a.events),
            txn_folded_stacks(&b.events),
            "folded txn stacks must be deterministic"
        );
        assert!(!a.samples.is_empty(), "counter tracks must be sampled");
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn abort_causes_sum_to_aborted_in_both_modes() {
        for mode in [CommitMode::Locking, CommitMode::Optimistic] {
            let r = run_txnmix(mode, quick_opts(0.99));
            let total: u64 = r.abort_causes.iter().map(|(_, n)| n).sum();
            assert_eq!(
                total, r.aborted,
                "{mode:?}: causes {:?} must sum to aborted {}",
                r.abort_causes, r.aborted
            );
        }
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let a = run_txnmix(CommitMode::Optimistic, quick_opts(0.9));
        let b = run_txnmix(CommitMode::Optimistic, quick_opts(0.9));
        assert_eq!(
            a.run.audit_json, b.run.audit_json,
            "audit JSON must be deterministic"
        );
        assert_eq!(a.run.ops, b.run.ops);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.run.latency.p99, b.run.latency.p99);
    }
}
