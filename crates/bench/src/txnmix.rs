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

use crate::driver::Client;
use crate::exp::{
    col, each, find, fmt_kops, fmt_ns, Band, Claim, Row, Rows, Scn, Section, Table, Verdict,
};
use crate::report::{Report, Scenario};
use crate::run::{self, Arm, Outcome, Profile};
use crate::shardscale::{sharded_groups, CADENCE, CAP, HANDLER_COST, REPLICAS_PER_SHARD};
use cpusched::ProcKind;
use hyperloop::txn::{CommitMode, TxnOutcome};
use hyperloop::{GroupClient, GroupTransport};
use kvstore::{KvConfig, KvTxn, ReplicatedKv, ShardedKv};
use simcore::{HealthMonitor, Latencies, MetricsRegistry, SimDuration, SimTime};
use std::collections::HashMap;
use testbed::{Env, HostApp, HostEvent};
use ycsb::{Generator, Operation, Workload};

/// Number of shards (each a full replication chain).
pub const SHARDS: u32 = 4;
/// Logical transactions kept in flight concurrently.
pub const CONCURRENCY: usize = 8;
/// Accounts in the transfer keyspace (workload F uses a disjoint keyspace
/// of the same size, offset above it).
pub const RECORDS: u64 = 256;
/// The client's pump timer. A pump whose tick carries no acks wakes every
/// parked transaction, so this period bounds backoff.
const TICK: SimDuration = SimDuration::from_micros(20);
/// Aborts after which a logical transaction counts as livelocked.
const MAX_ABORTS: u32 = 256;

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
fn submit(kv: &mut ShardedKv<GroupClient>, op: &MixOp) -> u64 {
    let mut t: KvTxn = kv.txn();
    match op {
        MixOp::Read(key) => {
            kv.txn_get(&mut t, RECORDS + key);
        }
        MixOp::Rmw(key, value) => {
            kv.txn_get(&mut t, RECORDS + key);
            kv.txn_put(&mut t, RECORDS + key, value.clone())
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
fn primary_shard(kv: &ShardedKv<GroupClient>, op: &MixOp) -> u32 {
    match op {
        MixOp::Read(k) | MixOp::Rmw(k, _) => kv.route(RECORDS + k).0,
        MixOp::Transfer(from, _, _) => kv.route(*from).0,
    }
}

/// Distinct shards `op` touches.
fn span_of(kv: &ShardedKv<GroupClient>, op: &MixOp) -> u64 {
    match op {
        MixOp::Transfer(from, to, _) if kv.route(*from) != kv.route(*to) => 2,
        _ => 1,
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

/// A logical transaction: its op, its first submission and its attempts.
type Logical = (MixOp, SimTime, u32);

/// The txnmix client process, on the client node and woken by every
/// shard's ack CQ: keeps [`CONCURRENCY`] logical transactions in flight,
/// retries an aborted one with fresh reads until it commits, and polls
/// and pumps the transaction layer on every completion and every
/// [`TICK`]. Latency runs from a transaction's first submission to its
/// commit. It submits its first transactions at time zero.
struct TxnClient {
    kv: ShardedKv<GroupClient>,
    /// The offered load: alternate workload-F ops (reads + RMWs on a
    /// keyspace above the accounts) and two-key transfers (on the account
    /// keyspace, where conservation is checked).
    fgen: Generator,
    tgen: Generator,
    /// Attempts in flight, by txn id.
    live: HashMap<u64, Logical>,
    health: HealthMonitor,
    latencies: Latencies,
    total: u64,
    submitted: u64,
    span_sum: u64,
    done_at: Option<SimTime>,
}

impl TxnClient {
    fn next_op(&mut self) -> MixOp {
        if self.submitted.is_multiple_of(2) {
            loop {
                if let Operation::Transfer { from, to, amount } = self.tgen.next_op() {
                    return MixOp::Transfer(from, to, amount);
                }
            }
        }
        match self.fgen.next_op() {
            Operation::Read { key } => MixOp::Read(key),
            Operation::ReadModifyWrite { key, value } => MixOp::Rmw(key, value),
            other => MixOp::Read(other.key()),
        }
    }

    fn submit(&mut self, l: Logical) {
        let id = submit(&mut self.kv, &l.0);
        self.live.insert(id, l);
    }

    fn tick(&mut self, env: &mut Env<'_>) {
        let now = env.now();
        while self.live.len() < CONCURRENCY && self.submitted < self.total {
            let op = self.next_op();
            self.health.record_issue(now, primary_shard(&self.kv, &op));
            self.submit((op, now, 0));
            self.submitted += 1;
        }
        let done = env.with_fabric(|ctx| {
            self.kv.poll(ctx);
            self.kv.pump_txns(ctx)
        });
        for (id, outcome) in done {
            let (op, t0, attempts) = self.live.remove(&id).expect("unknown txn completed");
            if outcome == TxnOutcome::Aborted {
                assert!(
                    attempts < MAX_ABORTS,
                    "logical op livelocked after {attempts} aborts: {op:?}"
                );
                // Retry with fresh reads (and fresh versions).
                self.submit((op, t0, attempts + 1));
                continue;
            }
            let lat = now.since(t0);
            self.latencies.record(lat);
            let shard = primary_shard(&self.kv, &op);
            self.health.record_ack(now, shard, lat);
            self.span_sum += span_of(&self.kv, &op);
            if self.latencies.count() == self.total {
                self.done_at = Some(now);
            }
        }
    }
}

impl HostApp for TxnClient {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        self.tick(env);
        if matches!(event, HostEvent::Start | HostEvent::Timer(_)) && !self.is_done() {
            env.set_timer(TICK, 0);
        }
    }
}

impl Client for TxnClient {
    fn transports(&self) -> Vec<&dyn GroupTransport> {
        self.kv
            .iter()
            .map(|(_, s)| &s.transport as &dyn GroupTransport)
            .collect()
    }
    fn is_done(&self) -> bool {
        self.done_at.is_some()
    }
    fn latencies(&self) -> &Latencies {
        &self.latencies
    }
    fn export_tracks(&self, reg: &mut MetricsRegistry) {
        self.kv.txn_manager().export_into(reg, "txn");
    }
}

fn run_txnmix_once(mode: CommitMode, opts: TxnMixOpts, observed: bool) -> TxnMixResult {
    let mut arm = Arm::start(Profile::Txn, observed, opts.trace, opts.txns);
    let (mut cluster, _, clients) = sharded_groups(&arm, SHARDS, 0, opts.seed);
    let stores: Vec<ReplicatedKv<GroupClient>> = clients
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
    let client = TxnClient {
        kv,
        fgen: Generator::with_theta(Workload::F, RECORDS, opts.seed ^ 0xF0, opts.theta),
        tgen: Generator::with_theta(Workload::Transfer, RECORDS, opts.seed ^ 0x71, opts.theta),
        live: HashMap::new(),
        health: arm.health.clone(),
        latencies: Latencies::new(),
        total: opts.txns,
        submitted: 0,
        span_sum: 0,
        done_at: None,
    };
    let installed = run::install(&mut cluster, ProcKind::Polling, client, HANDLER_COST);
    let mut sim = cluster.into_sim();
    let latencies = arm.poll(&mut sim, &[installed], CADENCE, CAP);
    let c = sim.model.app_mut::<TxnClient>(installed.proc);
    let elapsed = c.done_at.expect("done").since(SimTime::ZERO);
    // Conservation: transfers move value between accounts; the account
    // keyspace must sum to zero or a transaction lost (or forged) money.
    let total: i64 = (0..RECORDS)
        .map(|k| balance(c.kv.get(k).map(|v| v.to_vec())))
        .sum();
    assert_eq!(total, 0, "transfers did not conserve value: sum {total}");

    let mgr = c.kv.txn_manager();
    let mut registry = MetricsRegistry::new();
    mgr.export_into(&mut registry, "txn");
    let (aborted, lock_retries) = (mgr.aborted, mgr.lock_retries);
    let abort_causes = mgr
        .abort_cause_counts()
        .iter()
        .map(|&(label, n)| (label.to_string(), n))
        .collect();
    let mean_span = c.span_sum as f64 / latencies.count().max(1) as f64;
    sim.model.export_into(&mut registry, "cluster");
    registry.set_gauge("bench.elapsed_secs", elapsed.as_secs_f64());
    TxnMixResult {
        aborted,
        lock_retries,
        mean_span,
        abort_causes,
        run: arm.finish(&sim, latencies.count(), elapsed, &latencies, registry),
    }
}

/// The contention skews of the sweep.
pub const THETAS: [f64; 3] = [0.5, 0.9, 0.99];

/// The commit paths of the sweep and their scenario-name labels.
pub const MODES: [(CommitMode, &str); 2] = [
    (CommitMode::Locking, "locking"),
    (CommitMode::Optimistic, "optimistic"),
];

/// Transaction-mix sweep: both commit paths across contention levels.
pub fn txnmix(rep: &mut Report, quick: bool) {
    for (mode, label) in MODES {
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

/// The commit path of a `txnmix/<mode>/theta<theta>` row.
pub fn mode(r: &Row<'_>) -> String {
    r.key.split('/').next().unwrap_or_default().to_string()
}

/// The skew of a `txnmix/<mode>/theta<theta>` row.
pub fn theta(r: &Row<'_>) -> String {
    let seg = r.key.rsplit('/').next().unwrap_or_default();
    seg.trim_start_matches("theta").to_string()
}

/// `f(lowest skew, highest skew)` on each commit path that ran both.
pub fn per_mode(all: &[Scn], f: fn(&Scn, &Scn) -> f64) -> Vec<f64> {
    let (lo, hi) = (THETAS[0], THETAS[THETAS.len() - 1]);
    MODES
        .iter()
        .filter_map(|(_, m)| {
            let at = |t: f64| find(all, &format!("txnmix/{m}/theta{t}"));
            Some(f(at(lo)?, at(hi)?))
        })
        .collect()
}

fn gauge(s: &Scn, key: &str) -> f64 {
    s.gauge(key).unwrap_or(f64::NAN)
}

const ROWS: Rows = each("txnmix/");

fn ratio2(v: f64) -> String {
    format!("{v:.2}x")
}

/// The transaction-mix section.
pub const SECTION: Section = Section {
    title: "Transaction mix (txnmix) — multi-key commit throughput vs contention",
    lead: "Multi-key transactions (YCSB-F read-modify-writes plus two-account transfers that often span shards) on a 4-shard cluster through both commit paths of the transaction layer: locking (gCAS write locks in global key order) and optimistic (validate-then-commit over version words). The zipfian skew theta is the contention knob; every arm runs with the full auditor set live and must finish with zero violations and a conserved transfer-balance sum.",
    tables: &[Table::grid(
        ROWS,
        &[
            col("mode", mode),
            col("theta", theta),
            col("Ktxn/s", |r| fmt_kops(r.gauge(0, "ops_per_sec"))),
            col("aborts/commit", |r| format!("{:.2}", r.gauge(0, "abort_ratio"))),
            col("lock retries", |r| format!("{:.0}", r.gauge(0, "lock_retries"))),
            col("mean span", |r| format!("{:.2}", r.gauge(0, "mean_span"))),
            col("mean", |r| fmt_ns(r.lat(0, "mean"))),
            col("p99", |r| fmt_ns(r.lat(0, "p99"))),
        ],
    )],
    claims: &[
        Claim {
            says: "Throughput is lower at theta 0.99 than at 0.5 on both paths.",
            measure: |all| {
                per_mode(all, |lo, hi| {
                    gauge(hi, "ops_per_sec") / gauge(lo, "ops_per_sec")
                })
            },
            band: Band::Under(1.0),
            unit: ratio2,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "Aborts per commit are higher at theta 0.99 than at 0.5 on both paths.",
            measure: |all| {
                per_mode(all, |lo, hi| {
                    gauge(hi, "abort_ratio") / gauge(lo, "abort_ratio")
                })
            },
            band: Band::AtLeast(1.0),
            unit: ratio2,
            verdict: Verdict::Holds,
        },
    ],
    note: "The audit gate (zero violations) is asserted inside the bench and re-checked by benchcheck on the `audit.violations` counter.",
};

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
    fn the_client_process_spends_cpu_on_the_client_node() {
        let r = run_txnmix(CommitMode::Locking, quick_opts(0.9));
        let node0 = |k: &str| {
            r.run
                .registry
                .counter(&format!("cluster.sched.node0.{k}"))
                .unwrap_or(0)
        };
        assert!(
            node0("useful_ns") > 0 && node0("tasks_completed") > 0,
            "the txn client never ran on node 0: useful_ns={} tasks={}",
            node0("useful_ns"),
            node0("tasks_completed")
        );
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
