//! The live-migration benchmark: pause-window cost under load.
//!
//! A fixed offered load runs through `n` chains exactly as in the
//! shard-scaling bench, but halfway through, the client's coordinator
//! moves shard 0 onto a standby chain with the live state machine
//! ([`MigrationRun`], stepped on each of the client's wakes): the shard
//! pauses with its window full, the bulk copy races that in-flight tail
//! through the fabric, fresh shard-0 ops park in the bounded holding pen,
//! and every other shard keeps issuing. The figures of merit are the
//! pause-window length, the throughput dip while the window is open, and
//! how much of the WAL tail had to be replayed — the costs the paper's
//! static-placement sections never have to pay.

use crate::exp::{
    col, counter_track, each, fmt_kops, fmt_ns, fmt_pct, Band, Claim, Rows, Section, Table, Verdict,
};
use crate::report::{Report, Scenario};
use crate::run::{self, Arm, Outcome, Profile};
use crate::shardscale::{
    run_arm, sharded_groups, ShardClient, PAYLOAD, REPLICAS_PER_SHARD, SHARD_COUNTS, SHARED_SIZE,
    TRACK_COLS, WINDOW,
};
use hyperloop::{plan_migration, MigrationPlan, MigrationRun, MigrationStats, ShardId};
use simcore::{Audit, SimDuration, SimTime};

/// Ops parked in the holding pen while the pause window is open.
pub const DEFER: u64 = 16;

/// A live migration, which the sharded client's coordinator launches
/// once `at` ops have acked; the default plans none.
#[derive(Default)]
pub(crate) struct Move {
    pub at: u64,
    /// The move, until it is launched.
    pub plan: Option<MigrationPlan>,
    /// The arm's audit, probed with the pen depth.
    pub audit: Audit,
    /// The migration in progress.
    pub run: Option<MigrationRun>,
    /// Ops penned over the pause window.
    pub penned: u64,
    /// When the pause opened, and the ops acked by then.
    pub began: (SimTime, u64),
    /// Ops acked per second from the pause to the end of the move.
    pub window_tput: f64,
    /// The finished move's stats.
    pub stats: Option<MigrationStats>,
}

/// Live-migration benchmark parameters (chains, window and payload as in
/// [`crate::shardscale`]).
#[derive(Debug, Clone, Copy)]
pub struct MigrateOpts {
    /// Total operations across all shards.
    pub ops: u64,
    /// Root seed.
    pub seed: u64,
    /// Sample counter tracks (per-shard acked, pen depth, migration copy
    /// bytes) on the bench-loop cadence.
    pub trace: bool,
}

impl Default for MigrateOpts {
    fn default() -> Self {
        MigrateOpts {
            ops: 4096,
            seed: 0x3161_847E,
            trace: false,
        }
    }
}

/// Result of one migration arm.
#[derive(Debug, Clone)]
pub struct MigrateResult {
    /// Pause-window length (begin to cutover).
    pub pause: SimDuration,
    /// WAL-tail ranges replayed after the raced bulk copy.
    pub replayed: u64,
    /// Bytes moved (bulk copy + seed + replay).
    pub copy_bytes: u64,
    /// Ops that waited out the window in the holding pen.
    pub penned: u64,
    /// Throughput inside the migration window over steady throughput
    /// (1.0 = no dip).
    pub dip: f64,
    /// Shard epoch after the cutover.
    pub epoch: u64,
    /// The arm's outcome: latency including ops caught by the pause,
    /// post-migration chain metrics, audit/health with zero expected
    /// violations. Traced arms keep their stream for a Perfetto trace
    /// whose op ids are epoch-qualified, so spans survive the cutover.
    pub run: Outcome,
}

/// Runs the fixed offered load through `n_shards` chains, migrating shard 0
/// to a standby chain at the halfway mark.
///
/// Auditing is always on in this sweep, so `run::tax_pair` measures the
/// observability tax against a re-run of the identical load with the
/// audit and trace taps off.
///
/// # Panics
///
/// Panics on data-path errors, lost operations, or a stalled run.
pub fn run_migrate(n_shards: u32, opts: MigrateOpts) -> MigrateResult {
    run::tax_pair(
        |observed| run_migrate_once(n_shards, opts, observed),
        |r| &mut r.run,
    )
}

fn run_migrate_once(n_shards: u32, opts: MigrateOpts, observed: bool) -> MigrateResult {
    let arm = Arm::start(Profile::Migrate, observed, opts.trace, opts.ops);
    // One extra chain sits idle as the migration target. Same offered load
    // and routing as the shard-scaling bench, so the two figures are
    // directly comparable per arm.
    let (cluster, mut chains, clients) = sharded_groups(&arm, n_shards, 1, opts.seed);
    let to = chains.pop().expect("a standby chain");
    let from = std::mem::replace(&mut chains[0], to.clone());
    let mut client = ShardClient::new(clients, opts.ops, opts.seed, &arm);
    client.mig = Move {
        at: opts.ops / 2,
        plan: Some(plan_migration(ShardId(0), 0, &from, &to, SHARED_SIZE)),
        audit: arm.audit.clone(),
        ..Move::default()
    };
    let (m, _, run) = run_arm(arm, cluster, client, &chains);
    let stats = m
        .stats
        .expect("load too small to reach the migration point");
    MigrateResult {
        pause: stats.pause,
        replayed: stats.replayed,
        copy_bytes: stats.copy_bytes,
        penned: m.penned,
        dip: m.window_tput / run.ops_per_sec().max(1e-12),
        epoch: stats.epoch,
        run,
    }
}

/// Live-migration sweep: pause window and throughput dip vs shard count.
pub fn migrate(rep: &mut Report, quick: bool) {
    let opts = MigrateOpts {
        ops: if quick { 1024 } else { 4096 },
        trace: rep.profile_enabled(),
        ..MigrateOpts::default()
    };
    for n in SHARD_COUNTS {
        let r = run_migrate(n, opts);
        let name = format!("migrate/{n}");
        r.run.write_artifacts(rep, &name);
        rep.scenario(
            Scenario::new(&name)
                .system("HyperLoop")
                .seed(opts.seed)
                .config("shards", n)
                .config("replicas_per_shard", REPLICAS_PER_SHARD)
                .config("window", WINDOW)
                .config("ops", opts.ops)
                .config("payload_bytes", PAYLOAD)
                .config("penned", r.penned)
                .config("epoch_after", r.epoch)
                .latency(&r.run.latency)
                .gauge("ops_per_sec", r.run.ops_per_sec())
                .gauge("pause_us", r.pause.as_secs_f64() * 1e6)
                .gauge("window_tput_ratio", r.dip)
                .gauge("copy_bytes", r.copy_bytes as f64)
                .gauge("replayed_ranges", r.replayed as f64)
                // The exported migration.* counters, surfaced as
                // first-class scenario measurements so downstream tooling
                // does not have to dig through the registry snapshot.
                .gauge("migration.pause_ns", r.pause.as_nanos() as f64)
                .gauge("migration.copy_bytes", r.copy_bytes as f64)
                .gauge("migration.replayed", r.replayed as f64)
                .outcome(&r.run),
        );
    }
}

const ROWS: Rows = each("migrate/");

/// The live-migration section.
pub const SECTION: Section = Section {
    title: "Live migration — pause window and throughput dip vs shard count",
    lead: "Shard 0 moves to a standby chain at the halfway mark while every other shard keeps serving; the figures of merit are the pause length, the dip, and the replayed WAL tail.",
    tables: &[
        Table::grid(
            ROWS,
            &[
                col("shards", |r| r.key.clone()),
                col("Kops/s", |r| fmt_kops(r.gauge(0, "ops_per_sec"))),
                col("pause", |r| fmt_ns(r.gauge(0, "migration.pause_ns"))),
                col("window tput", |r| fmt_pct(r.gauge(0, "window_tput_ratio"))),
                col("moved MB", |r| {
                    format!("{:.1}", r.gauge(0, "migration.copy_bytes") / (1u64 << 20) as f64)
                }),
                col("replayed", |r| format!("{:.0}", r.gauge(0, "migration.replayed"))),
            ],
        ),
        Table {
            intro: "Counter tracks (folded from `TRACE_migrate_*.json`): the holding pen fills only inside the pause window and drains at resume; the in-flight window empties across the cutover and refills on the new chain.",
            tracks: &[
                counter_track("pen depth (shard 0)", "bench.shards.shard0.pen"),
                counter_track("window occupancy (shard 0)", "bench.shards.shard0.in_flight"),
            ],
            ..Table::grid(ROWS, TRACK_COLS)
        },
    ],
    claims: &[Claim {
        says: "The pause is shard-local: its length does not grow with the number of shards that keep serving.",
        measure: |all| ROWS.values(all, |r| r.gauge(0, "migration.pause_ns")),
        band: Band::Flat(0.1),
        unit: fmt_ns,
        verdict: Verdict::Holds,
    }],
    note: "The replayed column counts the WAL-tail ranges that raced the bulk copy.",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_arm_loses_nothing_and_records_stats() {
        let opts = MigrateOpts {
            ops: 512,
            ..MigrateOpts::default()
        };
        let r = run_migrate(4, opts);
        assert_eq!(r.run.ops, 512);
        assert_eq!(r.epoch, 1, "one cutover, one epoch bump");
        assert_eq!(
            r.run.health.violations, 0,
            "auditors flagged a clean migration:\n{}",
            r.run.audit_json
        );
        assert!(r.pause > SimDuration::ZERO, "pause window has length");
        assert!(r.penned > 0, "some ops rode out the window in the pen");
        assert!(r.copy_bytes >= 4 << 20, "the shard image moved");
        // The migration counters survived into the snapshot.
        assert_eq!(
            r.run
                .registry
                .counter("bench.shards.shard0.migration.epoch"),
            Some(1)
        );
        assert_eq!(
            r.run
                .registry
                .counter("bench.shards.shard0.migration.replayed"),
            Some(r.replayed)
        );
        assert!(
            r.run
                .registry
                .counter("bench.shards.shard0.migration.copy_bytes")
                .unwrap()
                >= 4 << 20
        );
        assert!(r.dip > 0.0, "the window still completed work");
    }

    /// The quick 8-shard arm is the one whose bulk copy races live
    /// writes, so its move replays WAL-tail ranges after the copy.
    #[test]
    fn the_quick_eight_shard_arm_replays_the_wal_tail() {
        let r = run_migrate(
            8,
            MigrateOpts {
                ops: 1024,
                ..MigrateOpts::default()
            },
        );
        assert!(r.replayed > 0, "the move replayed no WAL-tail range");
        assert_eq!(
            r.run.health.violations, 0,
            "auditors flagged the replaying migration:\n{}",
            r.run.audit_json
        );
    }

    #[test]
    fn same_seed_same_migration_timeline() {
        let opts = MigrateOpts {
            ops: 256,
            ..MigrateOpts::default()
        };
        let a = run_migrate(2, opts);
        let b = run_migrate(2, opts);
        assert_eq!(a.run.elapsed, b.run.elapsed);
        assert_eq!(a.pause, b.pause);
        assert_eq!(a.replayed, b.replayed);
        assert_eq!(a.copy_bytes, b.copy_bytes);
        assert_eq!(a.run.latency.p99, b.run.latency.p99);
        // Same seed → byte-identical audit, health, and series output.
        assert_eq!(a.run.audit_json, b.run.audit_json);
        assert_eq!(a.run.health, b.run.health);
        assert_eq!(a.run.health.to_json(), b.run.health.to_json());
        assert_eq!(a.run.series, b.run.series);
        assert_eq!(a.run.series.to_json(), b.run.series.to_json());
    }

    #[test]
    fn a_traced_arm_folds_every_op_its_latency_counts() {
        let r = run_migrate(
            2,
            MigrateOpts {
                ops: 1024,
                trace: true,
                ..MigrateOpts::default()
            },
        );
        let tail = r.run.tail.as_ref().expect("a traced arm folds a tail");
        assert_eq!((r.run.latency.count, tail.ops), (1024, 1024));
    }
}
