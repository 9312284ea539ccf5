//! The live-migration benchmark: pause-window cost under load.
//!
//! A fixed offered load runs through `n` chains exactly as in the
//! shard-scaling bench, but halfway through, shard 0 is migrated onto a
//! standby chain with the live state machine
//! ([`MigrationRun::begin`]/[`finish`](MigrationRun::finish)): the shard
//! pauses with its window full, the bulk copy races that in-flight tail
//! through the fabric, fresh shard-0 ops park in the bounded holding pen,
//! and every other shard keeps issuing. The figures of merit are the
//! pause-window length, the throughput dip while the window is open, and
//! how much of the WAL tail had to be replayed — the costs the paper's
//! static-placement sections never have to pay.

use crate::report::{us, Report, Scenario};
use crate::run::{self, Arm, Outcome, Profile};
use crate::shardscale::{
    op_for, ShardRig, PAYLOAD, REPLICAS_PER_SHARD, SHARD_COUNTS, SHARED_SIZE, WINDOW,
};
use hyperloop::{plan_migration, MigrationRun, ShardId};
use simcore::simaudit::Probe;
use simcore::{SimDuration, SimTime};

/// Ops parked in the holding pen while the pause window is open.
pub const DEFER: u64 = 16;

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
    /// Shard count of this arm (shard 0 is the one that moves).
    pub shards: u32,
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
    let mut arm = Arm::start(Profile::Migrate, observed, opts.trace, opts.ops);
    // One extra chain sits idle as the migration target. Same offered load
    // and routing as the shard-scaling bench, so the two figures are
    // directly comparable per arm.
    let mut rig = ShardRig::new(&arm, n_shards, 1, opts.ops, opts.seed);
    let standby = rig.spare[0].clone();

    let mig_shard = ShardId(0);
    let migrate_at = opts.ops / 2;
    let mut migrated: Option<(SimDuration, u64, u64, u64, u64)> = None;
    let mut window_tput = 0.0f64;
    while rig.done < opts.ops {
        rig.refill(&arm.health);
        if migrated.is_none() && rig.done >= migrate_at {
            // -- The live migration, launched right after a refill so shard
            // 0's window is full and the bulk copy genuinely races an
            // in-flight tail. The other shards' windows are also full, so
            // they keep completing work throughout the pause. --
            let plan = plan_migration(
                mig_shard,
                rig.set.epoch(mig_shard),
                &rig.chains[0],
                &standby,
                SHARED_SIZE,
            );
            let run = MigrationRun::begin(&mut rig.sim, &mut rig.set, plan);
            let t_begin = run.paused_at();
            let done_before = rig.done;
            // Fresh shard-0 keys park in the bounded holding pen while the
            // window is open.
            let mut penned: Vec<SimTime> = Vec::new();
            while (penned.len() as u64) < DEFER {
                let Some(key) = rig.queues[0].pop_front() else {
                    break;
                };
                let now = rig.sim.now();
                if rig.set.defer_on(mig_shard, op_for(key)).is_err() {
                    rig.queues[0].push_front(key); // pen full: back-pressure
                    break;
                }
                penned.push(now);
                let depth = rig.set.pen_len(mig_shard) as u64;
                arm.health.record_issue(now, mig_shard.0);
                arm.health.record_pen_depth(now, mig_shard.0, depth);
                arm.audit.probe(
                    now,
                    Probe::PenDepth {
                        shard: mig_shard.0,
                        depth,
                        capacity: rig.set.pen_capacity() as u64,
                    },
                );
            }
            // Sample with the pen at its fullest, so the counter track
            // shows the holding-pen spike inside the pause window.
            arm.sample(rig.sim.now(), |reg| {
                rig.set.export_into(reg, "bench.shards")
            });
            let outcome = run.finish(&mut rig.sim, &mut rig.set);
            rig.replicas[0] = outcome.replicas; // old chain's handles are dead
            rig.chains[0] = standby.clone();
            rig.record(outcome.drained, &arm.health);
            // Penned ops re-issued on the new epoch, in pen order. The new
            // chain's generations are epoch-qualified, so they can never
            // collide with old-epoch keys still outstanding.
            assert_eq!(outcome.resumed.len(), penned.len(), "pen drain lost ops");
            for (&gen, &t0) in outcome.resumed.iter().zip(&penned) {
                rig.resend(mig_shard.0, gen, t0);
            }
            let span = rig.sim.now().since(t_begin);
            window_tput = (rig.done - done_before) as f64 / span.as_secs_f64().max(1e-12);
            migrated = Some((
                outcome.stats.pause,
                outcome.stats.replayed,
                outcome.stats.copy_bytes,
                penned.len() as u64,
                outcome.stats.epoch,
            ));
            continue;
        }
        rig.round(&mut arm, opts.ops);
    }
    let (pause, replayed, copy_bytes, penned, epoch) =
        migrated.expect("load too small to reach the migration point");
    let (_, run) = rig.finish(arm, opts.ops);
    MigrateResult {
        shards: n_shards,
        pause,
        replayed,
        copy_bytes,
        penned,
        dip: window_tput / run.ops_per_sec().max(1e-12),
        epoch,
        run,
    }
}

/// Live-migration sweep: pause window and throughput dip vs shard count.
pub fn migrate(rep: &mut Report, quick: bool) {
    rep.banner("Live migration: pause window and throughput dip while shard 0 changes chains");
    let opts = MigrateOpts {
        ops: if quick { 1024 } else { 4096 },
        trace: rep.profile_enabled(),
        ..MigrateOpts::default()
    };
    rep.line(format!(
        "{:<8} {:>12} {:>10} {:>8} {:>10} {:>8} {:>10}",
        "shards", "Kops/s", "pause", "dip", "moved_MB", "replay", "p99"
    ));
    for n in SHARD_COUNTS {
        let r = run_migrate(n, opts);
        rep.line(format!(
            "{:<8} {:>12.1} {:>10} {:>7.0}% {:>10.1} {:>8} {:>10}",
            n,
            r.run.ops_per_sec() / 1e3,
            us(r.pause),
            r.dip * 100.0,
            r.copy_bytes as f64 / (1 << 20) as f64,
            r.replayed,
            us(r.run.latency.p99),
        ));
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
}
