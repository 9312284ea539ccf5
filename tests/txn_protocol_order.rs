//! The transaction commit protocol's exact order on the wire and in the
//! observability taps. Locking and Optimistic transactions run on a
//! 2-shard fabric (two 2-replica chains) through every phase: a partial
//! acquisition and its undo, a busy round with rollback and backoff, a
//! drained retry budget, a failed validation, and apply and release. One
//! log interleaves, in emission order, every group op the manager issued
//! (shard, generation, op), every `TxnOp` tag, every phase begin/end and
//! every audit probe, and the test compares it line for line with the
//! recorded protocol.

use hyperloop_repro::hyperloop::harness::{drive, fabric_sim, FabricSim};
use hyperloop_repro::hyperloop::txn::{CommitMode, TxnLayout, TxnManager, TxnSite};
use hyperloop_repro::hyperloop::{
    GroupAck, GroupClient, GroupConfig, GroupError, GroupOp, GroupTransport, HyperLoopGroup,
    ShardId, ShardSet, WRITER_BIT,
};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::rnicsim::{CqId, NicCtx, Payload};
use hyperloop_repro::simcore::simaudit::{AuditCtx, TxnAuditor};
use hyperloop_repro::simcore::simtrace::{txn_phase_label, KindSet};
use hyperloop_repro::simcore::{
    Audit, Auditor, Probe, SimTime, Simulation, TraceEvent, TraceKind, Tracer,
};
use std::cell::RefCell;
use std::rc::Rc;

const CLIENT: NodeId = NodeId(0);

/// The shared, emission-ordered protocol log.
type Log = Rc<RefCell<Vec<String>>>;

/// A shard transport that logs every op the transaction manager issues.
struct Recorded {
    inner: GroupClient,
    shard: u32,
    log: Log,
}

impl GroupTransport for Recorded {
    fn group_size(&self) -> u32 {
        self.inner.group_size()
    }

    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn ack_cq(&self) -> CqId {
        self.inner.ack_cq()
    }

    fn shared_size(&self) -> u64 {
        self.inner.shared_size()
    }

    fn in_flight(&self) -> u64 {
        self.inner.in_flight()
    }

    fn window(&self) -> u32 {
        self.inner.window()
    }

    fn issue(&mut self, ctx: &mut NicCtx<'_>, op: GroupOp) -> Result<u64, GroupError> {
        let what = match &op {
            GroupOp::Cas {
                offset,
                compare,
                swap,
                execute,
            } => format!("cas @{offset} {compare:#x}->{swap:#x} x{:#b}", execute.0),
            GroupOp::Write { offset, data, .. } => {
                format!("write @{offset} {:02x?}", data.as_slice())
            }
            other => other.name().to_string(),
        };
        let gen = self.inner.issue(ctx, op)?;
        self.log
            .borrow_mut()
            .push(format!("issue s{} g{gen} {what}", self.shard));
        Ok(gen)
    }

    fn poll_into(&mut self, ctx: &mut NicCtx<'_>, acks: &mut Vec<GroupAck>) -> usize {
        self.inner.poll_into(ctx, acks)
    }
}

/// An auditor that logs the txn trace events and lifecycle probes.
struct Recorder(Log);

impl Auditor for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&["txn_phase_begin", "txn_phase_end", "txn_op"])
    }

    fn on_event(&mut self, _ctx: &mut AuditCtx<'_>, ev: &TraceEvent) {
        let line = match ev.kind {
            TraceKind::TxnOp { txn } => format!("tag g{} t{txn}", ev.op),
            TraceKind::TxnPhaseBegin { txn, phase, .. } => {
                format!("begin t{txn} {}", txn_phase_label(phase))
            }
            TraceKind::TxnPhaseEnd { txn, phase, .. } => {
                format!("end t{txn} {}", txn_phase_label(phase))
            }
            _ => return,
        };
        self.0.borrow_mut().push(line);
    }

    fn on_probe(&mut self, _ctx: &mut AuditCtx<'_>, _at: SimTime, probe: &Probe) {
        let line = match *probe {
            Probe::TxnBegin { txn } => format!("probe begin t{txn}"),
            Probe::TxnLock { txn, shard, lock } => format!("probe lock t{txn} s{shard} l{lock}"),
            Probe::TxnUnlock { txn, shard, lock } => {
                format!("probe unlock t{txn} s{shard} l{lock}")
            }
            Probe::TxnWrite { txn, shard, lock } => format!("probe write t{txn} s{shard} l{lock}"),
            Probe::TxnCommit { txn, writes } => format!("probe commit t{txn} w{writes}"),
            Probe::TxnAbort { txn } => format!("probe abort t{txn}"),
            _ => return,
        };
        self.0.borrow_mut().push(line);
    }
}

/// A client, two 2-replica shards behind recording transports, and a
/// manager whose tracer and audit feed the same log.
struct Rig {
    sim: Simulation<FabricSim>,
    shards: ShardSet<Recorded>,
    mgr: TxnManager,
    audit: Audit,
    log: Log,
    /// Each shard's replica nodes and shared-region base.
    info: Vec<(Vec<NodeId>, u64)>,
}

fn layout() -> TxnLayout {
    TxnLayout::standard(1024, 16)
}

fn site(shard: u32, lock: u32) -> TxnSite {
    TxnSite {
        shard: ShardId(shard),
        lock,
    }
}

impl Rig {
    fn new(mode: CommitMode, seed: u64) -> Rig {
        let log = Log::default();
        let mut sim = fabric_sim(5, 64 << 20, 31);
        let mut shards = Vec::new();
        let mut info = Vec::new();
        for s in 0..2 {
            let nodes = vec![NodeId(1 + 2 * s), NodeId(2 + 2 * s)];
            let group = drive(&mut sim, |ctx| {
                HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
            });
            sim.run();
            info.push((nodes, group.client.layout().shared_base));
            shards.push(Recorded {
                inner: group.client,
                shard: s,
                log: log.clone(),
            });
        }
        let audit = Audit::new(vec![
            Box::new(TxnAuditor::default()),
            Box::new(Recorder(log.clone())),
        ]);
        let mut mgr = TxnManager::new(layout(), mode, seed);
        mgr.set_audit(audit.clone());
        mgr.set_tracer(Tracer::disabled().with_audit(audit.clone()));
        Rig {
            sim,
            shards: ShardSet::with_hash_router(shards),
            mgr,
            audit,
            log,
            info,
        }
    }

    /// Writes `word` into `site`'s lock word on the given replicas.
    fn set_lock_word(&mut self, site: TxnSite, replicas: &[usize], word: u64) {
        let (nodes, base) = &self.info[site.shard.0 as usize];
        let addr = base + layout().locks().word_offset(site.lock);
        for &r in replicas {
            self.sim
                .model
                .fab
                .mem(nodes[r])
                .write_durable(addr, &word.to_le_bytes())
                .unwrap();
        }
    }

    /// Pumps until nothing is in flight, logging each outcome. `tick` runs
    /// after every pump with the log so far.
    fn settle(&mut self, mut tick: impl FnMut(&mut Rig)) {
        for _ in 0..400 {
            self.sim.run();
            let (shards, mgr) = (&mut self.shards, &mut self.mgr);
            let done = drive(&mut self.sim, |ctx| {
                let acks = shards.poll(ctx);
                mgr.pump(ctx, shards, &acks)
            });
            for (id, outcome) in done {
                self.log
                    .borrow_mut()
                    .push(format!("done t{id} {outcome:?}"));
            }
            tick(self);
            if self.mgr.in_flight() == 0 {
                return;
            }
        }
        panic!("transactions wedged");
    }

    fn logged(&self, line: &str) -> bool {
        self.log.borrow().iter().any(|l| l == line)
    }

    /// The log plus the manager's counters, one entry per line.
    fn transcript(&self) -> String {
        let m = &self.mgr;
        let mut lines = self.log.borrow().clone();
        lines.push(format!(
            "counters started={} committed={} aborted={} lock_retries={} parks={} \
             lock_conflict={} validation_failed={} backoff_exhausted={}",
            m.started,
            m.committed,
            m.aborted,
            m.lock_retries,
            m.backoff_parks,
            m.abort_lock_conflict,
            m.abort_validation_failed,
            m.abort_backoff_exhausted
        ));
        lines.join("\n")
    }

    fn check(&self, expected: &str) {
        assert_eq!(
            self.audit.violation_count(),
            0,
            "report:\n{}",
            self.audit.report()
        );
        let got = self.transcript();
        let want = expected.trim();
        if got != want {
            for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
                assert_eq!(g, w, "first difference at line {}\ngot:\n{got}", i + 1);
            }
            panic!(
                "transcript has {} lines, expected {}\ngot:\n{got}",
                got.lines().count(),
                want.lines().count()
            );
        }
    }
}

/// Locking mode: a partial acquisition on one replica is undone and the
/// held lock rolled back before a backoff and a clean retry; two
/// transactions fight over one lock (busy, rollback, backoff); a foreign
/// holder drains the retry budget of a transaction holding nothing; an
/// empty transaction walks the empty phases.
#[test]
fn locking_phases_issue_tag_and_probe_in_protocol_order() {
    let mut rig = Rig::new(CommitMode::Locking, 7);
    let foreign = WRITER_BIT | 999;

    // Partial acquisition: replica 1 of shard 1's lock 2 is held by a
    // foreign owner until the undo phase opens.
    rig.set_lock_word(site(1, 2), &[1], foreign);
    let mut t = rig.mgr.begin();
    t.read(site(0, 1), rig.mgr.version(site(0, 1)));
    t.write(site(0, 1), 4096, Payload::copy_from(b"t0a"));
    t.write(site(1, 2), 4096, Payload::copy_from(b"t0b"));
    rig.mgr.commit(t);
    let mut cleared = false;
    rig.settle(|rig| {
        if !cleared && rig.logged("begin t0 undo") {
            rig.set_lock_word(site(1, 2), &[1], 0);
            cleared = true;
        }
    });
    assert!(cleared, "the acquisition never went partial");

    // Busy: t1 and t2 both want shard 1's lock 4; t2 holds shard 0's
    // lock 5 when it loses and must roll it back.
    let mut t1 = rig.mgr.begin();
    t1.write(site(0, 3), 8192, Payload::copy_from(b"t1a"));
    t1.write(site(1, 4), 8192, Payload::copy_from(b"t1b"));
    let mut t2 = rig.mgr.begin();
    t2.write(site(0, 5), 12288, Payload::copy_from(b"t2a"));
    t2.write(site(1, 4), 8192, Payload::copy_from(b"t2b"));
    rig.mgr.commit(t1);
    rig.mgr.commit(t2);
    rig.settle(|_| {});

    // A foreign holder on every replica: t3 holds nothing, so every lost
    // round parks without a rollback until the budget drains.
    rig.set_lock_word(site(1, 6), &[0, 1], foreign);
    let mut t3 = rig.mgr.begin();
    t3.write(site(1, 6), 16384, Payload::copy_from(b"t3"));
    rig.mgr.commit(t3);
    rig.settle(|_| {});

    // Nothing to lock, check or write.
    let t4 = rig.mgr.begin();
    rig.mgr.commit(t4);
    rig.settle(|_| {});

    rig.check(LOCKING);
}

/// Optimistic mode: a commit that validates a read it does not lock; a
/// stale read that fails validation with and without a held write lock;
/// a read-only commit that skips apply and release.
#[test]
fn optimistic_phases_issue_tag_and_probe_in_protocol_order() {
    let mut rig = Rig::new(CommitMode::Optimistic, 9);

    let mut t0 = rig.mgr.begin();
    t0.read(site(1, 2), rig.mgr.version(site(1, 2)));
    t0.write(site(0, 1), 4096, Payload::copy_from(b"t0"));
    rig.mgr.commit(t0);
    rig.settle(|_| {});

    // t1 bumps shard 1's lock 2 to version 1.
    let mut t1 = rig.mgr.begin();
    t1.write(site(1, 2), 8192, Payload::copy_from(b"t1"));
    rig.mgr.commit(t1);
    rig.settle(|_| {});

    // t2 read version 0: validation fails and its write lock is released.
    let mut t2 = rig.mgr.begin();
    t2.read(site(1, 2), 0);
    t2.write(site(0, 3), 12288, Payload::copy_from(b"t2"));
    rig.mgr.commit(t2);
    rig.settle(|_| {});

    // t3 is a stale read-only transaction: it aborts holding nothing.
    let mut t3 = rig.mgr.begin();
    t3.read(site(1, 2), 0);
    rig.mgr.commit(t3);
    rig.settle(|_| {});

    // t4 reads the current version and commits without writing.
    let mut t4 = rig.mgr.begin();
    t4.read(site(1, 2), rig.mgr.version(site(1, 2)));
    rig.mgr.commit(t4);
    rig.settle(|_| {});

    rig.check(OPTIMISTIC);
}

const LOCKING: &str = "
probe begin t0
begin t0 acquire
issue s0 g0 cas @1032 0x0->0x8000000000000001 x0b11
tag g0 t0
probe lock t0 s0 l1
issue s1 g0 cas @1040 0x0->0x8000000000000001 x0b11
tag g0 t0
end t0 acquire
begin t0 undo
issue s1 g1 cas @1040 0x8000000000000001->0x0 x0b1
tag g1 t0
end t0 undo
begin t0 rollback
issue s0 g1 cas @1032 0x8000000000000001->0x0 x0b11
tag g1 t0
probe unlock t0 s0 l1
end t0 rollback
begin t0 backoff
end t0 backoff
begin t0 acquire
issue s0 g2 cas @1032 0x0->0x8000000000000001 x0b11
tag g2 t0
probe lock t0 s0 l1
issue s1 g2 cas @1040 0x0->0x8000000000000001 x0b11
tag g2 t0
probe lock t0 s1 l2
end t0 acquire
begin t0 validate
issue s0 g3 cas @1160 0x0->0x0 x0b1
tag g3 t0
end t0 validate
begin t0 apply
issue s0 g4 write @4096 [74, 30, 61]
tag g4 t0
issue s1 g3 write @4096 [74, 30, 62]
tag g3 t0
issue s0 g5 write @1160 [01, 00, 00, 00, 00, 00, 00, 00]
tag g5 t0
issue s1 g4 write @1168 [01, 00, 00, 00, 00, 00, 00, 00]
tag g4 t0
probe write t0 s0 l1
probe write t0 s1 l2
end t0 apply
begin t0 release
issue s0 g6 cas @1032 0x8000000000000001->0x0 x0b11
tag g6 t0
issue s1 g5 cas @1040 0x8000000000000001->0x0 x0b11
tag g5 t0
probe unlock t0 s0 l1
probe unlock t0 s1 l2
end t0 release
probe commit t0 w2
done t0 Committed
probe begin t1
begin t1 acquire
issue s0 g7 cas @1048 0x0->0x8000000000000002 x0b11
tag g7 t1
probe begin t2
begin t2 acquire
issue s0 g8 cas @1064 0x0->0x8000000000000003 x0b11
tag g8 t2
probe lock t1 s0 l3
probe lock t2 s0 l5
issue s1 g6 cas @1056 0x0->0x8000000000000002 x0b11
tag g6 t1
issue s1 g7 cas @1056 0x0->0x8000000000000003 x0b11
tag g7 t2
probe lock t1 s1 l4
end t1 acquire
begin t1 validate
end t1 validate
begin t1 apply
end t2 acquire
begin t2 rollback
issue s0 g9 write @8192 [74, 31, 61]
tag g9 t1
issue s1 g8 write @8192 [74, 31, 62]
tag g8 t1
issue s0 g10 write @1176 [01, 00, 00, 00, 00, 00, 00, 00]
tag g10 t1
issue s1 g9 write @1184 [01, 00, 00, 00, 00, 00, 00, 00]
tag g9 t1
issue s0 g11 cas @1064 0x8000000000000003->0x0 x0b11
tag g11 t2
probe write t1 s0 l3
probe unlock t2 s0 l5
end t2 rollback
begin t2 backoff
probe write t1 s1 l4
end t1 apply
begin t1 release
issue s0 g12 cas @1048 0x8000000000000002->0x0 x0b11
tag g12 t1
issue s1 g10 cas @1056 0x8000000000000002->0x0 x0b11
tag g10 t1
probe unlock t1 s0 l3
probe unlock t1 s1 l4
end t1 release
probe commit t1 w2
end t2 backoff
begin t2 acquire
issue s0 g13 cas @1064 0x0->0x8000000000000003 x0b11
tag g13 t2
done t1 Committed
probe lock t2 s0 l5
issue s1 g11 cas @1056 0x0->0x8000000000000003 x0b11
tag g11 t2
probe lock t2 s1 l4
end t2 acquire
begin t2 validate
end t2 validate
begin t2 apply
issue s0 g14 write @12288 [74, 32, 61]
tag g14 t2
issue s1 g12 write @8192 [74, 32, 62]
tag g12 t2
issue s0 g15 write @1192 [01, 00, 00, 00, 00, 00, 00, 00]
tag g15 t2
issue s1 g13 write @1184 [02, 00, 00, 00, 00, 00, 00, 00]
tag g13 t2
probe write t2 s0 l5
probe write t2 s1 l4
end t2 apply
begin t2 release
issue s0 g16 cas @1064 0x8000000000000003->0x0 x0b11
tag g16 t2
issue s1 g14 cas @1056 0x8000000000000003->0x0 x0b11
tag g14 t2
probe unlock t2 s0 l5
probe unlock t2 s1 l4
end t2 release
probe commit t2 w2
done t2 Committed
probe begin t3
begin t3 acquire
issue s1 g15 cas @1072 0x0->0x8000000000000004 x0b11
tag g15 t3
end t3 acquire
begin t3 backoff
end t3 backoff
begin t3 acquire
issue s1 g16 cas @1072 0x0->0x8000000000000004 x0b11
tag g16 t3
end t3 acquire
begin t3 backoff
end t3 backoff
begin t3 acquire
issue s1 g17 cas @1072 0x0->0x8000000000000004 x0b11
tag g17 t3
end t3 acquire
begin t3 backoff
end t3 backoff
begin t3 acquire
issue s1 g18 cas @1072 0x0->0x8000000000000004 x0b11
tag g18 t3
end t3 acquire
begin t3 backoff
end t3 backoff
begin t3 acquire
issue s1 g19 cas @1072 0x0->0x8000000000000004 x0b11
tag g19 t3
end t3 acquire
begin t3 backoff
end t3 backoff
begin t3 acquire
issue s1 g20 cas @1072 0x0->0x8000000000000004 x0b11
tag g20 t3
end t3 acquire
begin t3 backoff
end t3 backoff
begin t3 acquire
issue s1 g21 cas @1072 0x0->0x8000000000000004 x0b11
tag g21 t3
end t3 acquire
begin t3 backoff
end t3 backoff
begin t3 acquire
issue s1 g22 cas @1072 0x0->0x8000000000000004 x0b11
tag g22 t3
end t3 acquire
probe abort t3
done t3 Aborted
probe begin t4
begin t4 acquire
end t4 acquire
begin t4 validate
end t4 validate
begin t4 apply
end t4 apply
begin t4 release
end t4 release
probe commit t4 w0
done t4 Committed
counters started=5 committed=4 aborted=1 lock_retries=9 parks=9 lock_conflict=0 validation_failed=0 backoff_exhausted=1
";

const OPTIMISTIC: &str = "
probe begin t0
begin t0 acquire
issue s0 g0 cas @1032 0x0->0x8000000000000001 x0b11
tag g0 t0
probe lock t0 s0 l1
end t0 acquire
begin t0 validate
issue s1 g0 cas @1168 0x0->0x0 x0b1
tag g0 t0
end t0 validate
begin t0 apply
issue s0 g1 write @4096 [74, 30]
tag g1 t0
issue s0 g2 write @1160 [01, 00, 00, 00, 00, 00, 00, 00]
tag g2 t0
probe write t0 s0 l1
end t0 apply
begin t0 release
issue s0 g3 cas @1032 0x8000000000000001->0x0 x0b11
tag g3 t0
probe unlock t0 s0 l1
end t0 release
probe commit t0 w1
done t0 Committed
probe begin t1
begin t1 acquire
issue s1 g1 cas @1040 0x0->0x8000000000000002 x0b11
tag g1 t1
probe lock t1 s1 l2
end t1 acquire
begin t1 validate
end t1 validate
begin t1 apply
issue s1 g2 write @8192 [74, 31]
tag g2 t1
issue s1 g3 write @1168 [01, 00, 00, 00, 00, 00, 00, 00]
tag g3 t1
probe write t1 s1 l2
end t1 apply
begin t1 release
issue s1 g4 cas @1040 0x8000000000000002->0x0 x0b11
tag g4 t1
probe unlock t1 s1 l2
end t1 release
probe commit t1 w1
done t1 Committed
probe begin t2
begin t2 acquire
issue s0 g4 cas @1048 0x0->0x8000000000000003 x0b11
tag g4 t2
probe lock t2 s0 l3
end t2 acquire
begin t2 validate
issue s1 g5 cas @1168 0x0->0x0 x0b1
tag g5 t2
end t2 validate
begin t2 release
issue s0 g5 cas @1048 0x8000000000000003->0x0 x0b11
tag g5 t2
probe unlock t2 s0 l3
end t2 release
probe abort t2
done t2 Aborted
probe begin t3
begin t3 acquire
end t3 acquire
begin t3 validate
issue s1 g6 cas @1168 0x0->0x0 x0b1
tag g6 t3
end t3 validate
begin t3 release
end t3 release
probe abort t3
done t3 Aborted
probe begin t4
begin t4 acquire
end t4 acquire
begin t4 validate
issue s1 g7 cas @1168 0x1->0x1 x0b1
tag g7 t4
end t4 validate
begin t4 apply
end t4 apply
begin t4 release
end t4 release
probe commit t4 w0
done t4 Committed
counters started=5 committed=3 aborted=2 lock_retries=0 parks=0 lock_conflict=0 validation_failed=2 backoff_exhausted=0
";
