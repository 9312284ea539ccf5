//! # docstore — a MongoDB-style replicated document store
//!
//! The paper's second case study (§5.2): a document server split into a
//! client-integrated front end and NVM-backed replicas. Writes replicate a
//! journal record (`Append`), have every replica apply it (remote log
//! processing, `ExecuteAndAdvance`), and are bracketed by group write locks
//! — all expressed as group operations, so the identical store runs on the
//! HyperLoop data path (replica CPUs idle) or the Naïve-RDMA baseline
//! (replica CPUs on every hop). This is the system measured in Figures 2
//! and 12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doc;
pub mod store;

pub use doc::Document;
pub use store::{CompletedTx, DocConfig, DocError, ReplicatedDocStore, WriteMode};

#[cfg(test)]
mod tests {
    use super::*;
    use hyperloop::harness::{drive, fabric_sim, FabricSim};
    use hyperloop::{GroupConfig, HyperLoopGroup};
    use netsim::{FabricConfig, NodeId};
    use rnicsim::NicConfig;
    use simcore::{SimDuration, Simulation};

    const CLIENT: NodeId = NodeId(0);

    type Store = ReplicatedDocStore<hyperloop::GroupClient>;

    fn setup() -> (
        Simulation<FabricSim>,
        Store,
        u64,
        Vec<hyperloop::ReplicaHandle>,
    ) {
        let mut sim = fabric_sim(
            4,
            64 << 20,
            NicConfig::default(),
            FabricConfig::default(),
            17,
        );
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        let group = drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
        });
        sim.run();
        let base = group.client.layout().shared_base;
        let store = ReplicatedDocStore::new(group.client, DocConfig::default(), 1);
        (sim, store, base, group.replicas)
    }

    fn settle(sim: &mut Simulation<FabricSim>, store: &mut Store) -> Vec<CompletedTx> {
        let mut done = Vec::new();
        // Transactions are multi-phase: keep running until quiescent.
        for _ in 0..32 {
            sim.run();
            let batch = drive(sim, |ctx| store.poll(ctx));
            done.extend(batch);
            if sim.queue.is_empty() && store.transport.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(sim.model.fab.stats().errors, 0);
        done
    }

    #[test]
    fn write_commits_through_all_phases() {
        let (mut sim, mut store, base, _) = setup();
        let doc = Document::with_field(5, "field0", vec![7; 256]);
        drive(&mut sim, |ctx| store.write(ctx, doc.clone()).unwrap());
        let done = settle(&mut sim, &mut store);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].doc_id, 5);
        assert!(done[0].finished > done[0].started);
        assert_eq!(store.read(5), Some(&doc));
        assert_eq!(store.active_txs(), 0);

        // Every replica's database region now holds the document, durably
        // (executed + flushed), and the lock is free again.
        for n in 1..=3u32 {
            let got = drive(&mut sim, |ctx| {
                store.replica_read(ctx.fab, NodeId(n), base, 5)
            });
            assert_eq!(got.as_ref(), Some(&doc), "replica {n}");
        }
    }

    #[test]
    fn lock_word_cycles_zero_locked_zero() {
        let (mut sim, mut store, base, _) = setup();
        // After commit, the lock word must be back to zero on all replicas.
        drive(&mut sim, |ctx| {
            store
                .write(ctx, Document::with_field(1, "f", vec![1]))
                .unwrap()
        });
        settle(&mut sim, &mut store);
        for n in 1..=3u32 {
            let lock_area = sim
                .model
                .fab
                .mem(NodeId(n))
                .read_vec(base + 16, 8 * 64)
                .unwrap();
            assert!(lock_area.iter().all(|&b| b == 0), "lock leaked on {n}");
        }
    }

    #[test]
    fn pipelined_writes_to_different_docs() {
        let (mut sim, mut store, _, _) = setup();
        drive(&mut sim, |ctx| {
            for id in 0..8u64 {
                store
                    .write(ctx, Document::with_field(id, "f", vec![id as u8; 64]))
                    .unwrap();
            }
        });
        let done = settle(&mut sim, &mut store);
        assert_eq!(done.len(), 8);
        for id in 0..8u64 {
            assert!(store.read(id).is_some());
        }
    }

    #[test]
    fn same_doc_writes_serialize_via_the_lock() {
        let (mut sim, mut store, _, _) = setup();
        drive(&mut sim, |ctx| {
            for v in 0..4u8 {
                store
                    .write(ctx, Document::with_field(9, "f", vec![v; 32]))
                    .unwrap();
            }
        });
        let done = settle(&mut sim, &mut store);
        assert_eq!(done.len(), 4);
        // Commit order respects submission order.
        let seqs: Vec<u64> = done.iter().map(|t| t.tx_seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert_eq!(store.read(9).unwrap().fields["f"], vec![3; 32]);
    }

    #[test]
    fn recovery_matches_primary_view() {
        let (mut sim, mut store, base, mut replicas) = setup();
        for round in 0..30u64 {
            drive(&mut sim, |ctx| {
                store
                    .write(
                        ctx,
                        Document::with_field(round % 10, "f", vec![round as u8; 128]),
                    )
                    .unwrap()
            });
            settle(&mut sim, &mut store);
            let completed = store.transport.completed();
            drive(&mut sim, |ctx| {
                for r in replicas.iter_mut() {
                    let target = completed + 128;
                    if target > r.preposted() {
                        r.replenish(ctx, (target - r.preposted()) as u32);
                    }
                }
            });
        }
        sim.model.fab.mem(NodeId(2)).power_failure();
        let state = drive(&mut sim, |ctx| {
            store.recover_state(ctx.fab, NodeId(2), base)
        });
        assert_eq!(state.len(), 10);
        for (id, doc) in state {
            assert_eq!(store.read(id), Some(&doc), "doc {id} diverged");
        }
    }

    #[test]
    fn scan_over_documents() {
        let (mut sim, mut store, _, _) = setup();
        drive(&mut sim, |ctx| {
            for id in [2u64, 4, 6, 8] {
                store
                    .write(ctx, Document::with_field(id, "f", vec![1]))
                    .unwrap();
            }
        });
        settle(&mut sim, &mut store);
        let hits = store.scan(3, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 4);
        assert_eq!(hits[1].id, 6);
    }

    #[test]
    fn append_only_mode_commits_on_journal_replication() {
        let (mut sim, mut store, base, _) = setup();
        store.set_mode(WriteMode::AppendOnly);
        let doc = Document::with_field(7, "f", vec![3; 128]);
        drive(&mut sim, |ctx| store.write(ctx, doc.clone()).unwrap());
        let done = settle(&mut sim, &mut store);
        assert_eq!(done.len(), 1, "append-only commit");
        // Committed but not yet applied: the replica DB region is empty...
        let before = drive(&mut sim, |ctx| {
            store.replica_read(ctx.fab, NodeId(1), base, 7)
        });
        assert_eq!(before, None, "apply must be asynchronous");
        // ...until the background apply runs.
        drive(&mut sim, |ctx| {
            assert_eq!(store.apply_backlog(ctx, 8), 1);
        });
        settle(&mut sim, &mut store);
        let after = drive(&mut sim, |ctx| {
            store.replica_read(ctx.fab, NodeId(1), base, 7)
        });
        assert_eq!(after, Some(doc));
    }

    #[test]
    fn append_only_pipelines_multiple_writes() {
        let (mut sim, mut store, _, _) = setup();
        store.set_mode(WriteMode::AppendOnly);
        drive(&mut sim, |ctx| {
            for id in 0..10u64 {
                store
                    .write(ctx, Document::with_field(id, "f", vec![id as u8; 64]))
                    .unwrap();
            }
        });
        let done = settle(&mut sim, &mut store);
        assert_eq!(done.len(), 10);
        // Journal order: commit order equals submission order.
        let seqs: Vec<u64> = done.iter().map(|t| t.tx_seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn geometry_violations_rejected() {
        let (mut sim, mut store, _, _) = setup();
        let cap = store.config().capacity;
        let err = drive(&mut sim, |ctx| {
            store
                .write(ctx, Document::with_field(cap, "f", vec![1]))
                .unwrap_err()
        });
        assert_eq!(err, DocError::IdOutOfRange);
        let err = drive(&mut sim, |ctx| {
            store
                .write(ctx, Document::with_field(0, "f", vec![0; 4096]))
                .unwrap_err()
        });
        assert_eq!(err, DocError::DocTooLarge);
    }

    #[test]
    fn write_latency_is_a_handful_of_chain_trips() {
        let (mut sim, mut store, _, _) = setup();
        // Warm-up.
        drive(&mut sim, |ctx| {
            store
                .write(ctx, Document::with_field(0, "f", vec![0; 64]))
                .unwrap()
        });
        settle(&mut sim, &mut store);
        let t0 = sim.now();
        drive(&mut sim, |ctx| {
            store
                .write(ctx, Document::with_field(1, "f", vec![1; 1024]))
                .unwrap()
        });
        let done = settle(&mut sim, &mut store);
        let lat = done[0].finished.since(t0);
        // Five sequential group ops (lock, append, memcpy, head, unlock):
        // tens of microseconds on an idle fabric.
        assert!(lat > SimDuration::from_micros(30), "{lat}");
        assert!(lat < SimDuration::from_micros(200), "{lat}");
    }
}
