//! The MongoDB case study end to end: fully-ACID document writes (group
//! lock → journal append → NIC-side log processing → unlock) plus a
//! lock-protected consistent read served by a *backup* replica.
//!
//! ```text
//! cargo run --example document_transactions
//! ```

use hyperloop_repro::docstore::{
    DocConfig, Document, ReplicatedDocStore, CONTROL_SIZE, N_LOCKS, SLOT_SIZE,
};
use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::lock::LockTable;
use hyperloop_repro::hyperloop::reads::ReplicaReader;
use hyperloop_repro::hyperloop::{GroupConfig, HyperLoopGroup};
use hyperloop_repro::netsim::NodeId;

fn main() {
    let mut sim = fabric_sim(4, 64 << 20, 12);
    let replicas = [NodeId(1), NodeId(2), NodeId(3)];
    let group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &replicas, GroupConfig::default())
    });
    sim.run();
    let base = group.client.layout().shared_base;
    // A reader over the same lock table region the store uses (offset 16,
    // N_LOCKS words — see docstore::CONTROL_SIZE).
    let reader_locks = LockTable::new(16, N_LOCKS);
    let mut reader = drive(&mut sim, |ctx| {
        ReplicaReader::setup(ctx.fab, &group.client, &replicas, reader_locks)
    });
    let mut store = ReplicatedDocStore::new(group.client, DocConfig::default(), 1);

    // A transactional write: the five-phase pipeline runs entirely on NICs.
    let mut doc = Document::with_field(42, "title", b"HyperLoop".to_vec());
    doc.fields.insert("venue".into(), b"SIGCOMM 2018".to_vec());
    let t0 = sim.now();
    drive(&mut sim, |ctx| store.write(ctx, doc.clone()).unwrap());
    let mut committed = Vec::new();
    while committed.is_empty() {
        sim.run();
        committed = drive(&mut sim, |ctx| store.poll(ctx));
    }
    println!(
        "tx {} committed in {} (lock + append + execute + unlock, all NIC-side)",
        committed[0].tx_seq,
        sim.now().since(t0)
    );

    // Every replica can now serve the document.
    for n in 1..=3u32 {
        let got = drive(&mut sim, |ctx| {
            store.replica_read(ctx.fab, NodeId(n), base, 42)
        });
        assert_eq!(got.as_ref(), Some(&doc));
    }
    println!("document present and durable on all three replicas");

    // A lock-protected one-sided read from the MIDDLE replica: the paper's
    // read-scaling story — backups serve consistent reads concurrently.
    // Store layout: control area, then journal, then document slots.
    let db_off = CONTROL_SIZE + store.config().log_size + SLOT_SIZE * 42;
    let token = drive(&mut sim, |ctx| {
        reader.begin(
            store_transport(&mut store),
            ctx,
            1,  // replica index (node2)
            42, // the doc's lock (id % N_LOCKS)
            db_off,
            4 + doc.encoded_len() as u64,
        )
    });
    let mut reads = Vec::new();
    while reads.is_empty() {
        sim.run();
        let acks = drive(&mut sim, |ctx| store_transport(&mut store).poll(ctx));
        reads = drive(&mut sim, |ctx| {
            reader.pump(store_transport(&mut store), ctx, &acks)
        });
    }
    assert_eq!(reads[0].token, token);
    let len = u32::from_le_bytes(reads[0].data[..4].try_into().unwrap()) as usize;
    let read_back = Document::decode(&reads[0].data[4..4 + len]).unwrap();
    assert_eq!(read_back, doc);
    println!(
        "locked one-sided read from backup replica node2 returned {read_back} — \
         no replica CPU involved at any point"
    );
}

/// The store owns the group client; the reader borrows it between ops.
fn store_transport(
    store: &mut ReplicatedDocStore<hyperloop_repro::hyperloop::GroupClient>,
) -> &mut hyperloop_repro::hyperloop::GroupClient {
    &mut store.transport
}
