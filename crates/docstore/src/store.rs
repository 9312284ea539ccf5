//! The replicated document store and its transactional write pipeline.
//!
//! Each write transaction runs the paper's §5.2 sequence as an ack-driven
//! state machine:
//!
//! 1. `wrLock` — group gCAS on the document's lock word;
//! 2. `Append` — the journal record replicates (gWRITE + gFLUSH);
//! 3. `ExecuteAndAdvance` — every replica's NIC applies it (gMEMCPY +
//!    gFLUSH, then the head gWRITE + gFLUSH);
//! 4. `wrUnlock` — group gCAS release.
//!
//! Over the Naïve transport the identical sequence runs with replica CPUs
//! doing the work — the comparison of Figure 12.

use crate::doc::Document;
use hyperloop::lock::{LockTable, WrLockOutcome};
use hyperloop::wal::{recover_unapplied, ReplicatedWal, WalLayout};
use hyperloop::GroupTransport;
use rnicsim::{NicCtx, RdmaFabric};
use simcore::SimTime;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use walog::LogEntry;

/// Store geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocConfig {
    /// Maximum number of documents (dense ids `0..capacity`).
    pub capacity: u64,
    /// Maximum encoded document size.
    pub max_doc: u64,
    /// Bytes reserved for the journal ring.
    pub log_size: u64,
    /// Number of lock words (documents hash onto them).
    pub n_locks: u32,
}

impl Default for DocConfig {
    fn default() -> Self {
        DocConfig {
            capacity: 1024,
            max_doc: 1536,
            log_size: 1 << 20,
            n_locks: 64,
        }
    }
}

impl DocConfig {
    /// Bytes of one document slot.
    pub fn slot_size(&self) -> u64 {
        4 + self.max_doc
    }

    /// Control-area bytes: 16-byte head pointer + lock table.
    pub fn control_size(&self) -> u64 {
        (16 + self.n_locks as u64 * 8 + 63) & !63
    }
}

/// How a write commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// The paper's HyperLoop-MongoDB: lock, append, execute on every
    /// replica, unlock — strong consistency, all on the (offloaded) data
    /// path.
    #[default]
    FullPipeline,
    /// Native-MongoDB shape: the journal append is the critical path; log
    /// application happens asynchronously (`apply_backlog`).
    AppendOnly,
}

/// Store errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocError {
    /// Document id beyond capacity.
    IdOutOfRange,
    /// Encoded document exceeds the slot.
    DocTooLarge,
    /// Too many transactions queued; poll first.
    Busy,
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::IdOutOfRange => f.write_str("document id out of range"),
            DocError::DocTooLarge => f.write_str("document too large"),
            DocError::Busy => f.write_str("store busy"),
        }
    }
}

impl std::error::Error for DocError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NeedLock,
    Locking,
    NeedAppend,
    Appending,
    NeedExecute,
    Executing,
    NeedUnlock,
    Unlocking,
}

#[derive(Debug)]
struct Tx {
    tx_seq: u64,
    doc: Document,
    lock_id: u32,
    phase: Phase,
    started: SimTime,
    /// Generations outstanding for the current phase.
    waiting: Vec<u64>,
}

/// A completed write transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTx {
    /// The store-level transaction sequence number.
    pub tx_seq: u64,
    /// The document written.
    pub doc_id: u64,
    /// When the transaction was submitted.
    pub started: SimTime,
    /// When the unlock ack arrived (fully committed, group-wide).
    pub finished: SimTime,
}

/// The replicated document store (client/primary side).
pub struct ReplicatedDocStore<T> {
    /// The replication transport.
    pub transport: T,
    config: DocConfig,
    wal: ReplicatedWal,
    locks: LockTable,
    owner: u64,
    docs: BTreeMap<u64, Document>,
    active: VecDeque<Tx>,
    /// gen → index key into the active queue by tx_seq.
    gen_to_tx: HashMap<u64, u64>,
    next_tx_seq: u64,
    max_queued: usize,
    completed: Vec<CompletedTx>,
    mode: WriteMode,
    /// Diagnostic: write-lock acquisitions that had to retry.
    pub lock_retries: u64,
}

impl<T: fmt::Debug> fmt::Debug for ReplicatedDocStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatedDocStore")
            .field("docs", &self.docs.len())
            .field("active_txs", &self.active.len())
            .finish()
    }
}

impl<T: GroupTransport> ReplicatedDocStore<T> {
    /// Builds the store over an already-wired transport. `owner` identifies
    /// this front end in lock words.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not fit the transport's shared region.
    pub fn new(transport: T, config: DocConfig, owner: u64) -> Self {
        let shared = transport.shared_size();
        let layout = WalLayout::standard(shared, config.log_size, config.control_size());
        assert!(
            config.capacity * config.slot_size() <= layout.db_size,
            "document area exceeds the shared region"
        );
        ReplicatedDocStore {
            transport,
            config,
            wal: ReplicatedWal::new(layout),
            locks: LockTable::new(16, config.n_locks),
            owner,
            docs: BTreeMap::new(),
            active: VecDeque::new(),
            gen_to_tx: HashMap::new(),
            next_tx_seq: 0,
            max_queued: 32,
            completed: Vec::new(),
            mode: WriteMode::FullPipeline,
            lock_retries: 0,
        }
    }

    /// Selects the write commitment mode (see [`WriteMode`]).
    pub fn set_mode(&mut self, mode: WriteMode) {
        self.mode = mode;
    }

    /// Asynchronously applies up to `max_records` backlogged journal
    /// records on every replica (the native mode's background apply).
    pub fn apply_backlog(&mut self, ctx: &mut NicCtx<'_>, max_records: usize) -> usize {
        let mut applied = 0;
        while applied < max_records {
            match self.wal.execute_and_advance(&mut self.transport, ctx) {
                Ok(Some(_)) => applied += 1,
                Ok(None) | Err(_) => break,
            }
        }
        applied
    }

    /// Store geometry.
    pub fn config(&self) -> &DocConfig {
        &self.config
    }

    /// Primary-side read.
    pub fn read(&self, id: u64) -> Option<&Document> {
        self.docs.get(&id)
    }

    /// Range scan over present documents.
    pub fn scan(&self, start: u64, len: u64) -> Vec<&Document> {
        self.docs
            .range(start..)
            .take(len as usize)
            .map(|(_, d)| d)
            .collect()
    }

    /// Number of documents present.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True if no documents are present.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Transactions still in the pipeline.
    pub fn active_txs(&self) -> usize {
        self.active.len()
    }

    fn lock_of(&self, id: u64) -> u32 {
        (id % self.config.n_locks as u64) as u32
    }

    /// Submits a durable replicated write (insert or update). The primary
    /// view updates immediately; group-wide commitment is reported through
    /// [`ReplicatedDocStore::poll`].
    ///
    /// # Errors
    ///
    /// [`DocError`] on geometry violations or a full pipeline.
    pub fn write(&mut self, ctx: &mut NicCtx<'_>, doc: Document) -> Result<u64, DocError> {
        if doc.id >= self.config.capacity {
            return Err(DocError::IdOutOfRange);
        }
        if doc.encoded_len() as u64 > self.config.max_doc {
            return Err(DocError::DocTooLarge);
        }
        if self.active.len() >= self.max_queued {
            return Err(DocError::Busy);
        }
        let tx_seq = self.next_tx_seq;
        self.next_tx_seq += 1;
        self.docs.insert(doc.id, doc.clone());
        let lock_id = self.lock_of(doc.id);
        self.active.push_back(Tx {
            tx_seq,
            doc,
            lock_id,
            phase: match self.mode {
                WriteMode::FullPipeline => Phase::NeedLock,
                WriteMode::AppendOnly => Phase::NeedAppend,
            },
            started: ctx.now,
            waiting: Vec::new(),
        });
        self.pump(ctx);
        Ok(tx_seq)
    }

    /// Drives transaction phases as far as the window allows. Called
    /// internally by `write` and `poll`; harmless to call extra times.
    pub fn pump(&mut self, ctx: &mut NicCtx<'_>) {
        // Only the *head* transaction issues journal work (appends must hit
        // the ring in tx order); lock phases of later txs may overlap.
        for i in 0..self.active.len() {
            let phase = self.active[i].phase;
            match phase {
                Phase::NeedLock => {
                    if !self.transport.can_issue() {
                        return;
                    }
                    // A lock conflict with an earlier active tx on the same
                    // word must wait (single-writer semantics).
                    let lock_id = self.active[i].lock_id;
                    let conflict = self.active.iter().take(i).any(|t| t.lock_id == lock_id);
                    if conflict {
                        continue;
                    }
                    let gen =
                        match self
                            .locks
                            .wr_lock(&mut self.transport, ctx, lock_id, self.owner)
                        {
                            Ok(g) => g,
                            Err(_) => return,
                        };
                    let tx = &mut self.active[i];
                    tx.phase = Phase::Locking;
                    tx.waiting = vec![gen];
                    self.gen_to_tx.insert(gen, tx.tx_seq);
                }
                Phase::NeedAppend => {
                    // Journal order: appends must issue in tx order. The
                    // full pipeline serializes on the head; append-only mode
                    // lets a tx append once every earlier tx has issued its.
                    let order_ok = match self.mode {
                        WriteMode::FullPipeline => i == 0,
                        WriteMode::AppendOnly => self
                            .active
                            .iter()
                            .take(i)
                            .all(|t| matches!(t.phase, Phase::Appending)),
                    };
                    if !order_ok {
                        continue;
                    }
                    if !self.transport.can_issue() {
                        return;
                    }
                    let doc = self.active[i].doc.clone();
                    let mut slot_bytes = (doc.encoded_len() as u32).to_le_bytes().to_vec();
                    slot_bytes.extend_from_slice(&doc.encode());
                    let entries = vec![LogEntry {
                        offset: doc.id * self.config.slot_size(),
                        data: slot_bytes,
                    }];
                    let receipt = match self.wal.append(&mut self.transport, ctx, entries) {
                        Ok(r) => r,
                        Err(_) => return, // ring or window full: retry later
                    };
                    let tx = &mut self.active[i];
                    tx.phase = Phase::Appending;
                    tx.waiting = receipt.gens.clone();
                    for g in receipt.gens {
                        self.gen_to_tx.insert(g, tx.tx_seq);
                    }
                }
                Phase::NeedExecute => {
                    if i != 0 {
                        continue;
                    }
                    let receipt = match self.wal.execute_and_advance(&mut self.transport, ctx) {
                        Ok(Some(r)) => r,
                        Ok(None) => return,
                        Err(_) => return,
                    };
                    let tx = &mut self.active[i];
                    tx.phase = Phase::Executing;
                    tx.waiting = receipt.gens.clone();
                    for g in receipt.gens {
                        self.gen_to_tx.insert(g, tx.tx_seq);
                    }
                }
                Phase::NeedUnlock => {
                    if !self.transport.can_issue() {
                        return;
                    }
                    let lock_id = self.active[i].lock_id;
                    let gen =
                        match self
                            .locks
                            .wr_unlock(&mut self.transport, ctx, lock_id, self.owner)
                        {
                            Ok(g) => g,
                            Err(_) => return,
                        };
                    let tx = &mut self.active[i];
                    tx.phase = Phase::Unlocking;
                    tx.waiting = vec![gen];
                    self.gen_to_tx.insert(gen, tx.tx_seq);
                }
                _ => {}
            }
        }
    }

    /// Processes transport acks, advances transactions, and returns the
    /// ones that fully committed.
    pub fn poll(&mut self, ctx: &mut NicCtx<'_>) -> Vec<CompletedTx> {
        let acks = self.transport.poll(ctx);
        for ack in acks {
            let Some(tx_seq) = self.gen_to_tx.remove(&ack.gen) else {
                continue;
            };
            let Some(pos) = self.active.iter().position(|t| t.tx_seq == tx_seq) else {
                continue;
            };
            let tx = &mut self.active[pos];
            tx.waiting.retain(|&g| g != ack.gen);
            if !tx.waiting.is_empty() {
                continue;
            }
            tx.phase = match tx.phase {
                Phase::Locking => {
                    match self.locks.interpret_wr_lock(&ack, tx.lock_id, self.owner) {
                        WrLockOutcome::Acquired => Phase::NeedAppend,
                        // Single front end: contention means an earlier tx
                        // still holds the word; retry.
                        _ => {
                            self.lock_retries += 1;
                            Phase::NeedLock
                        }
                    }
                }
                Phase::Appending => match self.mode {
                    WriteMode::FullPipeline => Phase::NeedExecute,
                    WriteMode::AppendOnly => {
                        let done = CompletedTx {
                            tx_seq: tx.tx_seq,
                            doc_id: tx.doc.id,
                            started: tx.started,
                            finished: ctx.now,
                        };
                        self.completed.push(done);
                        self.active.remove(pos);
                        continue;
                    }
                },
                Phase::Executing => Phase::NeedUnlock,
                Phase::Unlocking => {
                    let done = CompletedTx {
                        tx_seq: tx.tx_seq,
                        doc_id: tx.doc.id,
                        started: tx.started,
                        finished: ctx.now,
                    };
                    self.completed.push(done);
                    self.active.remove(pos);
                    continue;
                }
                p => p,
            };
        }
        self.pump(ctx);
        std::mem::take(&mut self.completed)
    }

    /// Reads one document from a replica's durable database region (what a
    /// consistent replica read returns after commitment).
    pub fn replica_read(
        &self,
        fab: &mut RdmaFabric,
        replica_node: netsim::NodeId,
        shared_base: u64,
        id: u64,
    ) -> Option<Document> {
        let slot = self.wal.layout().db_offset + id * self.config.slot_size();
        let raw = fab
            .mem(replica_node)
            .read_vec(shared_base + slot, self.config.slot_size())
            .ok()?;
        let len = u32::from_le_bytes(raw[..4].try_into().ok()?) as usize;
        if len == 0 || len > self.config.max_doc as usize {
            return None;
        }
        Document::decode(&raw[4..4 + len])
    }

    /// Crash recovery from one replica's durable bytes: database region plus
    /// journal replay (flush-the-log-and-rejoin, paper §5.2).
    pub fn recover_state(
        &self,
        fab: &mut RdmaFabric,
        replica_node: netsim::NodeId,
        shared_base: u64,
    ) -> BTreeMap<u64, Document> {
        let layout = *self.wal.layout();
        let slot_size = self.config.slot_size();
        let db = fab
            .mem(replica_node)
            .read_durable_vec(
                shared_base + layout.db_offset,
                self.config.capacity * slot_size,
            )
            .expect("db region in bounds");
        let mut state = BTreeMap::new();
        for id in 0..self.config.capacity {
            let base = (id * slot_size) as usize;
            let len = u32::from_le_bytes(db[base..base + 4].try_into().expect("4 bytes")) as usize;
            if len > 0 && len <= self.config.max_doc as usize {
                if let Some(d) = Document::decode(&db[base + 4..base + 4 + len]) {
                    state.insert(id, d);
                }
            }
        }
        let head_raw = fab
            .mem(replica_node)
            .read_durable_vec(shared_base + layout.head_ptr_offset, 16)
            .expect("head ptr in bounds");
        let log = fab
            .mem(replica_node)
            .read_durable_vec(shared_base + layout.log_offset, layout.log_size)
            .expect("log region in bounds");
        for rec in recover_unapplied(&head_raw, &log) {
            for e in rec.entries {
                let id = e.offset / slot_size;
                let len = u32::from_le_bytes(e.data[..4].try_into().expect("4 bytes")) as usize;
                if len > 0 && len + 4 <= e.data.len() {
                    if let Some(d) = Document::decode(&e.data[4..4 + len]) {
                        state.insert(id, d);
                    }
                }
            }
        }
        state
    }
}
