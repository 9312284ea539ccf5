//! The replicated write-ahead log (paper §5: `Append`,
//! `ExecuteAndAdvance`).
//!
//! Transactions are redo records ([`walog::LogRecord`]). [`ReplicatedWal`]
//! lays a log ring, a database area and a head pointer inside the group's
//! shared region and drives them with group primitives:
//!
//! * [`ReplicatedWal::append`] — one gWRITE (+ interleaved gFLUSH) lands the
//!   encoded record in every replica's log, durably;
//! * [`ReplicatedWal::execute_and_advance`] — per record entry, a gMEMCPY
//!   (+ gFLUSH) makes every replica's NIC copy the entry bytes from its log
//!   into its database; then a gWRITE (+ gFLUSH) advances the group-wide
//!   head pointer, which is what makes the transaction's application
//!   atomic across crashes: a record is either fully applied (head past it)
//!   or will be re-applied from the log on recovery.
//!
//! No replica CPU touches any of this.

use crate::group::GroupError;
use crate::ops::GroupOp;
use crate::transport::GroupTransport;
use rnicsim::{NicCtx, Payload};
use std::collections::VecDeque;
use std::fmt;
use walog::{LogEntry, LogRecord, WalRing};

/// Where the WAL's pieces live inside the shared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalLayout {
    /// Start of the log ring.
    pub log_offset: u64,
    /// Bytes of log ring.
    pub log_size: u64,
    /// Start of the database area.
    pub db_offset: u64,
    /// Bytes of database area.
    pub db_size: u64,
    /// Offset of the 16-byte durable head pointer: ring head (u64) followed
    /// by the next unapplied transaction id (u64). The tx id lets recovery
    /// reject stale same-CRC records from previous ring laps.
    pub head_ptr_offset: u64,
}

impl WalLayout {
    /// A standard split of the first `shared_size` bytes: an 8-byte head
    /// pointer and lock words first, then `log_size` of ring, the rest
    /// database.
    ///
    /// # Panics
    ///
    /// Panics if the pieces do not fit.
    pub fn standard(shared_size: u64, log_size: u64, control_size: u64) -> Self {
        assert!(
            control_size >= 16,
            "control area too small for the head pointer"
        );
        assert!(
            control_size + log_size < shared_size,
            "log does not fit in the shared region"
        );
        WalLayout {
            head_ptr_offset: 0,
            log_offset: control_size,
            log_size,
            db_offset: control_size + log_size,
            db_size: shared_size - control_size - log_size,
        }
    }
}

/// Errors from the WAL data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The log ring is full; execute-and-advance (or truncate) first.
    LogFull,
    /// Not enough in-flight window for the operation; poll for acks first.
    WindowFull,
    /// A record entry's database offset is out of range.
    EntryOutOfDatabase,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::LogFull => f.write_str("log ring full"),
            WalError::WindowFull => f.write_str("in-flight window full"),
            WalError::EntryOutOfDatabase => f.write_str("entry offset outside database"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<GroupError> for WalError {
    fn from(e: GroupError) -> WalError {
        match e {
            GroupError::WindowFull => WalError::WindowFull,
            GroupError::OutOfRange => WalError::EntryOutOfDatabase,
        }
    }
}

#[derive(Debug)]
struct AppendedRecord {
    record: LogRecord,
    /// Physical offset of the record within the log region.
    log_off: u64,
    logical_end: u64,
}

/// Receipt of a WAL call: the transaction id plus the generations of the
/// group ops it issued (for latency accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReceipt {
    /// The transaction this receipt covers.
    pub tx_id: u64,
    /// Generations of the issued group operations, in order.
    pub gens: Vec<u64>,
}

/// The replicated write-ahead log driver (client side).
#[derive(Debug)]
pub struct ReplicatedWal {
    layout: WalLayout,
    ring: WalRing,
    next_tx: u64,
    queue: VecDeque<AppendedRecord>,
}

impl ReplicatedWal {
    /// Creates the driver over a [`WalLayout`].
    pub fn new(layout: WalLayout) -> Self {
        ReplicatedWal {
            layout,
            ring: WalRing::new(layout.log_size),
            next_tx: 0,
            queue: VecDeque::new(),
        }
    }

    /// The WAL layout.
    pub fn layout(&self) -> &WalLayout {
        &self.layout
    }

    /// Transactions appended but not yet executed.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Bytes a migration must copy to reproduce this WAL's durable state
    /// on a fresh chain: the control words, the whole log ring (live
    /// records sit at ring head..tail, which wraps — copying the ring in
    /// full keeps the transfer one contiguous prefix), and the database
    /// area. The shared region beyond `db_offset + db_size` is dead and
    /// skipped.
    pub fn copy_span(&self) -> u64 {
        self.layout.db_offset + self.layout.db_size
    }

    /// Appends a transaction: encodes the redo record and replicates it
    /// durably into every replica's log with one gWRITE+gFLUSH.
    ///
    /// # Errors
    ///
    /// [`WalError::LogFull`] if the ring has no room (execute first);
    /// [`WalError::WindowFull`] if the client cannot issue right now;
    /// [`WalError::EntryOutOfDatabase`] for entries beyond the database.
    pub fn append<T: GroupTransport>(
        &mut self,
        client: &mut T,
        ctx: &mut NicCtx<'_>,
        entries: Vec<LogEntry>,
    ) -> Result<WalReceipt, WalError> {
        self.append_opts(client, ctx, entries, true)
    }

    /// [`ReplicatedWal::append`] with an explicit durability choice:
    /// `flush = false` replicates without the interleaved gFLUSH — the
    /// paper's §7 RAMCloud-like semantics (faster; lost on power failure).
    ///
    /// # Errors
    ///
    /// As [`ReplicatedWal::append`].
    pub fn append_opts<T: GroupTransport>(
        &mut self,
        client: &mut T,
        ctx: &mut NicCtx<'_>,
        entries: Vec<LogEntry>,
        flush: bool,
    ) -> Result<WalReceipt, WalError> {
        for e in &entries {
            if e.offset + e.data.len() as u64 > self.layout.db_size {
                return Err(WalError::EntryOutOfDatabase);
            }
        }
        if !client.can_issue() {
            return Err(WalError::WindowFull);
        }
        let record = LogRecord {
            tx_id: self.next_tx,
            entries,
        };
        // The encoded record is wrapped (not copied) into a shared payload:
        // the issue path below is the only consumer, so the bytes are
        // produced exactly once.
        let bytes = Payload::from_vec(record.encode());
        let record_len = bytes.len() as u64;
        let Some(placement) = self.ring.reserve(record_len) else {
            return Err(WalError::LogFull);
        };
        let gen = client
            .issue(
                ctx,
                GroupOp::Write {
                    offset: self.layout.log_offset + placement.offset,
                    data: bytes,
                    flush,
                },
            )
            .expect("window and range pre-checked");
        let tx_id = record.tx_id;
        self.queue.push_back(AppendedRecord {
            record,
            log_off: placement.offset,
            logical_end: placement.logical + record_len,
        });
        self.next_tx += 1;
        Ok(WalReceipt {
            tx_id,
            gens: vec![gen],
        })
    }

    /// Executes the oldest appended transaction on every replica (gMEMCPY
    /// per entry) and advances the durable head pointer (gWRITE), all
    /// flushed. Returns `None` when there is nothing to execute.
    ///
    /// # Errors
    ///
    /// [`WalError::WindowFull`] if the record's ops do not fit in the
    /// remaining window (nothing is issued; retry after polling).
    pub fn execute_and_advance<T: GroupTransport>(
        &mut self,
        client: &mut T,
        ctx: &mut NicCtx<'_>,
    ) -> Result<Option<WalReceipt>, WalError> {
        let Some(rec) = self.queue.front() else {
            return Ok(None);
        };
        // All ops must fit the window together so the head-advance write
        // cannot be separated from its copies indefinitely.
        let needed = rec.record.entries.len() as u64 + 1;
        if client.in_flight() + needed > client.window() as u64 {
            return Err(WalError::WindowFull);
        }

        let rec = self.queue.pop_front().expect("checked above");
        let mut gens = Vec::with_capacity(needed as usize);
        let data_offsets = rec.record.entry_data_offsets();
        for (entry, doff) in rec.record.entries.iter().zip(data_offsets) {
            let src = self.layout.log_offset + rec.log_off + doff;
            let dst = self.layout.db_offset + entry.offset;
            let gen = client
                .issue(
                    ctx,
                    GroupOp::Memcpy {
                        src,
                        dst,
                        len: entry.data.len() as u64,
                        flush: true,
                    },
                )
                .expect("window pre-checked");
            gens.push(gen);
        }
        // Advance the durable head pointer (ring head + next tx) past this
        // record.
        self.ring.advance_head_to(rec.logical_end);
        let mut head_bytes = [0u8; 16];
        head_bytes[..8].copy_from_slice(&self.ring.head().to_le_bytes());
        head_bytes[8..].copy_from_slice(&(rec.record.tx_id + 1).to_le_bytes());
        let gen = client
            .issue(
                ctx,
                GroupOp::Write {
                    offset: self.layout.head_ptr_offset,
                    data: Payload::copy_from(&head_bytes),
                    flush: true,
                },
            )
            .expect("window pre-checked");
        gens.push(gen);
        Ok(Some(WalReceipt {
            tx_id: rec.record.tx_id,
            gens,
        }))
    }
}

/// Recovers the logically unapplied suffix of a WAL from raw durable bytes:
/// `head_ptr_bytes` are the 16 durable bytes at the head pointer, `log` is
/// the durable log region. Returns records in application order, rejecting
/// stale records left over from earlier ring laps (their tx ids break the
/// consecutive run starting at the stored next-tx).
pub fn recover_unapplied(head_ptr_bytes: &[u8], log: &[u8]) -> Vec<LogRecord> {
    assert!(head_ptr_bytes.len() >= 16, "need 16 head-pointer bytes");
    let head = u64::from_le_bytes(head_ptr_bytes[..8].try_into().expect("8 bytes"));
    let next_tx = u64::from_le_bytes(head_ptr_bytes[8..16].try_into().expect("8 bytes"));
    let head_phys = (head % log.len() as u64) as usize;
    let mut candidates = walog::scan(&log[head_phys..]);
    candidates.extend(walog::scan(&log[..head_phys]));
    let mut expected = next_tx;
    let mut kept = Vec::new();
    for rec in candidates {
        if rec.tx_id == expected {
            expected += 1;
            kept.push(rec);
        } else {
            break;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupConfig;
    use crate::group::HyperLoopGroup;
    use crate::harness::{drive, fabric_sim, FabricSim};
    use netsim::NodeId;
    use simcore::Simulation;
    use walog::scan;

    fn setup() -> (Simulation<FabricSim>, HyperLoopGroup, ReplicatedWal) {
        let mut sim = fabric_sim(4, 64 << 20, 5);
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        let cfg = GroupConfig::default();
        let group = drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, NodeId(0), &nodes, cfg)
        });
        sim.run();
        let layout = WalLayout::standard(cfg.shared_size, 1 << 20, 4096);
        (sim, group, ReplicatedWal::new(layout))
    }

    fn settle(sim: &mut Simulation<FabricSim>, group: &mut HyperLoopGroup) -> usize {
        sim.run();
        let acks = drive(sim, |ctx| group.client.poll(ctx));
        assert_eq!(sim.model.fab.stats().errors, 0);
        acks.len()
    }

    #[test]
    fn append_then_execute_applies_to_every_replica_db() {
        let (mut sim, mut group, mut wal) = setup();
        let shared = group.client.layout().shared_base;
        let receipt = drive(&mut sim, |ctx| {
            wal.append(
                &mut group.client,
                ctx,
                vec![
                    LogEntry {
                        offset: 100,
                        data: b"value-A".to_vec(),
                    },
                    LogEntry {
                        offset: 9000,
                        data: b"value-B".to_vec(),
                    },
                ],
            )
            .unwrap()
        });
        assert_eq!(receipt.tx_id, 0);
        settle(&mut sim, &mut group);

        let exec = drive(&mut sim, |ctx| {
            wal.execute_and_advance(&mut group.client, ctx)
                .unwrap()
                .expect("one record queued")
        });
        assert_eq!(exec.gens.len(), 3, "two memcpys + one head write");
        settle(&mut sim, &mut group);

        let db = wal.layout().db_offset;
        for n in [NodeId(1), NodeId(2), NodeId(3)] {
            assert_eq!(
                sim.model.fab.mem(n).read_vec(shared + db + 100, 7).unwrap(),
                b"value-A"
            );
            assert_eq!(
                sim.model
                    .fab
                    .mem(n)
                    .read_vec(shared + db + 9000, 7)
                    .unwrap(),
                b"value-B"
            );
            assert!(sim
                .model
                .fab
                .mem(n)
                .is_durable(shared + db + 100, 7)
                .unwrap());
            // Head pointer advanced and durable.
            let head_bytes = sim
                .model
                .fab
                .mem(n)
                .read_vec(shared + wal.layout().head_ptr_offset, 8)
                .unwrap();
            assert!(u64::from_le_bytes(head_bytes.try_into().unwrap()) > 0);
        }
    }

    #[test]
    fn log_contents_survive_power_failure_for_recovery_scan() {
        let (mut sim, mut group, mut wal) = setup();
        let shared = group.client.layout().shared_base;
        for i in 0..3u64 {
            drive(&mut sim, |ctx| {
                wal.append(
                    &mut group.client,
                    ctx,
                    vec![LogEntry {
                        offset: i * 64,
                        data: vec![i as u8 + 1; 32],
                    }],
                )
                .unwrap()
            });
            settle(&mut sim, &mut group);
        }
        // Crash a replica; the appended (flushed) records must be scannable.
        sim.model.fab.mem(NodeId(2)).power_failure();
        let log_bytes = sim
            .model
            .fab
            .mem(NodeId(2))
            .read_vec(shared + wal.layout().log_offset, 64 * 1024)
            .unwrap();
        let recovered = scan(&log_bytes);
        assert_eq!(recovered.len(), 3);
        for (i, r) in recovered.iter().enumerate() {
            assert_eq!(r.tx_id, i as u64);
            assert_eq!(r.entries[0].data, vec![i as u8 + 1; 32]);
        }
    }

    #[test]
    fn execute_on_empty_backlog_is_none() {
        let (mut sim, mut group, mut wal) = setup();
        let r = drive(&mut sim, |ctx| {
            wal.execute_and_advance(&mut group.client, ctx).unwrap()
        });
        assert!(r.is_none());
    }

    #[test]
    fn oversized_entry_rejected() {
        let (mut sim, mut group, mut wal) = setup();
        let db_size = wal.layout().db_size;
        let err = drive(&mut sim, |ctx| {
            wal.append(
                &mut group.client,
                ctx,
                vec![LogEntry {
                    offset: db_size - 4,
                    data: vec![0; 8],
                }],
            )
            .unwrap_err()
        });
        assert_eq!(err, WalError::EntryOutOfDatabase);
    }

    #[test]
    fn many_transactions_wrap_the_ring() {
        let (mut sim, mut group, mut wal) = setup();
        // Each record ~ 24 + 12 + 2048 bytes; 1 MiB ring wraps after ~500.
        for i in 0..600u64 {
            drive(&mut sim, |ctx| {
                wal.append(
                    &mut group.client,
                    ctx,
                    vec![LogEntry {
                        offset: (i % 64) * 2048,
                        data: vec![i as u8; 2048],
                    }],
                )
                .unwrap()
            });
            settle(&mut sim, &mut group);
            drive(&mut sim, |ctx| {
                wal.execute_and_advance(&mut group.client, ctx)
                    .unwrap()
                    .expect("record queued")
            });
            settle(&mut sim, &mut group);
            // Maintain replica descriptor rings (off the critical path).
            drive(&mut sim, |ctx| {
                for r in &mut group.replicas {
                    r.replenish(ctx, 3);
                }
            });
        }
        let shared = group.client.layout().shared_base;
        let db = wal.layout().db_offset;
        // Last value applied correctly despite hundreds of wraps.
        let expect = vec![599u64 as u8; 2048];
        let val = sim
            .model
            .fab
            .mem(NodeId(3))
            .read_vec(shared + db + (599 % 64) * 2048, 2048)
            .unwrap();
        assert_eq!(val, expect);
        assert_eq!(sim.model.fab.stats().errors, 0);
    }

    #[test]
    fn log_full_reported_when_not_executing() {
        let (mut sim, mut group, _) = setup();
        // Tiny ring to hit LogFull quickly.
        let layout = WalLayout {
            log_offset: 4096,
            log_size: 512,
            db_offset: 1 << 20,
            db_size: 1 << 20,
            head_ptr_offset: 0,
        };
        let mut wal = ReplicatedWal::new(layout);
        let mut filled = false;
        for _ in 0..10 {
            let r = drive(&mut sim, |ctx| {
                wal.append(
                    &mut group.client,
                    ctx,
                    vec![LogEntry {
                        offset: 0,
                        data: vec![1; 100],
                    }],
                )
            });
            settle(&mut sim, &mut group);
            if r == Err(WalError::LogFull) {
                filled = true;
                break;
            }
        }
        assert!(filled, "ring never filled");
    }
}
