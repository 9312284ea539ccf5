//! Identifiers, NIC timing constants, work queue elements and completion
//! formats.

use crate::payload::Payload;
use netsim::NodeId;
use simcore::SimDuration;
use std::fmt;

/// Identifies a queue pair on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpId(pub u32);

impl fmt::Display for QpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// Identifies a completion queue on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CqId(pub u32);

impl fmt::Display for CqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cq{}", self.0)
    }
}

/// Identifies a registered memory region on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrId(pub u32);

/// PCIe fetch of one 64-byte descriptor from host memory.
pub const WQE_FETCH: SimDuration = SimDuration::from_nanos(250);

/// Fixed per-WQE execution overhead in the NIC pipeline.
pub const ISSUE_OVERHEAD: SimDuration = SimDuration::from_nanos(150);

/// DMA bandwidth between the NIC and host memory, bits per second.
pub const DMA_BANDWIDTH_BPS: u64 = 100_000_000_000;

/// Extra latency of an atomic compare-and-swap at the responder.
pub const CAS_LATENCY: SimDuration = SimDuration::from_nanos(150);

/// Base cost of flushing the NIC's volatile cache to the durable medium.
pub const FLUSH_BASE: SimDuration = SimDuration::from_nanos(400);

/// Cost of evaluating a satisfied WAIT and enabling its successors.
pub const WAIT_PROCESS: SimDuration = SimDuration::from_nanos(100);

/// Requests a QP keeps in flight before its engine stalls.
pub const MAX_INFLIGHT: u32 = 32;

/// DMA transfer time for `bytes` between the NIC and host memory.
pub(crate) fn dma(bytes: u64) -> SimDuration {
    SimDuration::from_nanos(bytes * 8 * 1_000_000_000 / DMA_BANDWIDTH_BPS)
}

/// Verb opcodes, mirroring `ibv_wr_opcode` plus the CORE-Direct `WAIT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Two-sided send: consumes a RECV at the peer.
    Send = 0,
    /// One-sided write into the peer's registered memory.
    Write = 1,
    /// One-sided write that also consumes a RECV and delivers an immediate.
    WriteImm = 2,
    /// One-sided read from the peer's registered memory. A 0-byte read
    /// flushes the peer NIC's volatile cache (the paper's `gFLUSH`).
    Read = 3,
    /// 8-byte remote compare-and-swap; the original value lands in the
    /// local buffer.
    CompareSwap = 4,
    /// CORE-Direct: block this send queue until a watched CQ accumulates N
    /// completions, then enable the following WQEs.
    Wait = 5,
    /// Completes without doing anything (a disabled `gCAS` leg becomes this).
    Nop = 6,
}

impl Opcode {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b {
            0 => Opcode::Send,
            1 => Opcode::Write,
            2 => Opcode::WriteImm,
            3 => Opcode::Read,
            4 => Opcode::CompareSwap,
            5 => Opcode::Wait,
            6 => Opcode::Nop,
            _ => return None,
        })
    }
}

/// WQE flag bits (the `flags` byte of the serialized descriptor).
pub mod wqe_flags {
    /// The NIC owns this WQE and may execute it. HyperLoop's modified driver
    /// posts descriptors *without* this bit so a remote client (or a WAIT)
    /// can set it later.
    pub const HW_OWNED: u8 = 1 << 0;
    /// Generate a CQE on the send CQ when this WQE completes.
    pub const SIGNALED: u8 = 1 << 1;
    /// Do not start until all outstanding READ/atomic responses arrived.
    pub const FENCE: u8 = 1 << 2;
    /// The real descriptor is a 64-byte image fetched from host memory at
    /// `local_addr` at execution time. This is how the model realizes
    /// HyperLoop's remote work-request manipulation: the image lives in an
    /// RDMA-writable metadata region that upstream nodes rewrite.
    pub const INDIRECT: u8 = 1 << 3;
}

/// Size of a serialized WQE in the send-queue ring.
pub const WQE_SIZE: u64 = 64;

/// Send-queue ring capacity of every QP, in WQE slots. A power of two, so
/// a monotone slot counter finds its ring slot with a mask.
pub const SQ_SLOTS: u64 = 4096;
const _: () = assert!(SQ_SLOTS.is_power_of_two());

/// A send-side work queue element.
///
/// Serialized into 64 bytes of registered host memory, so other NICs can
/// rewrite descriptors with plain RDMA WRITEs — the mechanism behind
/// HyperLoop's group primitives.
///
/// Layout:
///
/// | bytes | field |
/// |---|---|
/// | 0 | opcode |
/// | 1 | flags |
/// | 2..4 | reserved |
/// | 4..8 | enable_count (WAIT) |
/// | 8..16 | local_addr |
/// | 16..24 | len |
/// | 24..32 | remote_addr |
/// | 32..40 | compare / immediate |
/// | 40..48 | swap |
/// | 48..52 | wait_cq (WAIT) |
/// | 52..56 | wait_count (WAIT) |
/// | 56..64 | wr_id |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wqe {
    /// What to execute.
    pub opcode: Opcode,
    /// See [`wqe_flags`].
    pub flags: u8,
    /// WAIT: how many following WQEs to hand to the NIC when triggered.
    pub enable_count: u32,
    /// Gather address (or indirect-image address when `INDIRECT` is set).
    pub local_addr: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Target address in the peer's memory (one-sided verbs).
    pub remote_addr: u64,
    /// CAS compare value, or the immediate for `WriteImm`.
    pub compare_or_imm: u64,
    /// CAS swap value.
    pub swap: u64,
    /// WAIT: which local CQ to watch.
    pub wait_cq: u32,
    /// WAIT: how many completions to consume before triggering.
    pub wait_count: u32,
    /// Caller cookie, reported in the completion.
    pub wr_id: u64,
}

impl Default for Wqe {
    fn default() -> Self {
        Wqe {
            opcode: Opcode::Nop,
            flags: wqe_flags::HW_OWNED,
            enable_count: 0,
            local_addr: 0,
            len: 0,
            remote_addr: 0,
            compare_or_imm: 0,
            swap: 0,
            wait_cq: 0,
            wait_count: 0,
            wr_id: 0,
        }
    }
}

impl Wqe {
    /// Serializes into the 64-byte ring format.
    pub fn encode(&self) -> [u8; WQE_SIZE as usize] {
        let mut b = [0u8; WQE_SIZE as usize];
        self.encode_into(&mut b);
        b
    }

    /// Serializes into the 64-byte ring format in place, writing every
    /// byte of `b` (the reserved ones as zero): the same bytes
    /// [`Wqe::encode`] returns.
    #[inline]
    pub fn encode_into(&self, b: &mut [u8; WQE_SIZE as usize]) {
        b[0] = self.opcode as u8;
        b[1] = self.flags;
        b[2..4].fill(0);
        b[4..8].copy_from_slice(&self.enable_count.to_le_bytes());
        b[8..16].copy_from_slice(&self.local_addr.to_le_bytes());
        b[16..24].copy_from_slice(&self.len.to_le_bytes());
        b[24..32].copy_from_slice(&self.remote_addr.to_le_bytes());
        b[32..40].copy_from_slice(&self.compare_or_imm.to_le_bytes());
        b[40..48].copy_from_slice(&self.swap.to_le_bytes());
        b[48..52].copy_from_slice(&self.wait_cq.to_le_bytes());
        b[52..56].copy_from_slice(&self.wait_count.to_le_bytes());
        b[56..64].copy_from_slice(&self.wr_id.to_le_bytes());
    }

    /// Parses the 64-byte ring format.
    ///
    /// # Errors
    ///
    /// Returns `None` on an unknown opcode byte (a corrupted descriptor).
    pub fn decode(b: &[u8; WQE_SIZE as usize]) -> Option<Wqe> {
        let u32le = |r: std::ops::Range<usize>| u32::from_le_bytes(b[r].try_into().unwrap());
        let u64le = |r: std::ops::Range<usize>| u64::from_le_bytes(b[r].try_into().unwrap());
        Some(Wqe {
            opcode: Opcode::from_u8(b[0])?,
            flags: b[1],
            enable_count: u32le(4..8),
            local_addr: u64le(8..16),
            len: u64le(16..24),
            remote_addr: u64le(24..32),
            compare_or_imm: u64le(32..40),
            swap: u64le(40..48),
            wait_cq: u32le(48..52),
            wait_count: u32le(52..56),
            wr_id: u64le(56..64),
        })
    }

    /// True if the NIC owns this descriptor.
    pub fn is_owned(&self) -> bool {
        self.flags & wqe_flags::HW_OWNED != 0
    }

    /// True if completion should raise a CQE.
    pub fn is_signaled(&self) -> bool {
        self.flags & wqe_flags::SIGNALED != 0
    }

    /// True if this WQE must wait for outstanding reads/atomics.
    pub fn is_fenced(&self) -> bool {
        self.flags & wqe_flags::FENCE != 0
    }

    /// True if the effective descriptor is fetched from host memory.
    pub fn is_indirect(&self) -> bool {
        self.flags & wqe_flags::INDIRECT != 0
    }
}

/// A receive-side work queue element. Posted by the host at setup time (the
/// control path), so it keeps a rich scatter list rather than a byte format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvWqe {
    /// Caller cookie, reported in the completion.
    pub wr_id: u64,
    /// Scatter list: incoming payload fills these `(addr, len)` windows in
    /// order. Pointing an entry at a metadata region (or at send-queue
    /// slots) is what lets an incoming SEND rewrite pre-posted descriptors.
    pub sges: Vec<(u64, u32)>,
}

/// Completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeStatus {
    /// The operation completed.
    Success,
    /// The remote address range was not covered by a registered MR.
    RemoteAccessError,
    /// A local gather/scatter address was out of range.
    LocalAccessError,
    /// The remote CAS target was not 8-byte aligned.
    MisalignedAtomic,
}

/// A completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// Queue pair the completion belongs to.
    pub qp: QpId,
    /// Cookie from the originating WQE.
    pub wr_id: u64,
    /// The completed verb.
    pub opcode: Opcode,
    /// Outcome.
    pub status: CqeStatus,
    /// Bytes moved (receive completions: payload length).
    pub byte_len: u64,
    /// Immediate data (`WriteImm`/`Send` with immediate), if any.
    pub imm: Option<u64>,
}

/// Wire messages between NICs. Internal to the fabric model, public for
/// tests and instrumentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Two-sided send payload.
    Send {
        /// Payload bytes (pooled, shared by reference along the chain).
        payload: Payload,
        /// Optional immediate.
        imm: Option<u64>,
        /// Request sequence for the ack.
        seq: u64,
    },
    /// One-sided write.
    Write {
        /// Destination address at the responder.
        remote_addr: u64,
        /// Payload bytes (pooled, shared by reference along the chain).
        payload: Payload,
        /// Immediate: also consume a RECV and deliver a completion.
        imm: Option<u64>,
        /// Request sequence for the ack.
        seq: u64,
    },
    /// One-sided read request.
    ReadReq {
        /// Source address at the responder.
        remote_addr: u64,
        /// Bytes to read (0 = pure flush).
        len: u64,
        /// Request sequence for the response.
        seq: u64,
    },
    /// Atomic compare-and-swap request.
    CasReq {
        /// Target address (8 bytes) at the responder.
        remote_addr: u64,
        /// Expected value.
        compare: u64,
        /// Replacement value.
        swap: u64,
        /// Request sequence for the response.
        seq: u64,
    },
    /// Acknowledgement of a `Send`/`Write`.
    Ack {
        /// Sequence being acknowledged.
        seq: u64,
        /// Outcome at the responder.
        status: CqeStatus,
    },
    /// Response to a `ReadReq`.
    ReadResp {
        /// Sequence being answered.
        seq: u64,
        /// The data read (empty for a flush).
        payload: Payload,
        /// Outcome at the responder.
        status: CqeStatus,
    },
    /// Response to a `CasReq`.
    CasResp {
        /// Sequence being answered.
        seq: u64,
        /// Value found at the target before the operation.
        original: u64,
        /// Outcome at the responder.
        status: CqeStatus,
    },
}

impl Message {
    /// Approximate wire size: payload plus a 64-byte header.
    pub fn wire_bytes(&self) -> u64 {
        64 + match self {
            Message::Send { payload, .. }
            | Message::Write { payload, .. }
            | Message::ReadResp { payload, .. } => payload.len() as u64,
            _ => 0,
        }
    }
}

/// Internal fabric events; the embedder schedules them on its global queue
/// and routes them back into `RdmaFabric::handle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicEvent {
    /// The send-queue engine of a QP should examine its head.
    EngineRun {
        /// Node owning the QP.
        node: NodeId,
        /// The queue pair.
        qp: QpId,
    },
    /// A wire message arrives at a node's NIC for a QP.
    Deliver {
        /// Destination node.
        node: NodeId,
        /// Destination queue pair.
        qp: QpId,
        /// The message.
        msg: Message,
    },
}

/// Effects the fabric hands back to the embedder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicEffect {
    /// Schedule this internal event after the attached delay.
    Internal(NicEvent),
    /// A CQE arrived on an armed CQ: the host should be interrupted.
    HostNotify {
        /// Node whose CQ fired.
        node: NodeId,
        /// The CQ.
        cq: CqId,
    },
}

/// Cumulative fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// WQEs executed by all NIC engines.
    pub wqes_executed: u64,
    /// WAIT triggers fired.
    pub waits_triggered: u64,
    /// NIC-cache flushes performed by incoming reads.
    pub nic_flushes: u64,
    /// Completions with error status.
    pub errors: u64,
}

impl FabricStats {
    /// Snapshots every counter into `reg` under a dotted `prefix`.
    pub fn export_into(&self, reg: &mut simcore::MetricsRegistry, prefix: &str) {
        reg.counter_set(&format!("{prefix}.wqes_executed"), self.wqes_executed);
        reg.counter_set(&format!("{prefix}.waits_triggered"), self.waits_triggered);
        reg.counter_set(&format!("{prefix}.nic_flushes"), self.nic_flushes);
        reg.counter_set(&format!("{prefix}.errors"), self.errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wqe_round_trips() {
        let w = Wqe {
            opcode: Opcode::CompareSwap,
            flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED | wqe_flags::FENCE,
            enable_count: 3,
            local_addr: 0xDEAD_BEEF,
            len: 4096,
            remote_addr: 0xFEED_F00D,
            compare_or_imm: 7,
            swap: 9,
            wait_cq: 2,
            wait_count: 5,
            wr_id: 0x1234_5678_9ABC_DEF0,
        };
        let bytes = w.encode();
        assert_eq!(Wqe::decode(&bytes), Some(w));
    }

    #[test]
    fn flag_helpers() {
        let mut w = Wqe::default();
        assert!(w.is_owned());
        assert!(!w.is_signaled());
        w.flags = wqe_flags::SIGNALED | wqe_flags::INDIRECT;
        assert!(!w.is_owned());
        assert!(w.is_signaled());
        assert!(w.is_indirect());
        assert!(!w.is_fenced());
    }

    #[test]
    fn corrupted_opcode_decodes_to_none() {
        let mut bytes = Wqe::default().encode();
        bytes[0] = 200;
        assert_eq!(Wqe::decode(&bytes), None);
    }

    #[test]
    fn every_opcode_round_trips() {
        for op in [
            Opcode::Send,
            Opcode::Write,
            Opcode::WriteImm,
            Opcode::Read,
            Opcode::CompareSwap,
            Opcode::Wait,
            Opcode::Nop,
        ] {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
        assert_eq!(Opcode::from_u8(7), None);
    }

    #[test]
    fn wire_size_includes_payload() {
        let m = Message::Write {
            remote_addr: 0,
            payload: Payload::copy_from(&[0; 1000]),
            imm: None,
            seq: 1,
        };
        assert_eq!(m.wire_bytes(), 1064);
        let a = Message::Ack {
            seq: 1,
            status: CqeStatus::Success,
        };
        assert_eq!(a.wire_bytes(), 64);
    }

    #[test]
    fn dma_cost_scales() {
        assert_eq!(dma(0), SimDuration::ZERO);
        // 100 Gbps = 12.5 bytes/ns -> 12500 bytes take 1000 ns.
        assert_eq!(dma(12_500), SimDuration::from_nanos(1000));
    }

    mod randomized {
        use super::*;
        use simcore::SimRng;

        #[test]
        fn wqe_encode_decode_round_trip() {
            let mut rng = SimRng::new(0x3E57);
            for _ in 0..256 {
                let w = Wqe {
                    opcode: Opcode::from_u8((rng.next_u64() % 7) as u8).unwrap(),
                    flags: rng.next_u64() as u8,
                    enable_count: rng.next_u64() as u32,
                    local_addr: rng.next_u64(),
                    len: rng.next_u64(),
                    remote_addr: rng.next_u64(),
                    compare_or_imm: rng.next_u64(),
                    swap: rng.next_u64(),
                    wait_cq: rng.next_u64() as u32,
                    wait_count: rng.next_u64() as u32,
                    wr_id: rng.next_u64(),
                };
                assert_eq!(Wqe::decode(&w.encode()), Some(w));
                // In place over a stale slot: every byte is rewritten,
                // the reserved ones included.
                let mut slot = [0u8; WQE_SIZE as usize];
                rng.fill_bytes(&mut slot);
                w.encode_into(&mut slot);
                assert_eq!(slot, w.encode());
            }
        }
    }
}
