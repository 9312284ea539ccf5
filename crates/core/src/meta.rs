//! Building the metadata payload: per-replica work-request images.
//!
//! The client pre-computes, for every replica in the chain, the five
//! descriptor images that replica's NIC will fetch and execute (paper §4.1,
//! *remote work request manipulation*). The payload layout is:
//!
//! ```text
//! [ block_0 | block_1 | ... | block_{n-1} | result_map ]
//! block_i := img0 img1 img2 img3 img4          (5 × 64 B)
//!   img0: loopback primary   — CAS / local memcpy WRITE / NOP
//!   img1: loopback secondary — local flush READ / NOP  (SIGNALED+FENCE)
//!   img2: forward data       — WRITE to next hop / NOP
//!   img3: forward flush      — 0-byte READ to next hop / NOP
//!   img4: forward metadata   — SEND to next hop, or the ack WRITE_IMM to
//!                              the client on the last replica (FENCE)
//! result_map := n × u64, replica i's CAS original lands in word i
//! ```
//!
//! The same bytes travel down the whole chain (each hop's RECV scatters
//! them into its metadata slot); replica `i`'s pre-posted INDIRECT WQEs
//! point at block `i`, so per-replica behaviour (the gCAS execute map, the
//! last hop's ack) is encoded spatially.

use crate::config::SharedLayout;
use crate::ops::GroupOp;
#[cfg(test)]
use rnicsim::WQE_SIZE;
use rnicsim::{wqe_flags, Opcode, Wqe};

/// Bytes of the metadata payload actually transmitted per hop.
pub fn payload_len(layout: &SharedLayout) -> u64 {
    layout.result_map_offset() + layout.result_map_len()
}

/// Builds the five images for replica `idx`.
///
/// `ack_addr` is the client-space address the last replica's WRITE_IMM
/// targets; `gen` becomes the immediate so the client can match the ack.
pub fn build_block(
    op: &GroupOp,
    layout: &SharedLayout,
    idx: u32,
    gen: u64,
    ack_addr: u64,
) -> [Wqe; 5] {
    let base = layout.shared_base;
    let is_last = idx + 1 == layout.group_size;
    let owned = wqe_flags::HW_OWNED;

    let nop = Wqe {
        opcode: Opcode::Nop,
        flags: owned,
        ..Wqe::default()
    };

    // img0: loopback primary operation.
    let img0 = match op {
        GroupOp::Cas {
            offset,
            compare,
            swap,
            execute,
        } if execute.contains(idx) => Wqe {
            opcode: Opcode::CompareSwap,
            flags: owned,
            local_addr: layout.result_word_addr(gen, idx),
            remote_addr: base + offset,
            compare_or_imm: *compare,
            swap: *swap,
            wr_id: gen,
            ..Wqe::default()
        },
        GroupOp::Memcpy { src, dst, len, .. } => Wqe {
            opcode: Opcode::Write,
            flags: owned,
            local_addr: base + src,
            len: *len,
            remote_addr: base + dst,
            wr_id: gen,
            ..Wqe::default()
        },
        _ => nop,
    };

    // img1: loopback secondary — the completion that triggers forwarding.
    // FENCE makes it wait for the CAS response; SIGNALED feeds the WAIT.
    let img1 = match op {
        GroupOp::Memcpy {
            dst, flush: true, ..
        } => Wqe {
            opcode: Opcode::Read,
            flags: owned | wqe_flags::SIGNALED | wqe_flags::FENCE,
            local_addr: base,
            len: 0,
            remote_addr: base + dst,
            wr_id: gen,
            ..Wqe::default()
        },
        _ => Wqe {
            opcode: Opcode::Nop,
            flags: owned | wqe_flags::SIGNALED | wqe_flags::FENCE,
            wr_id: gen,
            ..Wqe::default()
        },
    };

    // img2: forward the data to the next hop (gWRITE only).
    let img2 = match op {
        GroupOp::Write { offset, data, .. } if !is_last => Wqe {
            opcode: Opcode::Write,
            flags: owned,
            local_addr: base + offset,
            len: data.len() as u64,
            remote_addr: base + offset,
            wr_id: gen,
            ..Wqe::default()
        },
        _ => nop,
    };

    // img3: flush the next hop's NIC cache (0-byte READ).
    let wants_forward_flush = match op {
        GroupOp::Write { flush, .. } => *flush,
        GroupOp::Flush { .. } => true,
        _ => false,
    };
    let flush_target = match op {
        GroupOp::Write { offset, .. } | GroupOp::Flush { offset } => *offset,
        _ => 0,
    };
    let img3 = if wants_forward_flush && !is_last {
        Wqe {
            opcode: Opcode::Read,
            flags: owned,
            local_addr: base,
            len: 0,
            remote_addr: base + flush_target,
            wr_id: gen,
            ..Wqe::default()
        }
    } else {
        nop
    };

    // img4: forward the metadata, or ack the client from the last hop.
    let img4 = if is_last {
        Wqe {
            opcode: Opcode::WriteImm,
            flags: owned | wqe_flags::FENCE,
            local_addr: layout.meta_slot(gen) + layout.result_map_offset(),
            len: layout.result_map_len(),
            remote_addr: ack_addr,
            compare_or_imm: gen,
            wr_id: gen,
            ..Wqe::default()
        }
    } else {
        Wqe {
            opcode: Opcode::Send,
            flags: owned | wqe_flags::FENCE,
            local_addr: layout.meta_slot(gen),
            len: payload_len(layout),
            wr_id: gen,
            ..Wqe::default()
        }
    };

    [img0, img1, img2, img3, img4]
}

/// Serializes the whole payload: every replica's block plus a zeroed result
/// map.
pub fn build_payload(op: &GroupOp, layout: &SharedLayout, gen: u64, ack_addr: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    build_payload_into(op, layout, gen, ack_addr, &mut buf);
    buf
}

/// [`build_payload`] into a caller-provided buffer (cleared first), so an
/// issue loop reuses one staging buffer instead of allocating per op.
pub fn build_payload_into(
    op: &GroupOp,
    layout: &SharedLayout,
    gen: u64,
    ack_addr: u64,
    buf: &mut Vec<u8>,
) {
    buf.clear();
    buf.reserve(payload_len(layout) as usize);
    for idx in 0..layout.group_size {
        for img in build_block(op, layout, idx, gen, ack_addr) {
            buf.extend_from_slice(&img.encode());
        }
    }
    buf.resize(payload_len(layout) as usize, 0); // zeroed result map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ExecuteMap;
    use rnicsim::Payload;

    fn layout() -> SharedLayout {
        SharedLayout {
            shared_base: 4096,
            shared_size: 1 << 20,
            meta_base: 2 << 20,
            meta_slot_size: SharedLayout::slot_size_for(3),
            group_size: 3,
        }
    }

    #[test]
    fn payload_length_matches_layout() {
        let l = layout();
        let op = GroupOp::Flush { offset: 0 };
        let p = build_payload(&op, &l, 9, 0xA000);
        assert_eq!(p.len() as u64, payload_len(&l));
        assert_eq!(p.len(), 3 * 5 * WQE_SIZE as usize + 3 * 8);
    }

    #[test]
    fn gwrite_blocks_forward_data_except_last() {
        let l = layout();
        let op = GroupOp::Write {
            offset: 256,
            data: Payload::filled(0, 100),
            flush: true,
        };
        for idx in 0..3 {
            let b = build_block(&op, &l, idx, 5, 0xA000);
            if idx < 2 {
                assert_eq!(b[2].opcode, Opcode::Write);
                assert_eq!(b[2].len, 100);
                assert_eq!(b[2].local_addr, b[2].remote_addr, "symmetric layout");
                assert_eq!(b[3].opcode, Opcode::Read);
                assert_eq!(b[3].len, 0, "flush is a 0-byte read");
                assert_eq!(b[4].opcode, Opcode::Send);
                assert!(b[4].is_fenced(), "metadata follows the flush");
            } else {
                assert_eq!(b[2].opcode, Opcode::Nop);
                assert_eq!(b[4].opcode, Opcode::WriteImm);
                assert_eq!(b[4].compare_or_imm, 5, "imm carries the generation");
                assert_eq!(b[4].remote_addr, 0xA000);
            }
        }
    }

    #[test]
    fn gcas_execute_map_turns_non_executors_into_nops() {
        let l = layout();
        let op = GroupOp::Cas {
            offset: 512,
            compare: 1,
            swap: 2,
            execute: ExecuteMap::none().with(0).with(2),
        };
        let b0 = build_block(&op, &l, 0, 7, 0);
        let b1 = build_block(&op, &l, 1, 7, 0);
        let b2 = build_block(&op, &l, 2, 7, 0);
        assert_eq!(b0[0].opcode, Opcode::CompareSwap);
        assert_eq!(b1[0].opcode, Opcode::Nop, "deselected replica runs a NOP");
        assert_eq!(b2[0].opcode, Opcode::CompareSwap);
        // Results land in distinct result-map words.
        assert_ne!(b0[0].local_addr, b2[0].local_addr);
        assert_eq!(b0[0].local_addr, l.result_word_addr(7, 0));
        // The trigger leg is fenced so the CAS result is in memory first.
        assert!(b0[1].is_fenced() && b0[1].is_signaled());
    }

    #[test]
    fn gmemcpy_copies_locally_and_flushes_itself() {
        let l = layout();
        let op = GroupOp::Memcpy {
            src: 100,
            dst: 5000,
            len: 256,
            flush: true,
        };
        let b = build_block(&op, &l, 1, 3, 0);
        assert_eq!(b[0].opcode, Opcode::Write);
        assert_eq!(b[0].local_addr, l.shared_base + 100);
        assert_eq!(b[0].remote_addr, l.shared_base + 5000);
        assert_eq!(b[1].opcode, Opcode::Read, "self-flush via loopback read");
        assert_eq!(
            b[2].opcode,
            Opcode::Nop,
            "no data forwarded: all hops copy locally"
        );
        assert_eq!(b[3].opcode, Opcode::Nop, "no downstream flush needed");
    }

    mod randomized {
        use super::*;
        use crate::ops::ExecuteMap;
        use simcore::SimRng;

        fn layout_for(gs: u32) -> SharedLayout {
            SharedLayout {
                shared_base: 4096,
                shared_size: 1 << 20,
                meta_base: 2 << 20,
                meta_slot_size: SharedLayout::slot_size_for(gs),
                group_size: gs,
            }
        }

        fn gen_op(rng: &mut SimRng) -> GroupOp {
            match rng.gen_range(0..4) {
                0 => GroupOp::Write {
                    offset: rng.gen_range(0..1 << 19),
                    data: Payload::filled(1, 1 + rng.gen_index(4095)),
                    flush: rng.gen_bool(0.5),
                },
                1 => GroupOp::Cas {
                    offset: rng.gen_range(0..1 << 16) & !7,
                    compare: rng.next_u64(),
                    swap: rng.next_u64(),
                    execute: ExecuteMap(rng.next_u64()),
                },
                2 => GroupOp::Memcpy {
                    src: rng.gen_range(0..1 << 18),
                    dst: rng.gen_range(0..1 << 18),
                    len: rng.gen_range(1..4096),
                    flush: rng.gen_bool(0.5),
                },
                _ => GroupOp::Flush {
                    offset: rng.gen_range(0..1 << 19),
                },
            }
        }

        #[test]
        fn payload_always_decodes_to_valid_images() {
            let mut rng = SimRng::new(0x4E7A);
            for _ in 0..64 {
                let gs = rng.gen_range(1..8) as u32;
                let gen = rng.next_u64();
                let ack = rng.next_u64();
                let op = gen_op(&mut rng);
                let l = layout_for(gs);
                let payload = build_payload(&op, &l, gen, ack);
                assert_eq!(payload.len() as u64, payload_len(&l));
                // Every 64-byte image in every block decodes.
                for idx in 0..gs {
                    for img in 0..5usize {
                        let start = (idx as usize * 5 + img) * WQE_SIZE as usize;
                        let bytes: [u8; 64] = payload[start..start + 64].try_into().unwrap();
                        assert!(Wqe::decode(&bytes).is_some(), "image {idx}/{img} corrupt");
                    }
                }
                // The result map is zeroed.
                let rm = l.result_map_offset() as usize;
                assert!(payload[rm..].iter().all(|&b| b == 0));
            }
        }

        #[test]
        fn last_block_always_acks_and_others_always_forward() {
            let mut rng = SimRng::new(0xAC4D);
            for _ in 0..64 {
                let gs = rng.gen_range(2..8) as u32;
                let gen = rng.next_u64();
                let op = gen_op(&mut rng);
                let l = layout_for(gs);
                for idx in 0..gs {
                    let b = build_block(&op, &l, idx, gen, 0xACED);
                    if idx + 1 == gs {
                        assert_eq!(b[4].opcode, Opcode::WriteImm);
                        assert_eq!(b[4].compare_or_imm, gen);
                        assert_eq!(b[4].remote_addr, 0xACED);
                        // The last hop never forwards data or flushes.
                        assert_eq!(b[2].opcode, Opcode::Nop);
                        assert_eq!(b[3].opcode, Opcode::Nop);
                    } else {
                        assert_eq!(b[4].opcode, Opcode::Send);
                        assert_eq!(b[4].len, payload_len(&l));
                    }
                    // The trigger leg is always signalled and fenced.
                    assert!(b[1].is_signaled() && b[1].is_fenced());
                }
            }
        }
    }

    #[test]
    fn images_round_trip_through_encoding() {
        let l = layout();
        let op = GroupOp::Write {
            offset: 0,
            data: Payload::filled(1, 8),
            flush: false,
        };
        let payload = build_payload(&op, &l, 11, 0xB000);
        // Decode replica 1's img2 from raw payload bytes.
        let start = (5 + 2) as usize * WQE_SIZE as usize;
        let bytes: [u8; 64] = payload[start..start + 64].try_into().unwrap();
        let img = Wqe::decode(&bytes).unwrap();
        assert_eq!(img.opcode, Opcode::Write);
        assert_eq!(img.len, 8);
    }
}
