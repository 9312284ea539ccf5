//! The command message replicas parse on each hop.
//!
//! Naïve-RDMA replicates HyperLoop's *semantics* but keeps the CPU in the
//! loop: the client sends the payload with a one-sided WRITE and follows it
//! with this 64-byte command; each replica's process wakes up, parses the
//! command, executes it against local memory, and forwards both down the
//! chain. The trailing result map (one u64 per replica) accumulates gCAS
//! originals exactly like HyperLoop's metadata does.

use hyperloop::{ExecuteMap, GroupOp};
use rnicsim::Payload;

/// Encoded size of the fixed command header.
pub const CMD_SIZE: u64 = 64;

/// Command ring slots per replica (also the client's ack ring length).
pub const CMD_SLOTS: u32 = 64;

/// Operation discriminants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum OpKind {
    Write = 0,
    Cas = 1,
    Memcpy = 2,
    Flush = 3,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Operation generation (for ack matching).
    pub gen: u64,
    /// The operation; `Write.data` is carried out-of-band (one-sided WRITE),
    /// so its byte vector here is empty and only the length matters.
    pub op: GroupOp,
}

/// Serializes a command header (no payload bytes; they travel one-sided).
pub fn encode(gen: u64, op: &GroupOp) -> [u8; CMD_SIZE as usize] {
    let mut b = [0u8; CMD_SIZE as usize];
    b[8..16].copy_from_slice(&gen.to_le_bytes());
    match op {
        GroupOp::Write {
            offset,
            data,
            flush,
        } => {
            b[0] = OpKind::Write as u8;
            b[1] = u8::from(*flush);
            b[16..24].copy_from_slice(&offset.to_le_bytes());
            b[24..32].copy_from_slice(&(data.len() as u64).to_le_bytes());
        }
        GroupOp::Cas {
            offset,
            compare,
            swap,
            execute,
        } => {
            b[0] = OpKind::Cas as u8;
            b[16..24].copy_from_slice(&offset.to_le_bytes());
            b[32..40].copy_from_slice(&compare.to_le_bytes());
            b[40..48].copy_from_slice(&swap.to_le_bytes());
            b[48..56].copy_from_slice(&execute.0.to_le_bytes());
        }
        GroupOp::Memcpy {
            src,
            dst,
            len,
            flush,
        } => {
            b[0] = OpKind::Memcpy as u8;
            b[1] = u8::from(*flush);
            b[16..24].copy_from_slice(&src.to_le_bytes());
            b[24..32].copy_from_slice(&len.to_le_bytes());
            b[56..64].copy_from_slice(&dst.to_le_bytes());
        }
        GroupOp::Flush { offset } => {
            b[0] = OpKind::Flush as u8;
            b[16..24].copy_from_slice(&offset.to_le_bytes());
        }
    }
    b
}

/// Parses a command header.
///
/// Returns `None` on an unknown opcode byte.
pub fn decode(b: &[u8; CMD_SIZE as usize]) -> Option<Command> {
    let u64le = |r: std::ops::Range<usize>| u64::from_le_bytes(b[r].try_into().unwrap());
    let gen = u64le(8..16);
    let op = match b[0] {
        0 => GroupOp::Write {
            offset: u64le(16..24),
            data: Payload::zeroed(u64le(24..32) as usize),
            flush: b[1] != 0,
        },
        1 => GroupOp::Cas {
            offset: u64le(16..24),
            compare: u64le(32..40),
            swap: u64le(40..48),
            execute: ExecuteMap(u64le(48..56)),
        },
        2 => GroupOp::Memcpy {
            src: u64le(16..24),
            len: u64le(24..32),
            dst: u64le(56..64),
            flush: b[1] != 0,
        },
        3 => GroupOp::Flush {
            offset: u64le(16..24),
        },
        _ => return None,
    };
    Some(Command { gen, op })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_round_trips_with_len_only() {
        let op = GroupOp::Write {
            offset: 4096,
            data: Payload::copy_from(&[9; 777]),
            flush: true,
        };
        let b = encode(5, &op);
        let c = decode(&b).unwrap();
        assert_eq!(c.gen, 5);
        let GroupOp::Write {
            offset,
            data,
            flush,
        } = c.op
        else {
            panic!("wrong op");
        };
        assert_eq!((offset, data.len(), flush), (4096, 777, true));
    }

    #[test]
    fn cas_round_trips() {
        let op = GroupOp::Cas {
            offset: 8,
            compare: 1,
            swap: 2,
            execute: ExecuteMap(0b101),
        };
        let c = decode(&encode(9, &op)).unwrap();
        assert_eq!(c.op, op);
    }

    #[test]
    fn memcpy_and_flush_round_trip() {
        for op in [
            GroupOp::Memcpy {
                src: 10,
                dst: 20,
                len: 30,
                flush: false,
            },
            GroupOp::Flush { offset: 77 },
        ] {
            assert_eq!(decode(&encode(1, &op)).unwrap().op, op);
        }
    }

    mod randomized {
        use super::*;
        use simcore::SimRng;

        fn gen_op(rng: &mut SimRng) -> GroupOp {
            match rng.gen_range(0..4) {
                0 => GroupOp::Write {
                    offset: rng.next_u64(),
                    data: Payload::zeroed(rng.gen_index(4096)),
                    flush: rng.gen_bool(0.5),
                },
                1 => GroupOp::Cas {
                    offset: rng.next_u64(),
                    compare: rng.next_u64(),
                    swap: rng.next_u64(),
                    execute: ExecuteMap(rng.next_u64()),
                },
                2 => GroupOp::Memcpy {
                    src: rng.next_u64(),
                    dst: rng.next_u64(),
                    len: rng.next_u64(),
                    flush: rng.gen_bool(0.5),
                },
                _ => GroupOp::Flush {
                    offset: rng.next_u64(),
                },
            }
        }

        #[test]
        fn any_command_round_trips() {
            let mut rng = SimRng::new(0xC0DEC);
            for _ in 0..128 {
                let gen = rng.next_u64();
                let op = gen_op(&mut rng);
                let c = decode(&encode(gen, &op)).unwrap();
                assert_eq!(c.gen, gen);
                // Write payloads travel out of band: compare shapes.
                match (&c.op, &op) {
                    (
                        GroupOp::Write {
                            offset: a,
                            data: da,
                            flush: fa,
                        },
                        GroupOp::Write {
                            offset: b,
                            data: db,
                            flush: fb,
                        },
                    ) => {
                        assert_eq!((a, da.len(), fa), (b, db.len(), fb));
                    }
                    (x, y) => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn unknown_opcode_is_none() {
        let mut b = [0u8; CMD_SIZE as usize];
        b[0] = 200;
        assert!(decode(&b).is_none());
    }
}
