//! Placement bookkeeping for a write-ahead log living in a fixed region.
//!
//! The log is a ring: `head` is the oldest unapplied byte (advanced by log
//! processing/truncation, the paper's `ExecuteAndAdvance`), `tail` is the
//! append point. Both are *logical* monotone counters; physical placement is
//! `base + counter % capacity`. Records never wrap across the region end —
//! when one would, the remainder of the lap is skipped (callers learn this
//! from [`Placement::skipped`]) so each record stays contiguous for RDMA.

/// Where an appended record landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Physical byte offset (relative to the region base).
    pub offset: u64,
    /// Logical tail position of the record start.
    pub logical: u64,
    /// Bytes of end-of-region padding skipped before this record.
    pub skipped: u64,
}

/// Head/tail bookkeeping for a ring-structured WAL region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRing {
    capacity: u64,
    head: u64,
    tail: u64,
}

impl WalRing {
    /// A ring over `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "empty WAL region");
        WalRing {
            capacity,
            head: 0,
            tail: 0,
        }
    }

    /// Region capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Logical head (oldest unapplied byte).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Logical tail (next append position).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Bytes currently occupied (including any skipped padding).
    pub fn used(&self) -> u64 {
        self.tail - self.head
    }

    /// Bytes available for appending.
    pub fn free(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Reserves space for a record of `len` bytes, keeping it contiguous.
    /// Returns `None` if the ring is too full (caller must truncate first).
    ///
    /// # Panics
    ///
    /// Panics if a single record exceeds the region capacity.
    pub fn reserve(&mut self, len: u64) -> Option<Placement> {
        assert!(len <= self.capacity, "record larger than the WAL region");
        if len == 0 {
            return Some(Placement {
                offset: self.tail % self.capacity,
                logical: self.tail,
                skipped: 0,
            });
        }
        let pos = self.tail % self.capacity;
        // Skip the end-of-region stub if the record would wrap.
        let skipped = if pos + len > self.capacity {
            self.capacity - pos
        } else {
            0
        };
        if self.used() + skipped + len > self.capacity {
            return None;
        }
        self.tail += skipped;
        let placement = Placement {
            offset: self.tail % self.capacity,
            logical: self.tail,
            skipped,
        };
        self.tail += len;
        Some(placement)
    }

    /// Advances the head past `len` consumed bytes (after applying records).
    ///
    /// # Panics
    ///
    /// Panics if advancing past the tail.
    pub fn advance_head(&mut self, len: u64) {
        assert!(self.head + len <= self.tail, "head overtaking tail");
        self.head += len;
    }

    /// Advances the head to an absolute logical position (e.g. a placement's
    /// `logical + record_len`), swallowing any skipped padding.
    ///
    /// # Panics
    ///
    /// Panics if moving backwards or past the tail.
    pub fn advance_head_to(&mut self, logical: u64) {
        assert!(logical >= self.head, "head moving backwards");
        assert!(logical <= self.tail, "head overtaking tail");
        self.head = logical;
    }

    /// Empties the ring (e.g. after a checkpoint makes the log obsolete).
    pub fn truncate_all(&mut self) {
        self.head = self.tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_appends_advance_tail() {
        let mut r = WalRing::new(1024);
        let a = r.reserve(100).unwrap();
        let b = r.reserve(200).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 100);
        assert_eq!(r.used(), 300);
        assert_eq!(r.free(), 724);
    }

    #[test]
    fn wrap_keeps_records_contiguous() {
        let mut r = WalRing::new(1000);
        r.reserve(900).unwrap();
        r.advance_head(900); // all applied
        let p = r.reserve(200).unwrap();
        assert_eq!(p.skipped, 100, "end stub skipped");
        assert_eq!(p.offset, 0, "record starts at region base");
        assert!(p.offset + 200 <= 1000);
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = WalRing::new(256);
        assert!(r.reserve(200).is_some());
        assert!(r.reserve(100).is_none(), "would overflow");
        r.advance_head(200);
        assert!(r.reserve(100).is_some(), "space reclaimed");
    }

    #[test]
    fn wrap_plus_full_interaction() {
        let mut r = WalRing::new(100);
        r.reserve(80).unwrap();
        r.advance_head(50);
        // 30 used; a 40-byte record needs 20 skip + 40 = 60 more, total 90 > 100 free? used=30, skip=20, len=40 => 90 <= 100: fits.
        let p = r.reserve(40).unwrap();
        assert_eq!(p.skipped, 20);
        assert_eq!(p.offset, 0);
        // Now used = 90; another 40 (no skip, pos=40) would make 130 > 100.
        assert!(r.reserve(40).is_none());
    }

    #[test]
    fn advance_head_to_swallows_padding() {
        let mut r = WalRing::new(100);
        r.reserve(90).unwrap();
        r.advance_head(90);
        let p = r.reserve(30).unwrap();
        assert_eq!(p.skipped, 10);
        r.advance_head_to(p.logical + 30);
        assert_eq!(r.used(), 0);
    }

    #[test]
    #[should_panic(expected = "head overtaking tail")]
    fn head_cannot_pass_tail() {
        let mut r = WalRing::new(64);
        r.reserve(10).unwrap();
        r.advance_head(11);
    }

    #[test]
    #[should_panic(expected = "record larger")]
    fn oversized_record_panics() {
        let mut r = WalRing::new(64);
        r.reserve(65);
    }

    #[test]
    fn truncate_all_empties() {
        let mut r = WalRing::new(64);
        r.reserve(30).unwrap();
        r.truncate_all();
        assert_eq!(r.used(), 0);
        assert_eq!(r.head(), r.tail());
    }

    mod randomized {
        use super::*;

        /// Minimal deterministic PRNG (splitmix64): this crate has no
        /// dependencies, so the tests carry their own generator.
        struct TestRng(u64);

        impl TestRng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
            fn range(&mut self, lo: u64, hi: u64) -> u64 {
                lo + self.next() % (hi - lo)
            }
        }

        #[test]
        fn placements_never_overlap_live_data() {
            for case in 0..64u64 {
                let mut rng = TestRng(0x4A11 + case);
                let n = 1 + (rng.next() as usize % 199);
                let mut r = WalRing::new(512);
                // Live intervals as logical ranges; physical non-overlap holds
                // because the ring never lets used() exceed capacity.
                let mut live: Vec<(u64, u64)> = Vec::new();
                for _ in 0..n {
                    let len = rng.range(1, 120);
                    if rng.next() % 2 == 1 {
                        if let Some((l, rec_len)) = live.first().copied() {
                            r.advance_head_to(l + rec_len);
                            live.remove(0);
                            // Padding before the next record is swallowed by
                            // the next advance_head_to; emulate by snapping to
                            // the next record's start.
                            if let Some(&(next, _)) = live.first() {
                                r.advance_head_to(next);
                            } else {
                                r.advance_head_to(r.tail());
                            }
                        }
                    } else if let Some(p) = r.reserve(len) {
                        // Record fits inside the region bounds.
                        assert!(p.offset + len <= r.capacity());
                        live.push((p.logical, len));
                    }
                    assert!(r.used() <= r.capacity());
                    assert!(r.head() <= r.tail());
                }
            }
        }
    }
}
