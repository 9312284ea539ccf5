//! Group configuration and the symmetric memory layout.
//!
//! HyperLoop relies on every replica having an *identical* layout for the
//! replicated state: the same offset means the same object on every node, so
//! one metadata image works for the whole group. [`SharedLayout`] captures
//! that replica-space map; the client keeps its own mirror at client-space
//! offsets.

use rnicsim::WQE_SIZE;

/// Images per replica block in the metadata payload (see [`crate::meta`]).
pub const IMAGES_PER_BLOCK: u64 = 5;

/// Bytes of one replica's image block.
pub const BLOCK_SIZE: u64 = IMAGES_PER_BLOCK * WQE_SIZE;

/// Metadata generation slots per group (the reuse ring). Must be at least
/// twice a group's `window`; every `first_gen` is a multiple of it.
pub const META_SLOTS: u32 = 64;

/// Group-wide tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConfig {
    /// Bytes of replicated shared state (WAL region + database + control
    /// words), identical on every replica.
    pub shared_size: u64,
    /// Generations pre-posted per replica at setup and kept outstanding by
    /// the maintenance path.
    pub prepost_depth: u32,
    /// Maximum operations the client keeps in flight.
    pub window: u32,
    /// First generation number the group issues. Generations double as the
    /// op ids on every trace event and WQE `wr_id`, so multi-group setups
    /// (shards, migration targets) give each group a disjoint base to keep
    /// trace streams unambiguous. Must be a multiple of [`META_SLOTS`] so
    /// the modular slot arithmetic is unchanged.
    pub first_gen: u64,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            shared_size: 4 << 20,
            prepost_depth: 128,
            window: 16,
            first_gen: 0,
        }
    }
}

impl GroupConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the window would overrun the metadata ring.
    pub fn validate(&self) {
        assert!(self.shared_size > 0, "empty shared region");
        assert!(
            self.window * 2 <= META_SLOTS,
            "window {} too large for {META_SLOTS} metadata slots",
            self.window,
        );
        assert!(
            self.prepost_depth >= self.window,
            "prepost depth below window"
        );
        assert!(
            self.first_gen.is_multiple_of(META_SLOTS as u64),
            "first_gen {} must be a multiple of {META_SLOTS} metadata slots",
            self.first_gen,
        );
    }
}

/// The replica-space memory map of one group, identical on all replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedLayout {
    /// Base of the replicated shared state.
    pub shared_base: u64,
    /// Bytes of shared state.
    pub shared_size: u64,
    /// Base of the metadata generation ring.
    pub meta_base: u64,
    /// Bytes of one metadata slot (all blocks + result map, 64-aligned).
    pub meta_slot_size: u64,
    /// Replication group size (number of replicas in the chain).
    pub group_size: u32,
}

impl SharedLayout {
    /// Size of one metadata slot for a group of `group_size`.
    pub fn slot_size_for(group_size: u32) -> u64 {
        let raw = group_size as u64 * BLOCK_SIZE + group_size as u64 * 8;
        (raw + 63) & !63
    }

    /// Replica-space address of metadata slot `gen % META_SLOTS`.
    pub fn meta_slot(&self, gen: u64) -> u64 {
        self.meta_base + (gen % META_SLOTS as u64) * self.meta_slot_size
    }

    /// Address of image `img` in replica `idx`'s block of slot `gen`.
    pub fn image_addr(&self, gen: u64, idx: u32, img: u32) -> u64 {
        debug_assert!(idx < self.group_size);
        debug_assert!((img as u64) < IMAGES_PER_BLOCK);
        self.meta_slot(gen) + idx as u64 * BLOCK_SIZE + img as u64 * WQE_SIZE
    }

    /// Offset *within a slot* of the result map.
    pub fn result_map_offset(&self) -> u64 {
        self.group_size as u64 * BLOCK_SIZE
    }

    /// Address of replica `idx`'s result-map word in slot `gen`.
    pub fn result_word_addr(&self, gen: u64, idx: u32) -> u64 {
        self.meta_slot(gen) + self.result_map_offset() + idx as u64 * 8
    }

    /// Bytes of the result map.
    pub fn result_map_len(&self) -> u64 {
        self.group_size as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(gs: u32) -> SharedLayout {
        SharedLayout {
            shared_base: 0,
            shared_size: 1 << 20,
            meta_base: 1 << 20,
            meta_slot_size: SharedLayout::slot_size_for(gs),
            group_size: gs,
        }
    }

    #[test]
    fn slot_size_is_aligned_and_sufficient() {
        for gs in 1..=8 {
            let s = SharedLayout::slot_size_for(gs);
            assert_eq!(s % 64, 0);
            assert!(s >= gs as u64 * BLOCK_SIZE + gs as u64 * 8);
        }
    }

    #[test]
    fn image_addresses_do_not_overlap() {
        let l = layout(3);
        let mut addrs = Vec::new();
        for idx in 0..3 {
            for img in 0..IMAGES_PER_BLOCK as u32 {
                addrs.push(l.image_addr(5, idx, img));
            }
        }
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], WQE_SIZE, "blocks must be densely packed");
        }
        // Result map sits after all blocks, inside the slot.
        let rm = l.result_word_addr(5, 2) + 8;
        assert!(rm <= l.meta_slot(5) + l.meta_slot_size);
    }

    #[test]
    fn slots_rotate_with_generation() {
        let l = layout(3);
        assert_eq!(l.meta_slot(0), l.meta_slot(64));
        assert_ne!(l.meta_slot(0), l.meta_slot(1));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn oversized_window_rejected() {
        let cfg = GroupConfig {
            window: 60,
            ..GroupConfig::default()
        };
        cfg.validate();
    }
}
