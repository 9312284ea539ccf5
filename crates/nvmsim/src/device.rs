//! The byte-addressable NVM device.
//!
//! Writes land in a volatile layer (modelling the NIC/CPU cache hierarchy)
//! and only become durable when flushed — exactly the boundary HyperLoop's
//! `gFLUSH` primitive exists to manage. A [`NvmDevice::power_failure`] throws
//! away everything volatile, so tests can prove that unflushed RDMA WRITEs
//! are really lost.

use crate::overlay::DirtyOverlay;
use std::fmt;

/// Error type for out-of-range NVM accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutOfBoundsError {
    /// Requested offset.
    pub offset: u64,
    /// Requested length.
    pub len: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl fmt::Display for AccessOutOfBoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access [{}, {}) exceeds device capacity {}",
            self.offset,
            self.offset + self.len,
            self.capacity
        )
    }
}

impl std::error::Error for AccessOutOfBoundsError {}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NvmStats {
    /// Bytes accepted by `write` (volatile or durable).
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Number of flush operations (any granularity).
    pub flushes: u64,
    /// Bytes committed to the durable medium by flushes.
    pub bytes_flushed: u64,
    /// Number of injected power failures.
    pub power_failures: u64,
}

impl NvmStats {
    /// Snapshots every counter into `reg` under a dotted `prefix`.
    pub fn export_into(&self, reg: &mut simcore::MetricsRegistry, prefix: &str) {
        reg.counter_set(&format!("{prefix}.bytes_written"), self.bytes_written);
        reg.counter_set(&format!("{prefix}.bytes_read"), self.bytes_read);
        reg.counter_set(&format!("{prefix}.flushes"), self.flushes);
        reg.counter_set(&format!("{prefix}.bytes_flushed"), self.bytes_flushed);
        reg.counter_set(&format!("{prefix}.power_failures"), self.power_failures);
    }
}

/// A simulated NVM DIMM: durable array + volatile write-back layer.
///
/// ```
/// use nvmsim::NvmDevice;
///
/// let mut nvm = NvmDevice::new(1024);
/// nvm.write(0, b"hello")?;
/// assert_eq!(nvm.read_vec(0, 5)?, b"hello");       // reads are coherent
/// assert!(!nvm.is_durable(0, 5)?);                 // but not yet durable
/// nvm.flush_range(0, 5)?;
/// assert!(nvm.is_durable(0, 5)?);
/// nvm.power_failure();
/// assert_eq!(nvm.read_vec(0, 5)?, b"hello");       // survived the crash
/// # Ok::<(), nvmsim::AccessOutOfBoundsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    durable: Vec<u8>,
    volatile: DirtyOverlay,
    stats: NvmStats,
}

impl NvmDevice {
    /// Creates a zero-filled device of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        NvmDevice {
            durable: vec![0; capacity as usize],
            volatile: DirtyOverlay::new(),
            stats: NvmStats::default(),
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.durable.len() as u64
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NvmStats {
        self.stats
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), AccessOutOfBoundsError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity())
        {
            return Err(AccessOutOfBoundsError {
                offset,
                len,
                capacity: self.capacity(),
            });
        }
        Ok(())
    }

    /// Writes `data` at `offset` into the volatile layer.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfBoundsError`] if the range exceeds capacity.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), AccessOutOfBoundsError> {
        self.check(offset, data.len() as u64)?;
        self.volatile.write(offset, data);
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    /// A durable store: `data` goes straight to the durable medium and
    /// supersedes any volatile bytes in its range. Observably the same as
    /// [`NvmDevice::write`] then [`NvmDevice::flush_range`] of the same
    /// bytes, statistics included: it counts as one flush.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfBoundsError`] if the range exceeds capacity.
    pub fn write_durable(
        &mut self,
        offset: u64,
        data: &[u8],
    ) -> Result<(), AccessOutOfBoundsError> {
        let len = data.len() as u64;
        self.check(offset, len)?;
        self.volatile.take_range_with(offset, len, |_, _| {});
        self.durable[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        self.stats.bytes_written += len;
        self.stats.flushes += 1;
        self.stats.bytes_flushed += len;
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset` (coherent: sees volatile bytes).
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfBoundsError`] if the range exceeds capacity.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), AccessOutOfBoundsError> {
        self.check(offset, buf.len() as u64)?;
        buf.copy_from_slice(&self.durable[offset as usize..offset as usize + buf.len()]);
        self.volatile.apply_to(offset, buf);
        self.stats.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Reads `len` bytes at `offset` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfBoundsError`] if the range exceeds capacity.
    pub fn read_vec(&mut self, offset: u64, len: u64) -> Result<Vec<u8>, AccessOutOfBoundsError> {
        let mut buf = vec![0; len as usize];
        self.read(offset, &mut buf)?;
        Ok(buf)
    }

    /// Reads the *durable* bytes only — what a recovery after power failure
    /// would observe. Does not count towards read statistics.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfBoundsError`] if the range exceeds capacity.
    pub fn read_durable_vec(
        &self,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, AccessOutOfBoundsError> {
        self.check(offset, len)?;
        Ok(self.durable[offset as usize..(offset + len) as usize].to_vec())
    }

    /// Commits all volatile bytes in `[offset, offset+len)` to the durable
    /// medium.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfBoundsError`] if the range exceeds capacity.
    pub fn flush_range(&mut self, offset: u64, len: u64) -> Result<(), AccessOutOfBoundsError> {
        self.check(offset, len)?;
        self.stats.flushes += 1;
        let stats = &mut self.stats;
        let durable = &mut self.durable;
        self.volatile.take_range_with(offset, len, |o, bytes| {
            stats.bytes_flushed += bytes.len() as u64;
            durable[o as usize..o as usize + bytes.len()].copy_from_slice(bytes);
        });
        Ok(())
    }

    /// Commits every volatile byte.
    pub fn flush_all(&mut self) {
        self.stats.flushes += 1;
        let stats = &mut self.stats;
        let durable = &mut self.durable;
        self.volatile.take_all_with(|o, bytes| {
            stats.bytes_flushed += bytes.len() as u64;
            durable[o as usize..o as usize + bytes.len()].copy_from_slice(bytes);
        });
    }

    /// True if no byte of `[offset, offset+len)` is still volatile.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfBoundsError`] if the range exceeds capacity.
    pub fn is_durable(&self, offset: u64, len: u64) -> Result<bool, AccessOutOfBoundsError> {
        self.check(offset, len)?;
        Ok(self.volatile.is_clean_range(offset, len))
    }

    /// Total bytes currently volatile (unflushed).
    pub fn volatile_bytes(&self) -> u64 {
        self.volatile.dirty_bytes()
    }

    /// Injects a power failure: all volatile bytes are lost. Reads afterwards
    /// observe only what was flushed.
    pub fn power_failure(&mut self) {
        self.volatile.clear();
        self.stats.power_failures += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherent_reads_before_flush() {
        let mut nvm = NvmDevice::new(64);
        nvm.write(8, b"abc").unwrap();
        assert_eq!(nvm.read_vec(8, 3).unwrap(), b"abc");
        assert_eq!(nvm.read_durable_vec(8, 3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn power_failure_loses_unflushed() {
        let mut nvm = NvmDevice::new(64);
        nvm.write(0, b"keep").unwrap();
        nvm.flush_range(0, 4).unwrap();
        nvm.write(10, b"lose").unwrap();
        nvm.power_failure();
        assert_eq!(nvm.read_vec(0, 4).unwrap(), b"keep");
        assert_eq!(nvm.read_vec(10, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn partial_flush_splits_durability() {
        let mut nvm = NvmDevice::new(64);
        nvm.write(0, &[1; 8]).unwrap();
        nvm.flush_range(0, 4).unwrap();
        assert!(nvm.is_durable(0, 4).unwrap());
        assert!(!nvm.is_durable(4, 4).unwrap());
        nvm.power_failure();
        assert_eq!(nvm.read_vec(0, 8).unwrap(), vec![1, 1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn flush_all_commits_everything() {
        let mut nvm = NvmDevice::new(128);
        nvm.write(0, &[1; 8]).unwrap();
        nvm.write(100, &[2; 8]).unwrap();
        nvm.flush_all();
        assert_eq!(nvm.volatile_bytes(), 0);
        nvm.power_failure();
        assert_eq!(nvm.read_vec(100, 8).unwrap(), vec![2; 8]);
    }

    #[test]
    fn write_durable_is_immediately_durable() {
        let mut nvm = NvmDevice::new(64);
        nvm.write_durable(5, b"xy").unwrap();
        assert!(nvm.is_durable(5, 2).unwrap());
    }

    #[test]
    fn out_of_bounds_reports_error() {
        let mut nvm = NvmDevice::new(16);
        let err = nvm.write(10, &[0; 10]).unwrap_err();
        assert_eq!(err.capacity, 16);
        assert!(nvm.read_vec(17, 1).is_err());
        assert!(nvm.flush_range(0, 17).is_err());
        assert!(nvm.is_durable(16, 1).is_err());
        // Offset overflow must not panic.
        assert!(nvm.write(u64::MAX, &[1]).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut nvm = NvmDevice::new(64);
        nvm.write(0, &[0; 10]).unwrap();
        nvm.read_vec(0, 4).unwrap();
        nvm.flush_range(0, 10).unwrap();
        nvm.power_failure();
        let s = nvm.stats();
        assert_eq!(s.bytes_written, 10);
        assert_eq!(s.bytes_read, 4);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.bytes_flushed, 10);
        assert_eq!(s.power_failures, 1);
    }

    #[test]
    fn overwrite_before_flush_keeps_latest() {
        let mut nvm = NvmDevice::new(64);
        nvm.write(0, b"old").unwrap();
        nvm.write(0, b"new").unwrap();
        nvm.flush_range(0, 3).unwrap();
        nvm.power_failure();
        assert_eq!(nvm.read_vec(0, 3).unwrap(), b"new");
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use simcore::SimRng;

    const CAPACITY: u64 = 96;

    /// An offset and length that mostly land in bounds, on a small device
    /// so extents overlap and touch; some calls run past the end.
    fn range(rng: &mut SimRng) -> (u64, u64) {
        let offset = rng.gen_range(0..CAPACITY + 8);
        let len = if rng.gen_bool(0.1) {
            0
        } else {
            rng.gen_range(1..24)
        };
        (offset, len)
    }

    fn same_state(a: &mut NvmDevice, b: &mut NvmDevice, rng: &mut SimRng) {
        assert_eq!(a.read_vec(0, CAPACITY), b.read_vec(0, CAPACITY));
        assert_eq!(
            a.read_durable_vec(0, CAPACITY),
            b.read_durable_vec(0, CAPACITY)
        );
        let (o, l) = range(rng);
        assert_eq!(a.is_durable(o, l), b.is_durable(o, l));
        assert_eq!(a.volatile_bytes(), b.volatile_bytes());
        assert_eq!(a.stats(), b.stats());
    }

    /// `write_durable` stores straight to the durable medium; it must be
    /// indistinguishable from a volatile write of the same bytes followed
    /// by a flush of their range, counters and errors included.
    #[test]
    fn durable_store_matches_write_then_flush() {
        for case in 0..64u64 {
            let mut rng = SimRng::new(0xD0AB1E + case);
            let mut a = NvmDevice::new(CAPACITY);
            let mut b = NvmDevice::new(CAPACITY);
            for _ in 0..80 {
                let (o, l) = range(&mut rng);
                let mut data = vec![0; l as usize];
                rng.fill_bytes(&mut data);
                match rng.gen_index(10) {
                    0..=3 => assert_eq!(
                        a.write_durable(o, &data),
                        b.write(o, &data).and_then(|()| b.flush_range(o, l))
                    ),
                    4..=6 => assert_eq!(a.write(o, &data), b.write(o, &data)),
                    7 | 8 => assert_eq!(a.flush_range(o, l), b.flush_range(o, l)),
                    _ => {
                        a.power_failure();
                        b.power_failure();
                    }
                }
                same_state(&mut a, &mut b, &mut rng);
            }
        }
    }
}
