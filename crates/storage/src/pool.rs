//! Thin-provisioning pools: physical capacity behind virtual volumes.
//!
//! Volumes on the simulated array are thin: a block consumes pool capacity
//! only when first written, and copy-on-write snapshot preservations charge
//! the pool too (Hitachi Thin Image draws from a pool the same way). An
//! exhausted pool is a real operational failure mode: new host writes are
//! rejected and new snapshots refuse to start, while existing data remains
//! readable.

/// Identifier of a pool within an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolId(pub u32);

/// A thin-provisioning pool.
#[derive(Debug, Clone)]
pub struct Pool {
    id: PoolId,
    name: String,
    capacity_blocks: u64,
    allocated_blocks: u64,
    /// High-water mark of allocation (capacity planning).
    peak_blocks: u64,
    /// Writes rejected because the pool was exhausted.
    rejections: u64,
}

impl Pool {
    pub(crate) fn new(id: PoolId, name: impl Into<String>, capacity_blocks: u64) -> Self {
        assert!(capacity_blocks > 0, "pool must have capacity");
        Pool {
            id,
            name: name.into(),
            capacity_blocks,
            allocated_blocks: 0,
            peak_blocks: 0,
            rejections: 0,
        }
    }

    /// Pool id.
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Blocks currently allocated.
    pub fn allocated_blocks(&self) -> u64 {
        self.allocated_blocks
    }

    /// Highest allocation ever reached.
    pub fn peak_blocks(&self) -> u64 {
        self.peak_blocks
    }

    /// Writes refused for lack of capacity.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Fraction of capacity in use.
    pub fn utilization(&self) -> f64 {
        self.allocated_blocks as f64 / self.capacity_blocks as f64
    }

    /// Is every block spoken for?
    pub fn is_exhausted(&self) -> bool {
        self.allocated_blocks >= self.capacity_blocks
    }

    /// Would `n` more blocks fit?
    pub fn has_room(&self, n: u64) -> bool {
        self.allocated_blocks + n <= self.capacity_blocks
    }

    /// Charge `n` blocks unconditionally (internal data path: replication
    /// apply and copy-on-write must not fail mid-flight, so they may
    /// overcommit; host admission prevents *new* host writes first).
    pub(crate) fn force_charge(&mut self, n: u64) {
        self.allocated_blocks += n;
        self.peak_blocks = self.peak_blocks.max(self.allocated_blocks);
    }

    /// Count an admission rejection (host write refused at the front end).
    pub(crate) fn count_rejection(&mut self) {
        self.rejections += 1;
    }

    /// Release `n` blocks (volume or snapshot deletion).
    pub(crate) fn release(&mut self, n: u64) {
        self.allocated_blocks = self.allocated_blocks.saturating_sub(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut p = Pool::new(PoolId(0), "hdp-0", 10);
        p.force_charge(4);
        p.force_charge(6);
        assert!(p.is_exhausted());
        assert!(!p.has_room(1));
        p.count_rejection();
        assert_eq!(p.rejections(), 1);
        assert_eq!(p.peak_blocks(), 10);
        p.release(5);
        assert_eq!(p.allocated_blocks(), 5);
        assert!((p.utilization() - 0.5).abs() < 1e-9);
        assert!(p.has_room(5));
        p.force_charge(5);
        assert_eq!(p.peak_blocks(), 10);
        // The data path may overcommit; admission is what prevents it.
        p.force_charge(3);
        assert_eq!(p.allocated_blocks(), 13);
        assert_eq!(p.peak_blocks(), 13);
    }

    #[test]
    fn release_saturates() {
        let mut p = Pool::new(PoolId(0), "x", 10);
        p.release(99);
        assert_eq!(p.allocated_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Pool::new(PoolId(0), "x", 0);
    }
}
