//! Host and device memory capacity accounting.
//!
//! The paper's workers hold *all* models in host memory (768 GB fits
//! thousands of models) and treat the much smaller GPU memory (≤32 GB) as a
//! cache managed explicitly by the controller. This module provides the plain
//! capacity bookkeeping both sides use; the paged weights cache itself lives
//! in `clockwork-worker`, because paging is part of the worker's contract.

use serde::{Deserialize, Serialize};

/// Error returned when an allocation does not fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutOfMemory {
    /// Bytes requested by the failed allocation.
    pub requested: u64,
    /// Bytes that were still available.
    pub available: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A fixed-capacity memory pool with simple byte accounting.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryPool {
    capacity: u64,
    used: u64,
    peak: u64,
}

impl MemoryPool {
    /// Creates a pool with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryPool {
            capacity,
            used: 0,
            peak: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Highest allocation watermark observed.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        self.used as f64 / self.capacity as f64
    }

    /// Whether an allocation of `bytes` would fit right now.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.available()
    }

    /// Allocates `bytes`, failing if they do not fit.
    pub fn allocate(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        if !self.fits(bytes) {
            return Err(OutOfMemory {
                requested: bytes,
                available: self.available(),
            });
        }
        self.used += bytes;
        if self.used > self.peak {
            self.peak = self.used;
        }
        Ok(())
    }

    /// Releases `bytes`. Releasing more than is allocated clamps to zero.
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release() {
        let mut pool = MemoryPool::new(1000);
        assert!(pool.allocate(400).is_ok());
        assert!(pool.allocate(600).is_ok());
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.peak(), 1000);
        let err = pool.allocate(1).unwrap_err();
        assert_eq!(err.requested, 1);
        assert_eq!(err.available, 0);
        pool.release(500);
        assert_eq!(pool.used(), 500);
        assert!(pool.allocate(500).is_ok());
    }

    #[test]
    fn release_clamps_at_zero() {
        let mut pool = MemoryPool::new(100);
        pool.allocate(50).unwrap();
        pool.release(80);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.available(), 100);
    }

    #[test]
    fn occupancy_and_fits() {
        let mut pool = MemoryPool::new(200);
        assert_eq!(pool.occupancy(), 0.0);
        pool.allocate(50).unwrap();
        assert!((pool.occupancy() - 0.25).abs() < 1e-12);
        assert!(pool.fits(150));
        assert!(!pool.fits(151));
        let empty = MemoryPool::new(0);
        assert_eq!(empty.occupancy(), 1.0);
    }

    #[test]
    fn error_display() {
        let e = OutOfMemory {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("requested 10"));
    }
}
