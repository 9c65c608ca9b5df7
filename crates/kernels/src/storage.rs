//! Real data storage for kernels that execute actual numerics.
//!
//! Each data region of a workload maps to one `Vec<f64>` guarded by an
//! `RwLock`. Task bodies lock exactly the regions they declared as accesses,
//! which both keeps the execution safe under any interleaving the threaded
//! executor produces and mirrors the "regions are the unit of dependence"
//! model of OmpSs.

use std::sync::RwLock;

/// One `Vec<f64>` per region.
#[derive(Debug, Default)]
pub struct DenseStore {
    blocks: Vec<RwLock<Vec<f64>>>,
}

impl DenseStore {
    /// Creates a store where every region has the same number of elements.
    pub fn uniform(num_regions: usize, elems: usize) -> Self {
        DenseStore {
            blocks: (0..num_regions)
                .map(|_| RwLock::new(vec![0.0; elems]))
                .collect(),
        }
    }

    /// Reads region `r` through a closure.
    pub(crate) fn read<T>(&self, r: usize, f: impl FnOnce(&[f64]) -> T) -> T {
        f(&self.blocks[r].read().expect("poisoned region lock"))
    }

    /// Mutates region `r` through a closure.
    pub(crate) fn write<T>(&self, r: usize, f: impl FnOnce(&mut Vec<f64>) -> T) -> T {
        f(&mut self.blocks[r].write().expect("poisoned region lock"))
    }

    /// Copies region `r` out (convenient in verifications).
    pub(crate) fn snapshot(&self, r: usize) -> Vec<f64> {
        self.read(r, |s| s.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_store_has_zeroed_blocks() {
        let s = DenseStore::uniform(4, 8);
        assert_eq!(s.blocks.len(), 4);
        assert_eq!(s.snapshot(3), vec![0.0; 8]);
    }

    #[test]
    fn read_write_round_trip() {
        let s = DenseStore::uniform(2, 3);
        s.write(1, |v| {
            v[0] = 1.5;
            v[2] = 2.5;
        });
        assert_eq!(s.snapshot(1), [1.5, 0.0, 2.5]);
        let total = s.read(1, |v| v.iter().filter(|x| **x > 0.0).count());
        assert_eq!(total, 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let s = DenseStore::uniform(8, 16);
        std::thread::scope(|scope| {
            for r in 0..8 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..100 {
                        s.write(r, |v| v[0] += 1.0);
                    }
                });
            }
        });
        for r in 0..8 {
            assert_eq!(s.read(r, |v| v[0]), 100.0);
        }
    }
}
