//! Register renaming: map tables and free lists.
//!
//! Misprediction recovery needs no map snapshots: it undoes the squashed
//! instructions' renames youngest first (`map[arch] = old`) and frees
//! their physical registers. The hardware checkpoint budget is modelled
//! as a dispatch stall on unresolved branches (`SimConfig::checkpoints`).

use carf_isa::{FpReg, IntReg};

/// Physical register number.
pub type Preg = u16;

/// Rename state: one map per register file and one free list per file.
///
/// `x0` is never renamed: it permanently owns physical register 0, which is
/// initialized to zero and never freed, and destination writes to it are
/// discarded by the pipeline.
///
/// # Example
///
/// ```
/// use carf_sim::RenameTables;
/// use carf_isa::x;
///
/// let mut rt = RenameTables::new(64, 64);
/// let (new, old) = rt.rename_int_dest(x(5)).unwrap();
/// assert_eq!(old, 5);              // initial identity mapping
/// assert_eq!(rt.lookup_int(x(5)), new);
/// ```
#[derive(Debug, Clone)]
pub struct RenameTables {
    int_map: [Preg; 32],
    fp_map: [Preg; 32],
    int_free: Vec<Preg>,
    fp_free: Vec<Preg>,
}

impl RenameTables {
    /// Creates tables for `int_pregs`/`fp_pregs` physical registers with
    /// identity initial mappings (arch reg `i` → preg `i`).
    ///
    /// # Panics
    ///
    /// Panics if either file has fewer than 33 physical registers (32
    /// architectural plus at least one rename target).
    pub fn new(int_pregs: usize, fp_pregs: usize) -> Self {
        assert!(int_pregs > 32, "need more than 32 integer physical registers");
        assert!(fp_pregs > 32, "need more than 32 fp physical registers");
        let mut int_map = [0; 32];
        let mut fp_map = [0; 32];
        for i in 0..32 {
            int_map[i] = i as Preg;
            fp_map[i] = i as Preg;
        }
        Self {
            int_map,
            fp_map,
            int_free: (32..int_pregs as Preg).rev().collect(),
            fp_free: (32..fp_pregs as Preg).rev().collect(),
        }
    }

    /// Current physical mapping of an integer architectural register.
    pub fn lookup_int(&self, r: IntReg) -> Preg {
        self.int_map[r.index()]
    }

    /// Current physical mapping of an FP architectural register.
    pub fn lookup_fp(&self, r: FpReg) -> Preg {
        self.fp_map[r.index()]
    }

    /// Free integer physical registers remaining.
    pub fn int_free_count(&self) -> usize {
        self.int_free.len()
    }

    /// Free FP physical registers remaining.
    pub fn fp_free_count(&self) -> usize {
        self.fp_free.len()
    }

    /// Renames an integer destination: allocates a new preg and returns
    /// `(new, old)` where `old` is the previous mapping (to free at the
    /// renaming instruction's commit). Returns `None` when the free list is
    /// empty (rename must stall).
    ///
    /// # Panics
    ///
    /// Panics if called for `x0` — the pipeline must treat `x0`
    /// destinations as no-writes.
    pub fn rename_int_dest(&mut self, r: IntReg) -> Option<(Preg, Preg)> {
        assert!(!r.is_zero(), "x0 is not renamable");
        let new = self.int_free.pop()?;
        let old = std::mem::replace(&mut self.int_map[r.index()], new);
        Some((new, old))
    }

    /// Renames an FP destination (see [`RenameTables::rename_int_dest`]).
    pub fn rename_fp_dest(&mut self, r: FpReg) -> Option<(Preg, Preg)> {
        let new = self.fp_free.pop()?;
        let old = std::mem::replace(&mut self.fp_map[r.index()], new);
        Some((new, old))
    }

    /// Returns an integer preg to the free list.
    pub fn free_int(&mut self, preg: Preg) {
        debug_assert!(!self.int_free.contains(&preg), "double free of int preg {preg}");
        self.int_free.push(preg);
    }

    /// Returns an FP preg to the free list.
    pub fn free_fp(&mut self, preg: Preg) {
        debug_assert!(!self.fp_free.contains(&preg), "double free of fp preg {preg}");
        self.fp_free.push(preg);
    }

    /// The current integer map (for oracle/architectural scans).
    pub fn int_map(&self) -> &[Preg; 32] {
        &self.int_map
    }

    /// The current floating-point map (for recovery snapshots).
    pub fn fp_map(&self) -> &[Preg; 32] {
        &self.fp_map
    }

    /// Replaces both maps wholesale (recovery writes back the maps it
    /// rebuilt by undoing the squashed renames).
    pub fn set_maps(&mut self, int_map: [Preg; 32], fp_map: [Preg; 32]) {
        self.int_map = int_map;
        self.fp_map = fp_map;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carf_isa::{f, x};

    #[test]
    fn initial_mappings_are_identity() {
        let rt = RenameTables::new(64, 64);
        for i in 0..32 {
            assert_eq!(rt.lookup_int(x(i as u8)), i as Preg);
            assert_eq!(rt.lookup_fp(f(i as u8)), i as Preg);
        }
        assert_eq!(rt.int_free_count(), 32);
    }

    #[test]
    fn rename_allocates_and_remembers_old() {
        let mut rt = RenameTables::new(64, 64);
        let (n1, o1) = rt.rename_int_dest(x(3)).unwrap();
        assert_eq!(o1, 3);
        assert_eq!(rt.lookup_int(x(3)), n1);
        let (n2, o2) = rt.rename_int_dest(x(3)).unwrap();
        assert_eq!(o2, n1);
        assert_ne!(n1, n2);
    }

    #[test]
    fn free_list_exhaustion_returns_none() {
        let mut rt = RenameTables::new(33, 33);
        assert!(rt.rename_int_dest(x(1)).is_some());
        assert!(rt.rename_int_dest(x(2)).is_none());
        // Freeing replenishes.
        rt.free_int(32);
        assert!(rt.rename_int_dest(x(2)).is_some());
    }

    #[test]
    #[should_panic(expected = "x0 is not renamable")]
    fn renaming_x0_is_a_bug() {
        let mut rt = RenameTables::new(64, 64);
        let _ = rt.rename_int_dest(x(0));
    }
}
