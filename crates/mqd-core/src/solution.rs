//! Solution container shared by all MQDP algorithms.

/// The result of running an MQDP algorithm: the selected post indices (into
/// `Instance::posts`, sorted ascending) plus bookkeeping for the experiment
/// harness.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Name of the producing algorithm ("OPT", "GreedySC", "Scan", ...).
    pub algorithm: &'static str,
    /// Selected post indices, sorted ascending, duplicate-free.
    pub selected: Vec<u32>,
}

impl Solution {
    /// Builds a solution, normalizing (sorting + deduplicating) the selected
    /// indices.
    pub fn new(algorithm: &'static str, mut selected: Vec<u32>) -> Self {
        selected.sort_unstable();
        selected.dedup();
        Solution {
            algorithm,
            selected,
        }
    }

    /// Number of selected posts — the objective MQDP minimizes.
    #[inline]
    pub fn size(&self) -> usize {
        self.selected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_selection() {
        let s = Solution::new("test", vec![3, 1, 3, 2]);
        assert_eq!(s.selected, vec![1, 2, 3]);
        assert_eq!(s.size(), 3);
    }
}
