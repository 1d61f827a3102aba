//! Uniform spatial grid index: candidate lookup for the spatiotemporal
//! coverage window. Cell side = the spatial threshold, so any post within
//! `lambda.dist` of a query point lies in the 3×3 cell neighbourhood.

use std::collections::HashMap;

/// Grid over post positions; stores post indices per cell.
#[derive(Debug)]
pub struct SpatialGrid {
    cell: i64,
    cells: HashMap<(i64, i64), Vec<u32>>,
}

impl SpatialGrid {
    /// Builds a grid with cell side `cell` (must be positive) from
    /// `(x, y)` positions; index `i` of the iterator becomes post id `i`.
    pub fn build(cell: i64, positions: impl IntoIterator<Item = (i64, i64)>) -> Self {
        assert!(cell > 0, "cell side must be positive");
        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (i, (x, y)) in positions.into_iter().enumerate() {
            cells
                .entry((x.div_euclid(cell), y.div_euclid(cell)))
                .or_default()
                .push(i as u32);
        }
        SpatialGrid { cell, cells }
    }

    /// Post indices in the 3×3 neighbourhood of `(x, y)` — a superset of
    /// everything within one cell side of the point.
    pub fn neighbourhood(&self, x: i64, y: i64) -> impl Iterator<Item = u32> + '_ {
        let cx = x.div_euclid(self.cell);
        let cy = y.div_euclid(self.cell);
        (-1..=1).flat_map(move |dx| {
            (-1..=1).flat_map(move |dy| {
                self.cells
                    .get(&(cx + dx, cy + dy))
                    .map_or(&[][..], |v| v.as_slice())
                    .iter()
                    .copied()
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbourhood_contains_all_within_radius() {
        let pts = vec![
            (0, 0),
            (50, 50),
            (99, 0),
            (150, 150),
            (-30, -30),
            (500, 500),
        ];
        let g = SpatialGrid::build(100, pts.clone());
        let near: Vec<u32> = {
            let mut v: Vec<u32> = g.neighbourhood(10, 10).collect();
            v.sort_unstable();
            v
        };
        // Everything within 100 of (10,10) must appear.
        for (i, &(x, y)) in pts.iter().enumerate() {
            let d2 = (x - 10) * (x - 10) + (y - 10) * (y - 10);
            if d2 <= 100 * 100 {
                assert!(near.contains(&(i as u32)), "missing point {i}");
            }
        }
        // The far point must not.
        assert!(!near.contains(&5));
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let g = SpatialGrid::build(10, vec![(-1, -1), (-11, -11)]);
        let n: Vec<u32> = g.neighbourhood(-1, -1).collect();
        assert!(n.contains(&0));
        assert!(n.contains(&1)); // adjacent cell
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_rejected() {
        SpatialGrid::build(0, vec![(0, 0)]);
    }
}
