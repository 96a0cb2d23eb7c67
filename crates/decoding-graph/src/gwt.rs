//! The Global Weight Table (paper §5.1).

use crate::dijkstra::Dijkstra;
use crate::graph::MatchingGraph;
use crate::local::BoundaryTable;

/// Fixed-point subunits per unit of `−log₁₀ P` weight in the 8-bit
/// quantization (Q5.3: resolution 0.125, maximum representable weight
/// 31.875).
pub const DEFAULT_WEIGHT_SCALE: f64 = 8.0;

/// The Global Weight Table: all-pairs shortest-path weights between
/// detectors, 8-bit quantized, with boundary weights on the diagonal.
///
/// For a syndrome vector of length ℓ the table is an ℓ×ℓ matrix of 8-bit
/// weights, exactly as the paper describes (`36 KB` at d = 7 and `156 KB`
/// at d = 9 — see Table 6 and [`GlobalWeightTable::quantized_bytes`]).
/// Entry `(i, j)` is the quantized weight of the most likely error chain
/// flipping detectors `i` and `j`; entry `(i, i)` is the weight of the most
/// likely chain connecting `i` to the lattice boundary.
///
/// Alongside the hardware-faithful quantized table, the unquantized `f64`
/// weights are retained for the idealized software-MWPM baseline, and a
/// parallel matrix stores the logical-observable parity of each shortest
/// path so that a matching yields a logical-correction prediction.
#[derive(Debug, Clone)]
pub struct GlobalWeightTable {
    len: usize,
    quantized: Vec<u8>,
    exact: Vec<f64>,
    obs: Vec<u32>,
    scale: f64,
}

impl GlobalWeightTable {
    /// Computes the table from a matching graph with the default
    /// quantization scale.
    pub fn new(graph: &MatchingGraph) -> GlobalWeightTable {
        GlobalWeightTable::with_scale(graph, DEFAULT_WEIGHT_SCALE)
    }

    /// Computes the table with a custom fixed-point scale (subunits per
    /// unit weight).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_scale(graph: &MatchingGraph, scale: f64) -> GlobalWeightTable {
        let boundary = BoundaryTable::with_scale(graph, scale);
        GlobalWeightTable::with_scale_and_boundary(graph, scale, &boundary)
    }

    /// [`Self::with_scale`] reusing an already-built [`BoundaryTable`]
    /// (which must have been built with the same `scale`) for the
    /// diagonal, so a context that keeps both never runs the multi-source
    /// boundary Dijkstra twice.
    pub(crate) fn with_scale_and_boundary(
        graph: &MatchingGraph,
        scale: f64,
        boundary: &BoundaryTable,
    ) -> GlobalWeightTable {
        assert!(scale > 0.0 && scale.is_finite(), "invalid scale {scale}");
        let n = graph.num_detectors();
        let mut gwt = GlobalWeightTable {
            len: n,
            quantized: vec![u8::MAX; n * n],
            exact: vec![f64::INFINITY; n * n],
            obs: vec![0; n * n],
            scale,
        };

        // Dijkstra from every source over the detector-only graph (pair
        // paths may not hop through the boundary: matching both endpoints
        // to the boundary is a separate option decoders take via the
        // diagonal weights). Distances carry the observable parity of the
        // shortest path; unreachable pairs keep `INFINITY`.
        let mut search = Dijkstra::new(n);
        for src in 0..n {
            let row = src * n;
            search.run(
                graph,
                [(src as u32, 0.0, 0)],
                f64::INFINITY,
                |u, d, parity| {
                    let at = row + u as usize;
                    gwt.exact[at] = d;
                    gwt.obs[at] = parity;
                    gwt.quantized[at] = quantize(d, scale);
                    true
                },
            );
        }

        // Boundary weights on the diagonal come from the shared
        // `BoundaryTable` (the multi-source Dijkstra seeded at every
        // boundary edge), so the GWT and the GWT-free local path read
        // bit-identical boundary values by construction.
        for det in 0..n {
            gwt.exact[det * n + det] = boundary.weight(det as u32);
            gwt.obs[det * n + det] = boundary.obs(det as u32);
            gwt.quantized[det * n + det] = boundary.weight_q(det as u32);
        }

        gwt
    }

    /// Builds a table directly from raw entries — the programmable-GWT
    /// path (§8.2): control software computes weights from the current
    /// device calibration and writes them into the decoder's table.
    ///
    /// `exact` and `obs` are row-major ℓ×ℓ with boundary entries on the
    /// diagonal, in `−log₁₀ P` units; the 8-bit quantized view is derived
    /// with the given fixed-point `scale`.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not ℓ², if a weight is negative or NaN, if
    /// the matrices are not symmetric, or if `scale` is not positive and
    /// finite.
    pub fn from_parts(len: usize, exact: Vec<f64>, obs: Vec<u32>, scale: f64) -> GlobalWeightTable {
        assert!(scale > 0.0 && scale.is_finite(), "invalid scale {scale}");
        assert_eq!(exact.len(), len * len, "weight matrix must be ℓ×ℓ");
        assert_eq!(obs.len(), len * len, "observable matrix must be ℓ×ℓ");
        for i in 0..len {
            for j in 0..len {
                let w = exact[i * len + j];
                assert!(!w.is_nan() && w >= 0.0, "invalid weight {w} at ({i},{j})");
                assert_eq!(
                    w.to_bits(),
                    exact[j * len + i].to_bits(),
                    "weight matrix must be symmetric at ({i},{j})"
                );
                assert_eq!(
                    obs[i * len + j],
                    obs[j * len + i],
                    "observable matrix must be symmetric at ({i},{j})"
                );
            }
        }
        let quantized = exact.iter().map(|&w| quantize(w, scale)).collect();
        GlobalWeightTable {
            len,
            quantized,
            exact,
            obs,
            scale,
        }
    }

    /// The syndrome-vector length ℓ (number of detectors).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed-point scale (subunits per unit weight).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Quantized (hardware) weight of pairing detectors `i` and `j`
    /// (`i != j`), in fixed-point subunits.
    #[inline]
    pub fn pair_weight_q(&self, i: u32, j: u32) -> u8 {
        self.quantized[i as usize * self.len + j as usize]
    }

    /// Quantized boundary weight of detector `i`.
    #[inline]
    pub fn boundary_weight_q(&self, i: u32) -> u8 {
        self.quantized[i as usize * self.len + i as usize]
    }

    /// Exact (unquantized) pair weight in `−log₁₀ P` units; infinite if the
    /// detectors are not connected without crossing the boundary.
    #[inline]
    pub fn pair_weight(&self, i: u32, j: u32) -> f64 {
        self.exact[i as usize * self.len + j as usize]
    }

    /// Exact boundary weight.
    #[inline]
    pub fn boundary_weight(&self, i: u32) -> f64 {
        self.exact[i as usize * self.len + i as usize]
    }

    /// Observable-parity mask of the shortest path between `i` and `j`.
    #[inline]
    pub fn pair_obs(&self, i: u32, j: u32) -> u32 {
        self.obs[i as usize * self.len + j as usize]
    }

    /// Observable-parity mask of the shortest boundary path of `i`.
    #[inline]
    pub fn boundary_obs(&self, i: u32) -> u32 {
        self.obs[i as usize * self.len + i as usize]
    }

    /// Size of the quantized table in bytes (ℓ²) — the GWT line of the
    /// paper's Table 6.
    pub fn quantized_bytes(&self) -> usize {
        self.len * self.len
    }

    /// Converts a quantized fixed-point weight back to `−log₁₀ P` units.
    pub fn dequantize(&self, q: u16) -> f64 {
        q as f64 / self.scale
    }
}

/// Fixed-point quantization of a `−log₁₀ P` weight: round to the nearest
/// subunit, saturating at `u8::MAX` (which non-finite weights map to).
/// Every quantized cell is this function of an exact weight: the table's
/// `u8` rows and diagonal, [`BoundaryTable::weight_q`], and the
/// quantized `MwpmDecoder`'s one domain map, which reads each exact
/// weight from either backend and quantizes it at one point (the
/// closed form's integer operands, `quantize(w, scale) / scale` for
/// everything else, the deep solve's pricing bounds included). So the
/// table and the GWT-free local path derive bit-identical quantized
/// views, at any scale. Monotone in `weight`, so it maps a lower bound
/// to a lower bound.
pub fn quantize(weight: f64, scale: f64) -> u8 {
    if !weight.is_finite() {
        return u8::MAX;
    }
    (weight * scale).round().clamp(0.0, u8::MAX as f64) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_circuit::{build_memory_z_circuit, NoiseModel};
    use surface_code::SurfaceCode;

    fn gwt(d: usize, p: f64) -> GlobalWeightTable {
        let code = SurfaceCode::new(d).unwrap();
        let circuit = build_memory_z_circuit(&code, d, NoiseModel::depolarizing(p));
        GlobalWeightTable::new(&MatchingGraph::from_circuit(&circuit))
    }

    #[test]
    fn table_is_symmetric() {
        let t = gwt(3, 1e-3);
        for i in 0..t.len() as u32 {
            for j in 0..t.len() as u32 {
                assert_eq!(t.pair_weight_q(i, j), t.pair_weight_q(j, i));
                assert_eq!(t.pair_obs(i, j), t.pair_obs(j, i));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_exactly() {
        // Shortest-path distances always satisfy the triangle inequality.
        let t = gwt(3, 1e-3);
        let n = t.len() as u32;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if i != j && j != k && i != k {
                        assert!(
                            t.pair_weight(i, k) <= t.pair_weight(i, j) + t.pair_weight(j, k) + 1e-9
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_weights_are_finite() {
        // Every detector can reach the boundary through the graph.
        let t = gwt(5, 1e-3);
        for i in 0..t.len() as u32 {
            assert!(t.boundary_weight(i).is_finite(), "detector {i}");
            assert!(t.boundary_weight_q(i) < u8::MAX);
        }
    }

    #[test]
    fn paper_table_6_gwt_sizes() {
        assert_eq!(gwt(7, 1e-3).quantized_bytes(), 36 * 1024); // 36 KB at d = 7
                                                               // d = 9 is ℓ = 400 → 160 000 B = 156.25 KiB, the paper's "156KB".
        let code = SurfaceCode::new(9).unwrap();
        let len = code.resources().syndrome_len_per_basis;
        assert_eq!(len * len, 160_000);
    }

    #[test]
    fn quantization_roundtrip() {
        let t = gwt(3, 1e-3);
        for i in 0..t.len() as u32 {
            for j in 0..t.len() as u32 {
                let exact = if i == j {
                    t.boundary_weight(i)
                } else {
                    t.pair_weight(i, j)
                };
                let q = if i == j {
                    t.boundary_weight_q(i)
                } else {
                    t.pair_weight_q(i, j)
                };
                if exact.is_finite() && exact < 31.0 {
                    assert!(
                        (t.dequantize(q as u16) - exact).abs() <= 0.5 / t.scale() + 1e-9,
                        "({i},{j}): exact {exact}, quantized {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn nearby_detectors_are_cheaper_than_distant_ones() {
        // Within one round-layer, adjacent stabilizers (one shared data
        // qubit) must be cheaper to pair than stabilizers at opposite
        // lattice corners.
        let code = SurfaceCode::new(5).unwrap();
        let circuit = build_memory_z_circuit(&code, 5, NoiseModel::depolarizing(1e-3));
        let g = MatchingGraph::from_circuit(&circuit);
        let t = GlobalWeightTable::new(&g);
        // Detector indices 0.. are round-0 Z stabilizers in lattice order.
        let coords: Vec<_> = (0..12u32).map(|i| g.coord(i)).collect();
        let mut best_close = f64::INFINITY;
        let mut best_far: f64 = 0.0;
        for i in 0..12u32 {
            for j in (i + 1)..12u32 {
                // Diagonally adjacent Z ancillas (sharing one data qubit)
                // sit at doubled-coordinate offset (±2, ±2).
                let dr = coords[i as usize].row.abs_diff(coords[j as usize].row);
                let dc = coords[i as usize].col.abs_diff(coords[j as usize].col);
                let w = t.pair_weight(i, j);
                if dr == 2 && dc == 2 {
                    best_close = best_close.min(w);
                } else if dr + dc >= 12 {
                    best_far = best_far.max(w.min(1e6));
                }
            }
        }
        assert!(
            best_close < best_far,
            "close pairs ({best_close}) should be cheaper than far pairs ({best_far})"
        );
    }

    #[test]
    fn weight_of_single_error_pair_tracks_probability() {
        // An adjacent detector pair at p = 1e-3 should have weight around
        // −log10(O(p)) ∈ (2, 4).
        let t = gwt(3, 1e-3);
        let mut min_w = f64::INFINITY;
        for i in 0..t.len() as u32 {
            for j in 0..t.len() as u32 {
                if i != j {
                    min_w = min_w.min(t.pair_weight(i, j));
                }
            }
        }
        assert!(min_w > 2.0 && min_w < 4.0, "min pair weight {min_w}");
    }

    #[test]
    fn dequantize_inverts_scale() {
        let t = gwt(3, 1e-3);
        assert_eq!(t.dequantize(16), 2.0);
    }

    #[test]
    fn gathers_match_single_entry_accessors() {
        // Every quantized cell, diagonal included, is `quantize` of the
        // exact cell at the table's scale: the invariant that lets the
        // decoder derive its quantized view from the exact weights alone.
        fn assert_cells_quantize_exact(t: &GlobalWeightTable) {
            let n = t.len() as u32;
            for i in 0..n {
                assert_eq!(
                    t.boundary_weight_q(i),
                    quantize(t.boundary_weight(i), t.scale()),
                    "boundary {i} at scale {}",
                    t.scale()
                );
                for j in 0..n {
                    assert_eq!(
                        t.pair_weight_q(i, j),
                        quantize(t.pair_weight(i, j), t.scale()),
                        "({i},{j}) at scale {}",
                        t.scale()
                    );
                }
            }
        }
        let code = SurfaceCode::new(3).unwrap();
        let circuit = build_memory_z_circuit(&code, 3, NoiseModel::depolarizing(2e-3));
        let g = MatchingGraph::from_circuit(&circuit);
        let built = GlobalWeightTable::new(&g);
        assert_cells_quantize_exact(&built);
        assert_cells_quantize_exact(&GlobalWeightTable::with_scale(&g, 10.0));
        // A programmed table: the built weights symmetrized, one pair
        // disconnected, at a scale that is not a power of two.
        let n = built.len();
        let mut exact = vec![0.0; n * n];
        let mut obs = vec![0; n * n];
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (i.min(j) as u32, i.max(j) as u32);
                exact[i * n + j] = built.pair_weight(a, b);
                obs[i * n + j] = built.pair_obs(a, b);
            }
        }
        exact[1] = f64::INFINITY;
        exact[n] = f64::INFINITY;
        let programmed = GlobalWeightTable::from_parts(n, exact, obs, 6.0);
        assert_eq!(programmed.pair_weight_q(0, 1), u8::MAX);
        assert_cells_quantize_exact(&programmed);
    }
}
