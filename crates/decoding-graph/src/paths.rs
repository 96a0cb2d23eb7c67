//! Shortest-path reconstruction: turning a matching into a physical
//! correction.
//!
//! The Global Weight Table stores only the *weight* and *observable
//! parity* of the most likely error chain between two detectors — all a
//! memory experiment needs. A real control system, however, applies the
//! correction (or tracks it in its Pauli frame), which requires the actual
//! chain: the sequence of matching-graph edges along the shortest path
//! (§2.2: "errors are corrected using the shortest path between the parity
//! qubits"). This module reconstructs those chains on demand.

use crate::dijkstra::Dijkstra;
use crate::graph::MatchingGraph;

/// Reconstructs shortest correction chains over a matching graph.
///
/// Runs Dijkstra per query; for bulk decoding keep the
/// [`GlobalWeightTable`](crate::GlobalWeightTable) and only reconstruct
/// chains for the matchings actually applied.
///
/// ```
/// use decoding_graph::{DecodingContext, PathReconstructor};
/// use qec_circuit::NoiseModel;
/// use surface_code::SurfaceCode;
///
/// let code = SurfaceCode::new(3)?;
/// let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3));
/// let paths = PathReconstructor::new(ctx.graph());
/// let chain = paths.pair_path(0, 1).expect("detectors are connected");
/// let total: f64 = chain.iter().map(|&e| ctx.graph().edges()[e as usize].weight).sum();
/// assert!((total - ctx.gwt().pair_weight(0, 1)).abs() < 1e-9);
/// # Ok::<(), surface_code::InvalidDistance>(())
/// ```
#[derive(Debug, Clone)]
pub struct PathReconstructor<'a> {
    graph: &'a MatchingGraph,
}

impl<'a> PathReconstructor<'a> {
    /// Creates a reconstructor over the graph.
    pub fn new(graph: &'a MatchingGraph) -> PathReconstructor<'a> {
        PathReconstructor { graph }
    }

    /// The edge ids of the minimum-weight chain flipping detectors `u` and
    /// `v`, or `None` if they are not connected without crossing the
    /// boundary.
    pub fn pair_path(&self, u: u32, v: u32) -> Option<Vec<u32>> {
        let mut search = Dijkstra::new(self.graph.num_detectors());
        search.run(self.graph, [(u, 0.0, 0)], f64::INFINITY, |x, _, _| x != v);
        search.reached(v)?;
        Some(self.trace(&search, u, v))
    }

    /// The edge ids of the minimum-weight chain connecting detector `u` to
    /// the lattice boundary (ending in a boundary edge), or `None` if the
    /// graph has no boundary reachable from `u`.
    pub fn boundary_path(&self, u: u32) -> Option<Vec<u32>> {
        let mut search = Dijkstra::new(self.graph.num_detectors());
        let mut best: Option<(f64, u32, u32)> = None; // (cost, node, boundary edge)
        search.run(self.graph, [(u, 0.0, 0)], f64::INFINITY, |x, d, _| {
            if let Some(be) = self.graph.boundary_index(x) {
                let cost = d + self.graph.edges()[be as usize].weight;
                if best.is_none_or(|(c, _, _)| cost < c) {
                    best = Some((cost, x, be));
                }
            }
            true
        });
        let (_, node, edge) = best?;
        let mut path = self.trace(&search, u, node);
        path.push(edge);
        Some(path)
    }

    /// The edge ids of the chain from `src` to `to` in the shortest-path
    /// tree of `search`, which settled `to`. A node's tree edge is the
    /// one whose relaxation set its final distance. Relaxation replaces
    /// only on strict `<` and settles run in `(distance, node)` order, so
    /// that is the edge from the first-settled neighbour `x` with
    /// `d(x) + w = d(to)`; only neighbours with a smaller key than `to`
    /// settled before it.
    fn trace(&self, search: &Dijkstra, src: u32, mut to: u32) -> Vec<u32> {
        let mut path = Vec::new();
        while to != src {
            let d = search.reached(to).expect("traced node was reached");
            let (_, prev) = self
                .graph
                .adj(to)
                .iter()
                .filter_map(|e| {
                    let dx = search.reached(e.nbr)?;
                    let key = (dx.to_bits(), e.nbr);
                    (dx + e.weight == d && key < (d.to_bits(), to)).then_some(key)
                })
                .min()
                .expect("a reached node has a tree edge");
            path.push(self.graph.edge_index(prev, to));
            to = prev;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DecodingContext;
    use qec_circuit::NoiseModel;
    use surface_code::SurfaceCode;

    fn ctx() -> DecodingContext {
        let code = SurfaceCode::new(5).unwrap();
        DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3))
    }

    #[test]
    fn pair_path_weight_matches_gwt() {
        let ctx = ctx();
        let recon = PathReconstructor::new(ctx.graph());
        let n = ctx.gwt().len() as u32;
        for (u, v) in [(0u32, 1u32), (0, n - 1), (3, 17), (n / 2, n / 2 + 5)] {
            let expected = ctx.gwt().pair_weight(u, v);
            match recon.pair_path(u, v) {
                Some(path) => {
                    let total: f64 = path
                        .iter()
                        .map(|&e| ctx.graph().edges()[e as usize].weight)
                        .sum();
                    assert!(
                        (total - expected).abs() < 1e-9,
                        "({u},{v}): path {total} vs gwt {expected}"
                    );
                }
                None => assert!(expected.is_infinite()),
            }
        }
    }

    #[test]
    fn pair_path_obs_parity_matches_gwt() {
        let ctx = ctx();
        let recon = PathReconstructor::new(ctx.graph());
        let n = ctx.gwt().len() as u32;
        let mut checked = 0;
        for u in (0..n).step_by(7) {
            for v in (1..n).step_by(11) {
                if u == v {
                    continue;
                }
                if let Some(path) = recon.pair_path(u, v) {
                    let obs = path.iter().fold(0u32, |acc, &e| {
                        acc ^ ctx.graph().edges()[e as usize].observables
                    });
                    assert_eq!(obs, ctx.gwt().pair_obs(u, v), "({u},{v})");
                    // Summed from `u` in path order, the chain's weight is
                    // the table's distance bit for bit: both come from the
                    // same relaxations.
                    let weight = path
                        .iter()
                        .fold(0.0, |acc, &e| acc + ctx.graph().edges()[e as usize].weight);
                    assert_eq!(
                        weight.to_bits(),
                        ctx.gwt().pair_weight(u, v).to_bits(),
                        "({u},{v})"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 20);
    }

    #[test]
    fn pair_path_endpoints_telescope() {
        // XOR-ing each edge's endpoints must leave exactly {u, v}.
        let ctx = ctx();
        let recon = PathReconstructor::new(ctx.graph());
        let (u, v) = (2u32, 40u32);
        let path = recon.pair_path(u, v).expect("connected");
        let mut parity = vec![false; ctx.graph().num_detectors()];
        for &ei in &path {
            let e = &ctx.graph().edges()[ei as usize];
            parity[e.u as usize] = !parity[e.u as usize];
            let w = e.v.expect("internal edge");
            parity[w as usize] = !parity[w as usize];
        }
        let flipped: Vec<u32> = parity
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect();
        assert_eq!(flipped, vec![u.min(v), u.max(v)]);
    }

    #[test]
    fn boundary_path_weight_matches_gwt() {
        let ctx = ctx();
        let recon = PathReconstructor::new(ctx.graph());
        for u in 0..ctx.gwt().len() as u32 {
            let path = recon.boundary_path(u).expect("boundary reachable");
            let total: f64 = path
                .iter()
                .map(|&e| ctx.graph().edges()[e as usize].weight)
                .sum();
            assert!(
                (total - ctx.gwt().boundary_weight(u)).abs() < 1e-9,
                "node {u}: path {total} vs gwt {}",
                ctx.gwt().boundary_weight(u)
            );
            // The path must end in exactly one boundary edge.
            let boundary_edges = path
                .iter()
                .filter(|&&e| ctx.graph().edges()[e as usize].v.is_none())
                .count();
            assert_eq!(boundary_edges, 1);
        }
    }

    #[test]
    fn direct_edges_are_never_beaten_by_much() {
        // For every internal edge, the reconstructed shortest path can only
        // be at most as heavy as the edge itself; for the cheapest edge in
        // the graph it must be the edge itself.
        let ctx = ctx();
        let recon = PathReconstructor::new(ctx.graph());
        let cheapest = ctx
            .graph()
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.v.is_some())
            .min_by(|a, b| a.1.weight.total_cmp(&b.1.weight))
            .expect("graph has internal edges");
        let path = recon
            .pair_path(cheapest.1.u, cheapest.1.v.unwrap())
            .unwrap();
        assert_eq!(path, vec![cheapest.0 as u32]);
        for e in ctx
            .graph()
            .edges()
            .iter()
            .filter(|e| e.v.is_some())
            .take(50)
        {
            let path = recon.pair_path(e.u, e.v.unwrap()).unwrap();
            let total: f64 = path
                .iter()
                .map(|&i| ctx.graph().edges()[i as usize].weight)
                .sum();
            assert!(total <= e.weight + 1e-9);
        }
    }
}
