//! The sparse matching graph derived from a detector error model.

use crate::local::GraphIndex;
use qec_circuit::{Circuit, DetectorCoord, DetectorErrorModel, ErrorMechanism};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Merged-edge accumulator keyed by detector pair (`u32::MAX` = boundary):
/// total probability plus per-observable-mask probability votes.
type MergedEdges = HashMap<(u32, u32), (f64, HashMap<u32, f64>)>;

/// Minimum probability an edge can carry; prevents infinite weights for
/// pathological inputs.
const MIN_EDGE_PROBABILITY: f64 = 1e-30;

/// How an error manifests in the space-time decoding graph (paper §4.1,
/// Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A data-qubit error: both detectors in the same round (Figure 5a).
    Space,
    /// A measurement/reset error: the same stabilizer in two consecutive
    /// rounds (Figure 5b).
    Time,
    /// A CNOT (hook) error propagating in both space and time
    /// (Figure 5c).
    SpaceTime,
    /// An error chain terminating on the lattice boundary.
    Boundary,
}

impl std::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EdgeKind::Space => "space",
            EdgeKind::Time => "time",
            EdgeKind::SpaceTime => "space-time",
            EdgeKind::Boundary => "boundary",
        };
        f.write_str(s)
    }
}

/// One CSR adjacency entry: an internal edge as seen from one endpoint,
/// with its weight and observable mask inlined, so a relaxation scans
/// one contiguous row instead of chasing edge indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdjEntry {
    pub(crate) nbr: u32,
    pub(crate) obs: u32,
    pub(crate) weight: f64,
}

/// One weighted edge of a [`MatchingGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// First endpoint (a detector index).
    pub u: u32,
    /// Second endpoint, or `None` for a boundary edge.
    pub v: Option<u32>,
    /// Total probability that some error flips exactly this detector pair.
    pub probability: f64,
    /// Edge weight, `−log₁₀(probability)`, clamped to be non-negative.
    pub weight: f64,
    /// Logical observables flipped by the underlying error.
    pub observables: u32,
}

impl Edge {
    fn key(&self) -> (u32, u32) {
        match self.v {
            Some(v) => (self.u.min(v), self.u.max(v)),
            None => (self.u, u32::MAX),
        }
    }
}

/// The sparse detector graph used for matching-based decoding.
///
/// Nodes are detector indices `0..num_detectors`; each edge corresponds to
/// an elementary error mechanism (or a decomposed component of a
/// multi-detector mechanism). A boundary edge (`v == None`) represents an
/// error flipping a single detector, i.e. an error chain terminating on the
/// lattice boundary.
#[derive(Debug, Clone)]
pub struct MatchingGraph {
    num_detectors: usize,
    num_observables: usize,
    edges: Vec<Edge>,
    /// CSR adjacency over internal edges: detector `u`'s row is
    /// `adj[adj_head[u]..adj_head[u + 1]]`, in edge order. Every
    /// shortest-path search of the crate scans these rows.
    adj_head: Vec<u32>,
    adj: Vec<AdjEntry>,
    /// Each detector's boundary edge, as an index into `edges`
    /// (`u32::MAX` = none).
    boundary: Vec<u32>,
    coords: Vec<DetectorCoord>,
    /// Mechanisms whose symptom sets required decomposition into edges.
    decomposed_mechanisms: usize,
    /// The GWT-free lower-bound index, built on first use and shared by
    /// every local weight provider over this graph (see [`GraphIndex`]).
    local_index: OnceLock<GraphIndex>,
}

impl MatchingGraph {
    /// Builds the matching graph for a circuit by extracting its detector
    /// error model and decomposing every mechanism into 1- and 2-detector
    /// edges.
    pub fn from_circuit(circuit: &Circuit) -> MatchingGraph {
        let dem = circuit.detector_error_model();
        MatchingGraph::build(circuit, &dem)
    }

    /// Builds the matching graph from a circuit and its (already extracted)
    /// detector error model.
    ///
    /// Mechanisms flipping one or two detectors map directly to edges.
    /// Mechanisms flipping three or four detectors (correlated two-qubit
    /// errors straddling two space-time edges) are decomposed into
    /// components that already exist as edges, preferring two-detector
    /// splits, falling back to coordinate-proximity pairing — the same
    /// strategy Stim's `decompose_errors` uses. Parallel edges merge with
    /// XOR-combined probability; when parallel edges disagree on the
    /// observable flip (possible only for short boundary-to-boundary chains
    /// at small distance) the higher-probability interpretation wins.
    ///
    /// # Panics
    ///
    /// Panics if the model contains an undetectable logical mechanism
    /// (these indicate a broken circuit, not a decodable code).
    pub fn build(circuit: &Circuit, dem: &DetectorErrorModel) -> MatchingGraph {
        assert!(
            dem.undetectable_logicals().is_empty(),
            "detector error model contains undetectable logical errors"
        );
        let coords: Vec<DetectorCoord> = circuit.detectors().iter().map(|d| d.coord).collect();

        // Pass 1: direct edges from 1- and 2-detector mechanisms.
        let mut merged: MergedEdges = HashMap::new();
        fn add(merged: &mut MergedEdges, u: u32, v: Option<u32>, p: f64, obs: u32) {
            let key = match v {
                Some(v) => (u.min(v), u.max(v)),
                None => (u, u32::MAX),
            };
            let slot = merged.entry(key).or_insert((0.0, HashMap::new()));
            slot.0 = slot.0 + p - 2.0 * slot.0 * p;
            *slot.1.entry(obs).or_insert(0.0) += p;
        }

        let mut deferred: Vec<&ErrorMechanism> = Vec::new();
        for m in dem.mechanisms() {
            match m.detectors.len() {
                0 => {} // no symptoms, no observable: ignorable
                1 => add(
                    &mut merged,
                    m.detectors[0],
                    None,
                    m.probability,
                    m.observables,
                ),
                2 => add(
                    &mut merged,
                    m.detectors[0],
                    Some(m.detectors[1]),
                    m.probability,
                    m.observables,
                ),
                _ => deferred.push(m),
            }
        }

        // Pass 2: decompose larger mechanisms using the edges discovered in
        // pass 1.
        let mut decomposed = 0usize;
        for m in &deferred {
            decomposed += 1;
            let parts = decompose(&m.detectors, m.observables, &merged, &coords);
            for (u, v, obs) in parts {
                add(&mut merged, u, v, m.probability, obs);
            }
        }

        let mut edges: Vec<Edge> = merged
            .into_iter()
            .map(|((a, b), (p, obs_votes))| {
                let p = p.clamp(MIN_EDGE_PROBABILITY, 1.0 - 1e-15);
                // Majority (by probability mass) observable interpretation.
                let observables = obs_votes
                    .into_iter()
                    .max_by(|x, y| x.1.total_cmp(&y.1))
                    .map(|(obs, _)| obs)
                    .unwrap_or(0);
                Edge {
                    u: a,
                    v: (b != u32::MAX).then_some(b),
                    probability: p,
                    weight: (-p.log10()).max(0.0),
                    observables,
                }
            })
            .collect();
        edges.sort_by_key(Edge::key);

        let n = dem.num_detectors();
        let mut boundary = vec![u32::MAX; n];
        let mut half = Vec::new();
        for (i, e) in edges.iter().enumerate() {
            let Some(v) = e.v else {
                boundary[e.u as usize] = i as u32;
                continue;
            };
            for (a, b) in [(e.u, v), (v, e.u)] {
                let entry = AdjEntry {
                    nbr: b,
                    obs: e.observables,
                    weight: e.weight,
                };
                half.push((a, entry));
            }
        }
        // Stable, so each row keeps edge order.
        half.sort_by_key(|&(a, _)| a);
        let mut adj_head = vec![0u32; n + 1];
        for &(a, _) in &half {
            adj_head[a as usize + 1] += 1;
        }
        for u in 0..n {
            adj_head[u + 1] += adj_head[u];
        }

        MatchingGraph {
            num_detectors: n,
            num_observables: dem.num_observables(),
            edges,
            adj_head,
            adj: half.into_iter().map(|(_, entry)| entry).collect(),
            boundary,
            coords,
            decomposed_mechanisms: decomposed,
            local_index: OnceLock::new(),
        }
    }

    /// The syndrome-independent lower-bound index the GWT-free weight
    /// providers read, built on the first call and shared afterwards, so
    /// graph construction never pays for it and every provider over this
    /// graph borrows one copy.
    pub(crate) fn local_index(&self) -> &GraphIndex {
        self.local_index.get_or_init(|| GraphIndex::build(self))
    }

    /// Whether [`Self::local_index`] has been built yet.
    #[cfg(test)]
    pub(crate) fn local_index_built(&self) -> bool {
        self.local_index.get().is_some()
    }

    /// Number of detector nodes.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// All edges, sorted by endpoints.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The adjacency row of detector `u`: its internal edges, in edge
    /// order.
    #[inline]
    pub(crate) fn adj(&self, u: u32) -> &[AdjEntry] {
        &self.adj[self.adj_head[u as usize] as usize..self.adj_head[u as usize + 1] as usize]
    }

    /// Index into [`Self::edges`] of the internal edge joining `a` and
    /// `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not adjacent.
    pub(crate) fn edge_index(&self, a: u32, b: u32) -> u32 {
        self.edges
            .binary_search_by_key(&(a.min(b), a.max(b)), Edge::key)
            .expect("adjacent detectors share an edge") as u32
    }

    /// The space-time coordinate of a detector.
    pub fn coord(&self, detector: u32) -> DetectorCoord {
        self.coords[detector as usize]
    }

    /// Internal neighbors of a detector with their connecting edge, in
    /// adjacency order. Boundary edges are skipped (see
    /// [`Self::boundary_edge`]).
    pub fn neighbors(&self, detector: u32) -> impl Iterator<Item = (u32, &Edge)> + '_ {
        self.adj(detector).iter().map(move |a| {
            let e = &self.edges[self.edge_index(detector, a.nbr) as usize];
            (a.nbr, e)
        })
    }

    /// All boundary edges (errors flipping a single detector), in
    /// endpoint order.
    pub fn boundary_edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter().filter(|e| e.v.is_none())
    }

    /// How many mechanisms needed decomposition into multiple edges.
    pub fn decomposed_mechanisms(&self) -> usize {
        self.decomposed_mechanisms
    }

    /// The boundary edge of a detector, if it has one.
    pub fn boundary_edge(&self, detector: u32) -> Option<&Edge> {
        self.boundary_index(detector)
            .map(|i| &self.edges[i as usize])
    }

    /// Index into [`Self::edges`] of a detector's boundary edge, if it has
    /// one.
    pub(crate) fn boundary_index(&self, detector: u32) -> Option<u32> {
        let i = self.boundary[detector as usize];
        (i != u32::MAX).then_some(i)
    }

    /// Classifies an edge as a space, time, space-time, or boundary event
    /// (paper §4.1) from its endpoints' space-time coordinates.
    pub fn edge_kind(&self, edge: &Edge) -> EdgeKind {
        let Some(v) = edge.v else {
            return EdgeKind::Boundary;
        };
        let (cu, cv) = (self.coord(edge.u), self.coord(v));
        let same_place = cu.row == cv.row && cu.col == cv.col;
        let same_round = cu.round == cv.round;
        match (same_place, same_round) {
            (true, false) => EdgeKind::Time,
            (false, true) => EdgeKind::Space,
            _ => EdgeKind::SpaceTime,
        }
    }

    /// Total error-probability mass per edge kind — how much of the noise
    /// manifests as each of §4.1's event classes.
    pub fn probability_by_kind(&self) -> Vec<(EdgeKind, f64, usize)> {
        use std::collections::HashMap;
        let mut acc: HashMap<EdgeKind, (f64, usize)> = HashMap::new();
        for e in &self.edges {
            let slot = acc.entry(self.edge_kind(e)).or_insert((0.0, 0));
            slot.0 += e.probability;
            slot.1 += 1;
        }
        let mut out: Vec<(EdgeKind, f64, usize)> =
            acc.into_iter().map(|(k, (p, n))| (k, p, n)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// Splits a 3- or 4-detector symptom set into 1- and 2-detector components.
///
/// Preference order: splits whose every component already exists as an edge
/// (pass-1 edges), then coordinate-proximity pairing. The observable mask is
/// assigned to the first component of the split; the rest carry no
/// observable (the decomposition is an approximation — the correlated error
/// is modeled as its components triggering together).
fn decompose(
    dets: &[u32],
    obs: u32,
    existing: &MergedEdges,
    coords: &[DetectorCoord],
) -> Vec<(u32, Option<u32>, u32)> {
    let has_pair = |a: u32, b: u32| existing.contains_key(&(a.min(b), a.max(b)));
    let has_boundary = |a: u32| existing.contains_key(&(a, u32::MAX));
    let dist = |a: u32, b: u32| {
        let (ca, cb) = (coords[a as usize], coords[b as usize]);
        ca.row.abs_diff(cb.row) + ca.col.abs_diff(cb.col) + 2 * ca.round.abs_diff(cb.round)
    };

    match dets {
        [a, b, c] => {
            // Try (pair, boundary) splits in all three arrangements, best
            // (existing-edge) first.
            let options = [(*a, *b, *c), (*a, *c, *b), (*b, *c, *a)];
            for (x, y, z) in options {
                if has_pair(x, y) && has_boundary(z) {
                    return vec![(x, Some(y), obs), (z, None, 0)];
                }
            }
            // Fallback: pair the two closest detectors.
            let best = options
                .into_iter()
                .min_by_key(|&(x, y, _)| dist(x, y))
                .expect("three options");
            vec![(best.0, Some(best.1), obs), (best.2, None, 0)]
        }
        [a, b, c, d] => {
            let pairings = [
                ((*a, *b), (*c, *d)),
                ((*a, *c), (*b, *d)),
                ((*a, *d), (*b, *c)),
            ];
            for ((x, y), (z, w)) in pairings {
                if has_pair(x, y) && has_pair(z, w) {
                    return vec![(x, Some(y), obs), (z, Some(w), 0)];
                }
            }
            let ((x, y), (z, w)) = pairings
                .into_iter()
                .min_by_key(|&((x, y), (z, w))| dist(x, y) + dist(z, w))
                .expect("three pairings");
            vec![(x, Some(y), obs), (z, Some(w), 0)]
        }
        _ => {
            // Very rare at circuit-level depolarizing noise; greedily peel
            // nearest pairs.
            let mut rest: Vec<u32> = dets.to_vec();
            let mut out = Vec::new();
            let mut first = true;
            while rest.len() >= 2 {
                let a = rest[0];
                let (bi, _) = rest
                    .iter()
                    .enumerate()
                    .skip(1)
                    .min_by_key(|(_, &b)| dist(a, b))
                    .expect("nonempty rest");
                let b = rest.remove(bi);
                rest.remove(0);
                out.push((a, Some(b), if first { obs } else { 0 }));
                first = false;
            }
            if let Some(&last) = rest.first() {
                out.push((last, None, if first { obs } else { 0 }));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_circuit::{build_memory_z_circuit, NoiseModel};
    use surface_code::SurfaceCode;

    fn graph(d: usize, p: f64) -> MatchingGraph {
        let code = SurfaceCode::new(d).unwrap();
        let circuit = build_memory_z_circuit(&code, d, NoiseModel::depolarizing(p));
        MatchingGraph::from_circuit(&circuit)
    }

    #[test]
    fn every_detector_has_incident_edges() {
        let g = graph(3, 1e-3);
        for det in 0..g.num_detectors() as u32 {
            assert!(
                g.neighbors(det).next().is_some() || g.boundary_edge(det).is_some(),
                "detector {det} is isolated"
            );
        }
    }

    #[test]
    fn edges_are_deduplicated() {
        let g = graph(3, 1e-3);
        let mut keys: Vec<(u32, u32)> = g.edges().iter().map(Edge::key).collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate edges present");
    }

    #[test]
    fn weights_are_positive_and_match_probability() {
        let g = graph(5, 1e-3);
        for e in g.edges() {
            assert!(e.probability > 0.0 && e.probability < 0.5);
            assert!((e.weight - (-e.probability.log10())).abs() < 1e-9);
            assert!(e.weight > 0.0);
        }
    }

    #[test]
    fn boundary_edges_exist_only_near_lattice_boundary() {
        // Boundary edges arise from errors flipping a single detector, which
        // happens for data qubits adjacent to the left/right (X-type)
        // boundaries. There must be some, but not on every detector.
        let g = graph(5, 1e-3);
        let with_boundary = (0..g.num_detectors() as u32)
            .filter(|&d| g.boundary_edge(d).is_some())
            .count();
        assert!(with_boundary > 0);
        assert!(with_boundary < g.num_detectors());
    }

    #[test]
    fn neighbors_are_symmetric_and_internal() {
        let g = graph(3, 1e-3);
        for det in 0..g.num_detectors() as u32 {
            for (other, e) in g.neighbors(det) {
                assert_ne!(other, det);
                assert!(e.v.is_some());
                assert!(
                    g.neighbors(other).any(|(back, _)| back == det),
                    "neighbor relation not symmetric for ({det}, {other})"
                );
            }
        }
    }

    #[test]
    fn boundary_edges_iterator_agrees_with_per_detector_lookup() {
        let g = graph(5, 1e-3);
        let via_iter = g.boundary_edges().count();
        let via_lookup = (0..g.num_detectors() as u32)
            .filter(|&d| g.boundary_edge(d).is_some())
            .count();
        assert_eq!(via_iter, via_lookup);
        assert!(via_iter > 0);
        for e in g.boundary_edges() {
            assert!(e.v.is_none());
        }
    }

    #[test]
    fn some_edges_cross_the_logical() {
        let g = graph(3, 1e-3);
        assert!(
            g.edges().iter().any(|e| e.observables != 0),
            "no edge flips the observable — corrections could never flip logicals"
        );
    }

    #[test]
    fn z_restricted_model_needs_no_decomposition() {
        // Restricting detectors to one stabilizer basis makes every
        // circuit-level depolarizing mechanism fold to at most two symptoms,
        // so the decomposition fallback is never exercised by the memory
        // circuits (it is covered by the synthetic tests below).
        let g = graph(5, 1e-3);
        assert_eq!(g.decomposed_mechanisms(), 0);
    }

    #[test]
    fn graph_scales_with_distance() {
        let g3 = graph(3, 1e-3);
        let g5 = graph(5, 1e-3);
        assert_eq!(g3.num_detectors(), 16);
        assert_eq!(g5.num_detectors(), 72);
        assert!(g5.edges().len() > g3.edges().len());
    }

    #[test]
    fn edge_kinds_cover_all_four_classes() {
        // Circuit-level noise on a multi-round memory experiment produces
        // all of §4.1's event classes.
        let g = graph(5, 1e-3);
        let kinds = g.probability_by_kind();
        let present: Vec<EdgeKind> = kinds.iter().map(|&(k, _, _)| k).collect();
        for expected in [
            EdgeKind::Space,
            EdgeKind::Time,
            EdgeKind::SpaceTime,
            EdgeKind::Boundary,
        ] {
            assert!(present.contains(&expected), "missing {expected} edges");
        }
    }

    #[test]
    fn time_edges_connect_same_stabilizer_across_rounds() {
        let g = graph(3, 1e-3);
        for e in g.edges() {
            if g.edge_kind(e) == EdgeKind::Time {
                let v = e.v.expect("time edges are internal");
                let (cu, cv) = (g.coord(e.u), g.coord(v));
                assert_eq!((cu.row, cu.col), (cv.row, cv.col));
                assert_ne!(cu.round, cv.round);
            }
        }
    }

    #[test]
    fn phenomenological_noise_has_no_space_time_edges() {
        // With gate noise disabled, only data errors (space) and
        // measurement errors (time) remain — no hooks.
        use qec_circuit::NoiseModel;
        let code = SurfaceCode::new(3).unwrap();
        let noise = NoiseModel::depolarizing(1e-3).with_gate(0.0);
        let circuit = build_memory_z_circuit(&code, 3, noise);
        let g = MatchingGraph::from_circuit(&circuit);
        for e in g.edges() {
            assert_ne!(
                g.edge_kind(e),
                EdgeKind::SpaceTime,
                "hook edge without gate noise: {e:?}"
            );
        }
    }

    #[test]
    fn decompose_prefers_existing_edges() {
        let mut existing = HashMap::new();
        existing.insert((0u32, 1u32), (0.1, HashMap::new()));
        existing.insert((2u32, u32::MAX), (0.1, HashMap::new()));
        let coords = vec![DetectorCoord::default(); 3];
        let parts = decompose(&[0, 1, 2], 1, &existing, &coords);
        assert_eq!(parts, vec![(0, Some(1), 1), (2, None, 0)]);
    }

    #[test]
    fn decompose_falls_back_to_proximity() {
        let existing = HashMap::new();
        let coords = vec![
            DetectorCoord {
                row: 0,
                col: 0,
                round: 0,
            },
            DetectorCoord {
                row: 0,
                col: 2,
                round: 0,
            },
            DetectorCoord {
                row: 8,
                col: 8,
                round: 3,
            },
            DetectorCoord {
                row: 8,
                col: 10,
                round: 3,
            },
        ];
        let parts = decompose(&[0, 1, 2, 3], 0, &existing, &coords);
        assert_eq!(parts.len(), 2);
        // Closest pairing is (0,1) and (2,3).
        assert!(parts.contains(&(0, Some(1), 0)));
        assert!(parts.contains(&(2, Some(3), 0)));
    }
}
