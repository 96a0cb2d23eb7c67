//! The crate's one shortest-path kernel.
//!
//! Every distance the crate computes comes from [`Dijkstra::run`] over
//! [`MatchingGraph`]'s adjacency: the Global Weight Table rows, the
//! boundary table, the ALT landmark rows, the staged and on-demand
//! blocks, the price-and-repair searches and the reconstructed chains.
//! Nodes settle in `(distance, node)` order and a relaxation replaces a
//! tentative distance only when strictly smaller, so a search stopped
//! early is a prefix of the full one and settles the same bits. That is
//! what makes a staged pair weight bit-identical to its table entry.

use crate::graph::MatchingGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Packed per-node search state: distance, stamp and path parity in one
/// 16-byte record, so a relaxation's stamp check, distance compare and
/// parity read all hit one cache line.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    dist: f64,
    stamp: u32,
    parity: u32,
}

/// Order-isomorphic heap key: distances are nonnegative and finite, so
/// the IEEE bit pattern orders exactly as the value and
/// `(bits(d) << 32) | node` compares as the lexicographic pair
/// `(d, node)` in one integer compare.
#[inline]
fn heap_key(d: f64, node: u32) -> u128 {
    ((d.to_bits() as u128) << 32) | node as u128
}

/// Reusable Dijkstra scratch over one graph's detectors: stamped node
/// states (no per-search clearing) and the heap.
#[derive(Debug, Clone)]
pub(crate) struct Dijkstra {
    node: Vec<NodeState>,
    epoch: u32,
    heap: BinaryHeap<Reverse<u128>>,
}

impl Dijkstra {
    /// Scratch for a graph of `n` detectors.
    pub(crate) fn new(n: usize) -> Dijkstra {
        let unreached = NodeState {
            dist: f64::INFINITY,
            stamp: 0,
            parity: 0,
        };
        Dijkstra {
            node: vec![unreached; n],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// One search over the internal edges of `graph`, started from
    /// `seeds` (`(node, distance, observable parity)`). Each node is
    /// passed to `settle(node, distance, parity)` when it settles;
    /// returning `false` stops the search there, before that node's
    /// edges are relaxed. The search also stops once the next node lies
    /// past `radius`.
    ///
    /// Returns the frontier: every node left unsettled is at least this
    /// far from the seeds. It is the key the search stopped at, or
    /// `INFINITY` when the heap ran out.
    pub(crate) fn run(
        &mut self,
        graph: &MatchingGraph,
        seeds: impl IntoIterator<Item = (u32, f64, u32)>,
        radius: f64,
        mut settle: impl FnMut(u32, f64, u32) -> bool,
    ) -> f64 {
        let stamp = self.bump_epoch();
        self.heap.clear();
        for (u, d, parity) in seeds {
            self.relax(u, d, parity, stamp);
        }
        while let Some(Reverse(key)) = self.heap.pop() {
            let d = f64::from_bits((key >> 32) as u64);
            let u = key as u32;
            if d > radius {
                return d;
            }
            let nu = self.node[u as usize];
            if nu.stamp != stamp || d > nu.dist {
                continue;
            }
            if !settle(u, d, nu.parity) {
                return d;
            }
            for &e in graph.adj(u) {
                self.relax(e.nbr, d + e.weight, nu.parity ^ e.obs, stamp);
            }
        }
        f64::INFINITY
    }

    #[inline]
    fn relax(&mut self, v: u32, d: f64, parity: u32, stamp: u32) {
        let nv = &mut self.node[v as usize];
        if nv.stamp != stamp || d < nv.dist {
            *nv = NodeState {
                dist: d,
                stamp,
                parity,
            };
            self.heap.push(Reverse(heap_key(d, v)));
        }
    }

    /// The distance at which the last search reached `u`, or `None` if
    /// it never did. Final for every node the search settled.
    pub(crate) fn reached(&self, u: u32) -> Option<f64> {
        let s = self.node[u as usize];
        (s.stamp == self.epoch).then_some(s.dist)
    }

    /// Advances the stamp epoch, clearing stamps on wraparound so a stale
    /// stamp can never alias a live one.
    fn bump_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for s in &mut self.node {
                s.stamp = 0;
            }
            self.epoch = 1;
        }
        self.epoch
    }
}
