//! Seeded input generation. Everything a run feeds the program — churn
//! batches, warm-start histories, query mixes — is made here from the
//! run's `--seed` before any timing starts, so the same seed always gives
//! byte-identical inputs and the program under test never sees the seed.

use dds_net::{Edge, EventBatch, NodeId, Query};
use serde::Serialize;
use std::collections::HashMap;

/// splitmix64: small, fast and fully specified, so inputs do not change
/// when a vendored RNG does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose of one run.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// The `er` workload's churn process (evolving Erdős–Rényi around a
/// target edge count, as in `dds-workloads`), with an O(1) choice of the
/// edge to delete so that 10⁵-node inputs generate in well under a second.
/// Each attempted change deletes a uniformly random present edge with
/// probability `fill / 2`, and otherwise toggles a uniformly random pair;
/// an edge the batch already touches is skipped.
pub struct ErGen {
    n: usize,
    target_edges: usize,
    rng: Rng,
    edges: Vec<Edge>,
    slot: HashMap<Edge, usize>,
}

impl ErGen {
    pub fn new(n: usize, target_edges: usize, rng: Rng) -> ErGen {
        assert!(n >= 2, "er churn needs at least two nodes");
        ErGen {
            n,
            target_edges,
            rng,
            edges: Vec::new(),
            slot: HashMap::new(),
        }
    }

    fn insert(&mut self, batch: &mut EventBatch, e: Edge) {
        if batch.touches(e) {
            return;
        }
        self.slot.insert(e, self.edges.len());
        self.edges.push(e);
        batch.push_insert(e);
    }

    fn delete(&mut self, batch: &mut EventBatch, e: Edge) {
        if batch.touches(e) {
            return;
        }
        let i = self.slot.remove(&e).expect("deleted edge is present");
        self.edges.swap_remove(i);
        if let Some(&moved) = self.edges.get(i) {
            self.slot.insert(moved, i);
        }
        batch.push_delete(e);
    }

    /// One round of `changes` attempted topology changes.
    pub fn round(&mut self, changes: usize) -> EventBatch {
        let mut batch = EventBatch::new();
        for _ in 0..changes {
            let fill = self.edges.len() as f64 / self.target_edges.max(1) as f64;
            if self.rng.chance(fill.clamp(0.0, 1.0) * 0.5) && !self.edges.is_empty() {
                let e = self.edges[self.rng.below(self.edges.len())];
                self.delete(&mut batch, e);
            } else {
                let e = self.random_pair();
                if self.slot.contains_key(&e) {
                    self.delete(&mut batch, e);
                } else {
                    self.insert(&mut batch, e);
                }
            }
        }
        batch
    }

    fn random_pair(&mut self) -> Edge {
        loop {
            let u = self.rng.below(self.n) as u32;
            let w = self.rng.below(self.n) as u32;
            if u != w {
                return Edge::new(NodeId(u), NodeId(w));
            }
        }
    }

    /// Neighbour lists of the present graph, sorted (for query making).
    pub fn adjacency(&self) -> Vec<Vec<NodeId>> {
        let mut adj = vec![Vec::new(); self.n];
        for e in &self.edges {
            adj[e.lo().index()].push(e.hi());
            adj[e.hi().index()].push(e.lo());
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        adj
    }
}

/// `rounds` rounds of `changes` attempted changes each.
pub fn er_rounds(gen: &mut ErGen, rounds: usize, changes: usize) -> Vec<EventBatch> {
    (0..rounds).map(|_| gen.round(changes)).collect()
}

/// The canonical bytes of generated batches: the wire's JSON encoding.
pub fn batch_bytes(batches: &[EventBatch]) -> Vec<u8> {
    serde_json::to_string(&batches.to_vec().to_value())
        .expect("json write is infallible")
        .into_bytes()
}

/// The canonical bytes of a generated query list.
pub fn query_bytes(queries: &[(NodeId, Query)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (at, q) in queries {
        out.extend_from_slice(format!("{}:", at.0).as_bytes());
        out.extend_from_slice(
            serde_json::to_string(&q.to_value())
                .expect("json write is infallible")
                .as_bytes(),
        );
        out.push(b'\n');
    }
    out
}

/// What a query mix may ask of a protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Edge membership, with `list-triangles` as every 4th query (the
    /// serving workloads).
    EdgeAndListTriangles,
    /// Edge, triangle and list-triangles queries (the triangle protocol).
    Triangle,
    /// Edge and 4-/5-cycle listing queries (the three-hop protocol).
    Cycles,
}

/// `count` queries against the graph `adj`: the asked node is uniform,
/// and an edge query asks about an incident edge, an edge near the node or
/// a random pair in equal shares, so answers are a mix of yes and no.
pub fn queries(rng: &mut Rng, adj: &[Vec<NodeId>], mix: Mix, count: usize) -> Vec<(NodeId, Query)> {
    let n = adj.len();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let v = NodeId(rng.below(n) as u32);
        let q = match (mix, i % 4) {
            (Mix::EdgeAndListTriangles | Mix::Triangle, 3) => Query::ListTriangles,
            (Mix::Triangle, 2) => {
                let ns = &adj[v.index()];
                if ns.len() >= 2 {
                    let a = ns[rng.below(ns.len())];
                    let b = ns[rng.below(ns.len())];
                    if a != b {
                        Query::Triangle(a, b)
                    } else {
                        edge_query(rng, adj, v)
                    }
                } else {
                    edge_query(rng, adj, v)
                }
            }
            (Mix::Cycles, 2) => Query::ListCycles(4),
            (Mix::Cycles, 3) => Query::ListCycles(5),
            _ => edge_query(rng, adj, v),
        };
        out.push((v, q));
    }
    out
}

fn edge_query(rng: &mut Rng, adj: &[Vec<NodeId>], v: NodeId) -> Query {
    let n = adj.len();
    let ns = &adj[v.index()];
    let pick = rng.below(3);
    if pick == 0 && !ns.is_empty() {
        return Query::Edge(Edge::new(v, ns[rng.below(ns.len())]));
    }
    if pick == 1 && !ns.is_empty() {
        let u = ns[rng.below(ns.len())];
        let us = &adj[u.index()];
        return Query::Edge(Edge::new(u, us[rng.below(us.len())]));
    }
    loop {
        let a = NodeId(rng.below(n) as u32);
        let b = NodeId(rng.below(n) as u32);
        if a != b {
            return Query::Edge(Edge::new(a, b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> (Vec<u8>, Vec<u8>) {
        let mut gen = ErGen::new(500, 1000, Rng::stream(seed, 1));
        let batches = er_rounds(&mut gen, 60, 40);
        let qs = queries(
            &mut Rng::stream(seed, 2),
            &gen.adjacency(),
            Mix::Triangle,
            400,
        );
        (batch_bytes(&batches), query_bytes(&qs))
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7).0, inputs(8).0);
        assert_ne!(inputs(7).1, inputs(8).1);
    }

    #[test]
    fn er_batches_are_valid_and_approach_the_target() {
        let mut gen = ErGen::new(200, 400, Rng::stream(3, 1));
        let mut topo = dds_net::Topology::new(200);
        for r in 0..300u64 {
            let b = gen.round(20);
            topo.validate(&b).expect("generated batch is valid");
            topo.apply(&b, r + 1);
        }
        let edges = gen.adjacency().iter().map(Vec::len).sum::<usize>() / 2;
        assert_eq!(topo.edge_count(), edges);
        assert!((300..=500).contains(&edges), "{edges}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::stream(1, 1);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }
}
