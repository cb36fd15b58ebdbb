//! Regression tests for the paper gaps documented in DESIGN.md, section
//! "Paper gaps (§6)"; each test cites its subsection.
//!
//! Each test replays the *minimized counterexample* that property-based
//! testing produced against an earlier, more literal reading of the
//! paper's prose, and asserts the final structure state matches the
//! centralized ideal-algorithm definitions. If any of these fail again,
//! one of the deletion-path mechanisms (send filters, per-witness marks,
//! route-tagged purges, tombstones, entry-time processing) has regressed.

use dynamic_subgraphs::net::{Edge, EventBatch, NodeId, Simulator, Trace};
use dynamic_subgraphs::oracle::DynamicGraph;
use dynamic_subgraphs::robust::{ThreeHopNode, TriangleNode, TwoHopNode};
use rustc_hash::FxHashSet;

/// Toggle-based trace builder (same convention as the property tests):
/// each pair toggles the edge `{a % n, b % n}`; `per_round` toggles per
/// round; self-loops and duplicate edges within a round are skipped.
fn build_trace(n: u32, ops: &[(u32, u32)], per_round: usize) -> Trace {
    let mut present: FxHashSet<Edge> = FxHashSet::default();
    let mut trace = Trace::new(n as usize);
    for chunk in ops.chunks(per_round.max(1)) {
        let mut batch = EventBatch::new();
        for &(a, b) in chunk {
            let (u, w) = (a % n, b % n);
            if u == w {
                continue;
            }
            let e = Edge::new(NodeId(u), NodeId(w));
            if batch.events().iter().any(|ev| ev.edge() == e) {
                continue;
            }
            if present.remove(&e) {
                batch.push_delete(e);
            } else {
                present.insert(e);
                batch.push_insert(e);
            }
        }
        trace.push(batch);
    }
    assert!(trace.validate().is_ok());
    trace
}

fn replay_two_hop(trace: &Trace) -> (Simulator<TwoHopNode>, DynamicGraph) {
    let mut sim: Simulator<TwoHopNode> = Simulator::new(trace.n);
    let mut g = DynamicGraph::new(trace.n);
    for b in &trace.batches {
        sim.step(b);
        g.apply(b);
    }
    sim.settle(400).expect("must stabilize");
    (sim, g)
}

fn assert_two_hop_exact(sim: &Simulator<TwoHopNode>, g: &DynamicGraph, label: &str) {
    for v in 0..g.n() as u32 {
        let v = NodeId(v);
        let have: FxHashSet<Edge> = sim.node(v).known_edges().collect();
        assert_eq!(have, g.robust_two_hop(v), "[{label}] at {v:?}");
    }
}

/// DESIGN.md §6.3 — a stale deletion broadcast from a congested endpoint
/// must not permanently erase knowledge freshly taught by the other
/// endpoint. (Originally: node 2's queued deletion of the old `{0,3}`
/// instance arrived the same round as node 0's insertion of the new one.)
#[test]
fn gap3_stale_deletion_does_not_clobber_fresh_insertion() {
    let ops = [
        (0, 0),
        (4, 0),
        (0, 0),
        (1, 5),
        (2, 0),
        (2, 0),
        (5, 5),
        (2, 3),
        (1, 5),
        (6, 3),
        (0, 2),
        (2, 0),
        (1, 1),
        (1, 1),
        (1, 7),
        (3, 9),
        (8, 3),
        (3, 7),
        (9, 3),
        (4, 6),
        (7, 0),
        (9, 7),
        (5, 6),
        (4, 7),
        (2, 1),
        (6, 7),
        (1, 6),
        (8, 8),
        (6, 8),
        (3, 3),
        (8, 2),
        (6, 9),
        (3, 4),
        (8, 8),
        (4, 7),
        (5, 0),
        (9, 0),
        (1, 1),
        (2, 1),
        (7, 6),
        (9, 2),
        (7, 9),
        (2, 7),
        (9, 2),
        (1, 1),
        (2, 5),
    ];
    let trace = build_trace(4, &ops, 3);
    let (sim, g) = replay_two_hop(&trace);
    assert_two_hop_exact(&sim, &g, "gap3");
}

/// DESIGN.md §6.4 — a merged imaginary timestamp lets a stale re-teach
/// from one endpoint pose as support via the other endpoint in the
/// cascade check. Per-witness marks must purge the phantom. (Originally:
/// v5 kept `{1,2}` via an inflated `t'` after the `{2,5}` link died.)
#[test]
fn gap4_per_witness_marks_defeat_phantom_support() {
    let ops = [
        (3, 0),
        (2, 7),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
        (3, 0),
        (8, 7),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
        (5, 1),
        (0, 0),
        (2, 2),
        (0, 0),
        (0, 0),
        (0, 8),
        (5, 8),
        (0, 7),
        (9, 2),
        (6, 2),
        (3, 3),
        (1, 1),
        (7, 8),
        (4, 4),
        (2, 1),
        (7, 4),
        (0, 3),
        (6, 9),
        (2, 0),
        (7, 0),
        (5, 2),
    ];
    let trace = build_trace(6, &ops, 3);
    let (sim, g) = replay_two_hop(&trace);
    assert_two_hop_exact(&sim, &g, "gap4");
}

/// DESIGN.md §6.2 — the triangle structure's relay handoff: a node that
/// dequeues a delayed announcement must not claim consistency in the
/// round its transmission triggers a mark-(b) relay at a common neighbor.
/// (Originally: v4 answered a triangle query wrongly while consistent,
/// one round before the (b)-hint arrived.)
#[test]
fn gap2_sender_stays_dirty_through_the_relay_handoff() {
    let ops = [
        (4, 5),
        (4, 1),
        (3, 4),
        (5, 6),
        (4, 5),
        (3, 1),
        (1, 0),
        (8, 4),
        (4, 5),
        (5, 4),
        (3, 0),
        (5, 4),
        (8, 1),
        (4, 1),
        (8, 0),
        (3, 4),
        (6, 8),
        (8, 4),
        (4, 6),
        (0, 1),
        (3, 4),
        (2, 2),
    ];
    let trace = build_trace(5, &ops, 1);
    let n = trace.n;
    let mut sim: Simulator<TriangleNode> = Simulator::new(n);
    let mut g = DynamicGraph::new(n);
    for b in &trace.batches {
        sim.step(b);
        g.apply(b);
        // The invariant that originally broke: every consistent node's set
        // equals T^{v,2} at every round, not just at quiescence.
        for v in 0..n as u32 {
            let v = NodeId(v);
            let node = sim.node(v);
            if node.consistent() {
                let have: FxHashSet<Edge> = node.known_edges().collect();
                assert_eq!(have, g.triangle_patterns(v), "[gap2] mid-run at {v:?}");
            }
        }
    }
}

/// DESIGN.md §6.6a — entry-time processing: a deletion-chain continuation
/// re-enqueued at dequeue time must not land behind a newer re-insertion
/// of the same edge in the node's own FIFO. (Originally: v1's own
/// incident edge `{1,2}` vanished from its 3-hop set at quiescence.)
#[test]
fn gap6a_deletion_chain_cannot_outrun_reinsertion_in_own_fifo() {
    let ops = [
        (2, 7),
        (2, 1),
        (1, 2),
        (5, 0),
        (0, 0),
        (3, 7),
        (0, 0),
        (0, 0),
        (8, 9),
        (0, 0),
        (2, 7),
        (0, 0),
        (2, 2),
        (1, 2),
    ];
    let trace = build_trace(6, &ops, 1);
    assert_three_hop_sandwich(&trace, "gap6a");
}

/// DESIGN.md §6.6b — route-specific purges: a slow route's stale deletion
/// notice must not destroy another route's already-repaired knowledge.
/// (Originally: v3 lost `{0,4}`, robust via the path 3−7−0−4, to a late
/// level-1 forward of an earlier deletion.)
#[test]
fn gap6b_stale_notice_cannot_purge_other_routes() {
    let ops = [
        (3, 9),
        (7, 8),
        (2, 2),
        (4, 3),
        (1, 7),
        (9, 8),
        (4, 0),
        (2, 1),
        (7, 8),
        (0, 2),
        (3, 4),
        (2, 0),
        (7, 0),
        (1, 1),
        (0, 2),
        (5, 2),
        (7, 2),
        (2, 1),
        (0, 9),
        (0, 5),
        (6, 6),
        (6, 5),
        (6, 5),
        (8, 4),
        (3, 7),
        (4, 8),
        (9, 0),
        (2, 5),
        (3, 0),
        (3, 6),
        (8, 3),
        (4, 7),
        (9, 0),
        (6, 3),
        (9, 2),
        (4, 1),
        (1, 2),
        (1, 8),
        (3, 0),
    ];
    let trace = build_trace(8, &ops, 3);
    assert_three_hop_sandwich(&trace, "gap6b");
}

/// DESIGN.md §6.6b (second-copy variant) — the *other* endpoint's copy of
/// the same deletion event, forwarded late, must only purge its own
/// route. (Originally: v0 lost the freshly reinserted `{1,2}` to node
/// 0's forward of node 1's late level-0 notice.)
#[test]
fn gap6b2_second_endpoint_copy_is_route_confined() {
    let ops = [
        (2, 7),
        (0, 0),
        (8, 1),
        (3, 0),
        (1, 2),
        (0, 0),
        (2, 2),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 1),
        (2, 7),
        (1, 2),
    ];
    let trace = build_trace(6, &ops, 1);
    assert_three_hop_sandwich(&trace, "gap6b2");
}

fn assert_three_hop_sandwich(trace: &Trace, label: &str) {
    let n = trace.n;
    let mut sim: Simulator<ThreeHopNode> = Simulator::new(n);
    let mut g = DynamicGraph::new(n);
    for b in &trace.batches {
        sim.step(b);
        g.apply(b);
    }
    sim.settle(400).expect("must stabilize");
    for v in 0..n as u32 {
        let v = NodeId(v);
        let have: FxHashSet<Edge> = sim.node(v).known_edges().collect();
        for e in g.robust_three_hop(v).iter() {
            assert!(have.contains(e), "[{label}] missing robust {e:?} at {v:?}");
        }
        let all = g.r_hop_edges(v, 3);
        for e in have.iter() {
            assert!(all.contains(e), "[{label}] phantom {e:?} at {v:?}");
        }
    }
}

/// DESIGN.md §6.7 — the Figure-4 adversary must actually stabilize
/// phase I: with the enforced quiet tail, no row-interior knowledge leaks
/// across the merge, so all forced 6-cycles stay invisible.
#[test]
fn gap7_phase_one_stabilization_preserves_the_bottleneck() {
    use dynamic_subgraphs::robust::listing_verdict;
    use dynamic_subgraphs::workloads::{Thm4Adversary, Workload};
    for seed in [1u64, 2, 3] {
        let mut adv = Thm4Adversary::new(6, 3, 9, 4, seed);
        let mut sim: Simulator<ThreeHopNode> = Simulator::new(adv.n());
        let cutoff = adv.phase1_rounds() + 1;
        let mut steps = 0;
        while let Some(b) = adv.next_batch() {
            sim.step(&b);
            steps += 1;
            if steps == cutoff {
                break;
            }
        }
        sim.settle(512).expect("stabilizes");
        for &j in &adv.subsets()[1].clone() {
            if !adv.subsets()[0].contains(&j) {
                continue;
            }
            let cyc = adv.merge_cycle6(1, 0, j);
            let responses: Vec<_> = cyc.iter().map(|&v| sim.node(v).query_cycle(&cyc)).collect();
            assert_ne!(
                listing_verdict(&responses),
                Some(true),
                "seed {seed}: 6-cycle leaked through the bottleneck"
            );
        }
    }
}
