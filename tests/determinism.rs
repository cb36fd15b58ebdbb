//! Engine determinism: neither the thread a run executes on nor
//! `SimConfig::engine` may change anything but wall-clock.
//!
//! Two differentials:
//!
//! - **parallel vs sequential** (proptests below): for random (workload,
//!   n, rounds, seed) tuples, a run on a spawned thread and a run on the
//!   test thread, executing concurrently, must produce bit-identical
//!   meters, bandwidth totals, per-round stats, and query responses at
//!   every node — no process-global state leaks into a simulation, which
//!   is what lets the sweep scheduler fan independent runs out.
//! - **sparse vs dense** (`sparse_engine_matches_dense_for_every_protocol`):
//!   every registry protocol × er/flicker/sliding/p2p, stepped round by
//!   round through erased sessions under both engines — meters compared to
//!   `f64::to_bits` after *every* round, per-round stats (minus the
//!   engine-measuring `active_nodes` field), and every supported query
//!   kind answered identically mid-run and at the end.

use dynamic_subgraphs::net::{
    edge, engine, Engine, NodeId, Query, QueryKind, Session, SimConfig, Simulator, Trace,
};
use dynamic_subgraphs::robust::{ThreeHopNode, TriangleNode, TwoHopNode};
use dynamic_subgraphs::workloads::{registry, Params};
use proptest::prelude::*;

const WORKLOADS: [&str; 3] = ["er", "flicker", "p2p"];

fn build(workload: &str, n: usize, rounds: usize, seed: u64) -> Trace {
    registry::build_trace(
        workload,
        &Params::new()
            .with("n", n)
            .with("rounds", rounds)
            .with("seed", seed),
    )
    .expect("registered workload")
}

fn cfg() -> SimConfig {
    SimConfig {
        record_stats: true,
        ..SimConfig::default()
    }
}

/// Everything observable about one finished run, in comparable form.
fn fingerprint<N, Q>(sim: &Simulator<N>, query: Q) -> (Vec<u64>, Vec<String>, Vec<String>)
where
    N: dynamic_subgraphs::net::Node,
    Q: Fn(&N) -> String,
{
    let meters = vec![
        sim.meter().rounds(),
        sim.meter().changes(),
        sim.meter().inconsistent_rounds(),
        sim.meter().longest_inconsistent_streak(),
        sim.bandwidth().total_messages(),
        sim.bandwidth().total_bits(),
        sim.bandwidth().violations(),
        sim.bandwidth().max_message_bits(),
        sim.inconsistent_nodes() as u64,
        sim.meter().amortized().to_bits(),
        sim.per_node_meter().footnote_amortized().to_bits(),
    ];
    let stats = sim.stats().iter().map(|s| format!("{s:?}")).collect();
    let queries = (0..sim.n())
        .map(|v| query(sim.node(NodeId(v as u32))))
        .collect();
    (meters, stats, queries)
}

fn assert_identical<N, Q>(trace: &Trace, query: Q, label: &str)
where
    N: dynamic_subgraphs::net::Node,
    Q: Fn(&N) -> String + Copy,
{
    let (seq, par) = std::thread::scope(|s| {
        let par = s.spawn(|| engine::drive::<N>(trace, cfg()));
        let seq: Simulator<N> = engine::drive(trace, cfg());
        (seq, par.join().expect("parallel run"))
    });
    let a = fingerprint(&seq, query);
    let b = fingerprint(&par, query);
    assert_eq!(a.0, b.0, "{label}: meters diverged");
    assert_eq!(a.1, b.1, "{label}: per-round stats diverged");
    assert_eq!(a.2, b.2, "{label}: query responses diverged");
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

/// Every supported query kind of a session, asked at a deterministic
/// sample of nodes, rendered comparably. `Inconsistent` and capability
/// errors are part of the fingerprint — mid-run the structures are often
/// mid-update, and both engines must be mid-update *identically*.
fn query_fingerprint(session: &Session, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let wrap = |v: u32, off: u32| NodeId((v + off) % n as u32);
    for v in (0..n as u32).step_by(3) {
        let at = NodeId(v);
        for kind in session.supported_queries() {
            let queries: Vec<Query> = match kind {
                QueryKind::Edge => vec![
                    Query::Edge(edge(v, (v + 1) % n as u32)),
                    Query::Edge(edge((v + 2) % n as u32, (v + 5) % n as u32)),
                ],
                QueryKind::Triangle => vec![Query::Triangle(wrap(v, 1), wrap(v, 2))],
                QueryKind::Clique => vec![Query::Clique(vec![at, wrap(v, 1), wrap(v, 2)])],
                QueryKind::Cycle => {
                    vec![Query::Cycle(vec![at, wrap(v, 1), wrap(v, 2), wrap(v, 3)])]
                }
                QueryKind::Path3 => vec![Query::Path3 {
                    center: at,
                    a: wrap(v, 1),
                    b: wrap(v, 2),
                }],
                QueryKind::ListTriangles => vec![Query::ListTriangles],
                QueryKind::ListCliques => vec![Query::ListCliques(3), Query::ListCliques(4)],
                QueryKind::ListCycles => vec![Query::ListCycles(4), Query::ListCycles(5)],
            };
            for q in queries {
                out.push(format!("v{v} {kind}: {:?}", session.query(at, &q)));
            }
        }
    }
    out
}

/// Step a trace through one session per engine, comparing everything
/// observable after every round.
fn assert_engines_identical(protocol: &str, trace: &Trace, label: &str) {
    let open = |eng: Engine| {
        dds_bench::protocols()
            .open(
                protocol,
                trace.n,
                SimConfig {
                    engine: eng,
                    record_stats: true,
                    ..SimConfig::default()
                },
            )
            .expect("registered protocol")
    };
    let mut sparse = open(Engine::Sparse);
    let mut dense = open(Engine::Dense);
    for (i, b) in trace.batches.iter().enumerate() {
        sparse.step(b);
        dense.step(b);
        let round = i + 1;
        let ctx = format!("{label}/{protocol} at round {round}");
        assert_eq!(sparse.round(), dense.round(), "{ctx}: round counter");
        assert_eq!(
            sparse.meter().changes(),
            dense.meter().changes(),
            "{ctx}: changes"
        );
        assert_eq!(
            sparse.meter().inconsistent_rounds(),
            dense.meter().inconsistent_rounds(),
            "{ctx}: inconsistent rounds"
        );
        assert_eq!(
            sparse.meter().amortized().to_bits(),
            dense.meter().amortized().to_bits(),
            "{ctx}: amortized"
        );
        assert_eq!(
            sparse.per_node_meter().footnote_amortized().to_bits(),
            dense.per_node_meter().footnote_amortized().to_bits(),
            "{ctx}: footnote amortized"
        );
        assert_eq!(
            sparse.per_node_meter().worst_amortized().to_bits(),
            dense.per_node_meter().worst_amortized().to_bits(),
            "{ctx}: worst per-node amortized"
        );
        assert_eq!(
            sparse.bandwidth().total_messages(),
            dense.bandwidth().total_messages(),
            "{ctx}: messages"
        );
        assert_eq!(
            sparse.bandwidth().total_bits(),
            dense.bandwidth().total_bits(),
            "{ctx}: bits"
        );
        assert_eq!(
            sparse.bandwidth().violations(),
            dense.bandwidth().violations(),
            "{ctx}: violations"
        );
        assert_eq!(
            sparse.inconsistent_nodes(),
            dense.inconsistent_nodes(),
            "{ctx}: inconsistent nodes"
        );
        assert_eq!(
            sparse.topology().edge_count(),
            dense.topology().edge_count(),
            "{ctx}: edges"
        );
        // Inbox-visible behavior, mid-run: every supported query kind must
        // answer identically while the structures are still churning.
        if round % 7 == 0 {
            assert_eq!(
                query_fingerprint(&sparse, trace.n),
                query_fingerprint(&dense, trace.n),
                "{ctx}: mid-run query answers"
            );
        }
    }
    // Per-round stats, minus the field that measures the engine itself.
    let scrub = |s: &Session| -> Vec<String> {
        s.stats()
            .iter()
            .map(|st| {
                let mut st = *st;
                st.active_nodes = 0;
                format!("{st:?}")
            })
            .collect()
    };
    assert_eq!(
        scrub(&sparse),
        scrub(&dense),
        "{label}/{protocol}: per-round stats"
    );
    // Settle both and compare the final serving surface.
    let s_quiet = sparse.settle(256);
    let d_quiet = dense.settle(256);
    assert_eq!(s_quiet, d_quiet, "{label}/{protocol}: settle rounds");
    assert_eq!(
        query_fingerprint(&sparse, trace.n),
        query_fingerprint(&dense, trace.n),
        "{label}/{protocol}: settled query answers"
    );
    let (s, d) = (sparse.summary(), dense.summary());
    assert_eq!(s.amortized.to_bits(), d.amortized.to_bits());
    assert_eq!(
        s.footnote_amortized.to_bits(),
        d.footnote_amortized.to_bits()
    );
    assert_eq!(s.messages, d.messages);
    assert_eq!(s.bits, d.bits);
    assert_eq!(s.final_edges, d.final_edges);
    assert_eq!(s.peak_round_messages, d.peak_round_messages);
    assert_eq!(s.peak_round_bits, d.peak_round_bits);
}

#[test]
fn sparse_engine_matches_dense_for_every_protocol() {
    for (wi, workload) in ["er", "flicker", "sliding", "p2p"].iter().enumerate() {
        let trace = build(workload, 14, 36, 911 + 37 * wi as u64);
        for spec in dds_bench::protocols().specs() {
            assert_engines_identical(spec.name, &trace, workload);
        }
    }
}

#[test]
fn sparse_engine_matches_dense_under_heavy_batches() {
    // Flicker with many simultaneous events stresses the active-set
    // merge paths; p2p with triadic closure stresses degree churn.
    let trace = build("flicker", 22, 30, 4242);
    for spec in dds_bench::protocols().specs() {
        assert_engines_identical(spec.name, &trace, "flicker-heavy");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn two_hop_parallel_matches_sequential(
        w in 0usize..3,
        n in 6usize..24,
        rounds in 20usize..60,
        seed in 0u64..1_000,
    ) {
        let trace = build(WORKLOADS[w], n, rounds, seed);
        assert_identical::<TwoHopNode, _>(
            &trace,
            |node| {
                // Probe a deterministic sample of pair queries per node.
                (0..n as u32)
                    .step_by(3)
                    .filter(|&u| u != 0)
                    .map(|u| format!("{:?}", node.query_edge(dynamic_subgraphs::net::edge(0, u))))
                    .collect::<Vec<_>>()
                    .join(",")
            },
            WORKLOADS[w],
        );
    }

    #[test]
    fn triangle_parallel_matches_sequential(
        w in 0usize..3,
        n in 6usize..20,
        rounds in 20usize..50,
        seed in 0u64..1_000,
    ) {
        let trace = build(WORKLOADS[w], n, rounds, seed);
        assert_identical::<TriangleNode, _>(
            &trace,
            |node| format!("{:?}", node.list_triangles()),
            WORKLOADS[w],
        );
    }

    #[test]
    fn three_hop_parallel_matches_sequential(
        w in 0usize..3,
        n in 6usize..16,
        rounds in 20usize..40,
        seed in 0u64..1_000,
    ) {
        let trace = build(WORKLOADS[w], n, rounds, seed);
        assert_identical::<ThreeHopNode, _>(
            &trace,
            |node| {
                (1..n as u32)
                    .step_by(4)
                    .map(|u| format!("{:?}", node.query_edge(dynamic_subgraphs::net::edge(0, u))))
                    .collect::<Vec<_>>()
                    .join(",")
            },
            WORKLOADS[w],
        );
    }
}
