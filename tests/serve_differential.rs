//! Serve-vs-local differential lockdown: the same workload answered
//! through a live `dds serve` daemon (in-process, ephemeral port, real
//! TCP frames) and through a plain local [`Session`] must be
//! **byte-identical** — every query outcome at every compared round, the
//! run summary's deterministic fields, and the checkpoint snapshot
//! document itself.
//!
//! This is the serving layer's correctness contract: publication by
//! cloning the writer's session plus the settled-round watermark must be
//! observationally invisible. A second suite drives concurrent readers
//! *during* ingest and pins every reply to the local answer at that
//! reply's watermark — the freedom the daemon has is *which* settled
//! round it answers at, never *what* the answer at that round is.

use dynamic_subgraphs::net::serving::{Client, QueryOutcome, Server};
use dynamic_subgraphs::net::{
    edge, EventBatch, NodeId, Query, QueryKind, Response, Session, SimConfig, Trace,
};
use dynamic_subgraphs::workloads::{registry, Params};
use serde::{Serialize, Value};

/// Boot an in-process daemon on an ephemeral port; returns the address,
/// a stop closure, and the join handle.
fn boot_server() -> (String, std::thread::JoinHandle<()>, impl Fn()) {
    let server = Server::bind("127.0.0.1:0", dds_bench::protocols()).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, join, move || handle.stop())
}

/// One canonical probe of every query kind the protocol supports, rooted
/// at `at` — the full capability surface, not just edge membership.
fn probes(at: NodeId, n: usize, kinds: &[QueryKind]) -> Vec<(NodeId, Query)> {
    let step = |i: u32| NodeId((at.0 + i) % n as u32);
    kinds
        .iter()
        .map(|k| {
            let q = match k {
                QueryKind::Edge => Query::Edge(edge(at.0, step(1).0)),
                QueryKind::Triangle => Query::Triangle(step(1), step(2)),
                QueryKind::Clique => Query::Clique(vec![at, step(1), step(2), step(3)]),
                QueryKind::Cycle => Query::Cycle(vec![at, step(1), step(2), step(3)]),
                QueryKind::Path3 => Query::Path3 {
                    center: at,
                    a: step(1),
                    b: step(2),
                },
                QueryKind::ListTriangles => Query::ListTriangles,
                QueryKind::ListCliques => Query::ListCliques(4),
                QueryKind::ListCycles => Query::ListCycles(4),
            };
            (at, q)
        })
        .collect()
}

/// Compare one served outcome against the local response, bit for bit.
fn assert_outcome_matches(
    served: &QueryOutcome,
    local: &Response<dynamic_subgraphs::net::Answer>,
    context: &str,
) {
    match (served, local) {
        (QueryOutcome::Answer(a), Response::Answer(b)) => {
            assert_eq!(a, b, "{context}: answers diverge")
        }
        (QueryOutcome::Inconsistent, Response::Inconsistent) => {}
        other => panic!("{context}: outcome shape diverges: {other:?}"),
    }
}

/// RunSummary fields that must agree between the served view and the
/// local session (wall-clock and memory fields are volatile by design).
const DETERMINISTIC_SUMMARY_FIELDS: &[&str] = &[
    "protocol",
    "n",
    "rounds",
    "changes",
    "inconsistent_rounds",
    "amortized",
    "footnote_amortized",
    "messages",
    "bits",
    "budget_bits",
    "violations",
    "final_edges",
];

fn trace_for(workload: &str, n: u64, rounds: u64, seed: u64) -> Trace {
    let params = Params::new()
        .with("n", n)
        .with("rounds", rounds)
        .with("seed", seed);
    registry::build_trace(workload, &params).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// Drive one (protocol, workload) pair through the daemon and a local
/// session in lock-step phases, comparing everything comparable.
fn diff_serve_vs_local(client: &mut Client, protocol: &'static str, workload: &str, seed: u64) {
    let trace = trace_for(workload, 16, 40, seed);
    let name = format!("{protocol}-{workload}-{seed}");
    client
        .open(&name, protocol, trace.n)
        .unwrap_or_else(|e| panic!("{name}: open: {e}"));
    let mut local = dds_bench::protocols()
        .open(protocol, trace.n, SimConfig::default())
        .expect("local open");
    let kinds = local.supported_queries().to_vec();

    const PHASE: usize = 10;
    for chunk in trace.batches.chunks(PHASE) {
        let watermark = client
            .ingest(&name, chunk.to_vec())
            .unwrap_or_else(|e| panic!("{name}: ingest: {e}"));
        for batch in chunk {
            local.step(batch);
        }
        assert_eq!(watermark, local.round(), "{name}: watermark drifted");

        for at in [NodeId(0), NodeId(5), NodeId(11)] {
            let qs = probes(at, trace.n, &kinds);
            let reply = client
                .query(&name, qs.clone())
                .unwrap_or_else(|e| panic!("{name}: query: {e}"));
            assert_eq!(reply.watermark, local.round());
            assert_eq!(reply.outcomes.len(), qs.len());
            for ((at, q), served) in qs.iter().zip(&reply.outcomes) {
                let local_resp = local.query(*at, q).expect("local query");
                let context = format!("{name} r{} {:?}@v{}", local.round(), q.kind(), at.0);
                assert_outcome_matches(served, &local_resp, &context);
            }
        }
    }

    // The daemon's view summary must agree with the local run on every
    // deterministic field (compared as JSON values: same code path the
    // wire uses).
    let listing = client.list().expect("list");
    let sessions = listing.get("sessions").and_then(Value::as_array).unwrap();
    let entry = sessions
        .iter()
        .find(|e| e.get("session").and_then(Value::as_str) == Some(name.as_str()))
        .unwrap_or_else(|| panic!("{name}: missing from list"));
    let served_summary = entry.get("summary").expect("summary in list entry");
    let local_summary = local.summary().to_value();
    for field in DETERMINISTIC_SUMMARY_FIELDS {
        assert_eq!(
            served_summary.get(field),
            local_summary.get(field),
            "{name}: summary field `{field}` diverges"
        );
    }

    // Strongest form: the checkpoint the daemon hands back is the same
    // *document* the local session produces — byte identity end to end.
    let served_snap = client.checkpoint(&name).expect("served checkpoint");
    assert_eq!(
        served_snap.to_json(),
        local.checkpoint().to_json(),
        "{name}: checkpoint documents diverge"
    );

    client.close(&name).expect("close");
}

#[test]
fn served_answers_are_bit_identical_to_local_sessions() {
    let (addr, join, stop) = boot_server();
    let mut client = Client::connect(&addr).expect("connect");
    // Every registered protocol × two churn shapes (steady ER churn and
    // adversarial flicker) — well past the "≥ 3 protocols × 2 workloads"
    // floor, because registry iteration makes more protocols free.
    for protocol in dds_bench::protocols().names() {
        for workload in ["er", "flicker"] {
            diff_serve_vs_local(&mut client, protocol, workload, 7);
        }
    }
    drop(client);
    stop();
    join.join().expect("server thread");
}

#[test]
fn invalid_ingest_is_rejected_without_crashing_the_session() {
    // Wire input is untrusted: a batch that is inconsistent with the
    // session's topology (here, inserting an edge that is already
    // present) must come back as a wire error — with the valid prefix
    // applied and published — and the session must keep serving.
    let (addr, join, stop) = boot_server();
    let mut client = Client::connect(&addr).expect("connect");
    client.open("fragile", "two-hop", 8).expect("open");

    let good = EventBatch::insert(edge(0, 1));
    let dup = EventBatch::insert(edge(0, 1));
    let err = client
        .ingest("fragile", vec![good, dup])
        .expect_err("duplicate insert must be rejected");
    assert!(
        err.contains("ingest rejected at round 2"),
        "error names the failing round: {err}"
    );
    assert!(
        err.contains("already-present"),
        "error names the event: {err}"
    );

    // The valid prefix (round 1) is settled and visible; the session
    // still answers and still accepts valid writes.
    let reply = client
        .query("fragile", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect("query after rejected ingest");
    assert_eq!(reply.watermark, 1, "valid prefix was applied and published");
    let next = client
        .ingest("fragile", vec![EventBatch::delete(edge(0, 1))])
        .expect("valid ingest after a rejected one");
    assert_eq!(next, 2);

    client.close("fragile").expect("close");
    drop(client);
    stop();
    join.join().expect("server thread");
}

#[test]
fn concurrent_readers_match_local_answers_at_every_watermark() {
    let (addr, join, stop) = boot_server();
    let trace = trace_for("er", 16, 60, 23);
    let n = trace.n;

    // Precompute the local ground truth at *every* round for a fixed
    // probe set: under concurrency the daemon may answer at any settled
    // round, so the contract is "whatever watermark you answered at, the
    // answer is the local answer at that round".
    let probe_set: Vec<(NodeId, Query)> = vec![
        (NodeId(0), Query::Edge(edge(0, 1))),
        (NodeId(3), Query::Edge(edge(3, 9))),
        (NodeId(7), Query::Edge(edge(7, 8))),
    ];
    let mut local = dds_bench::protocols()
        .open("two-hop", n, SimConfig::default())
        .expect("local open");
    let mut truth: Vec<Vec<Response<dynamic_subgraphs::net::Answer>>> = Vec::new();
    let record = |s: &Session| {
        probe_set
            .iter()
            .map(|(at, q)| s.query(*at, q).expect("local query"))
            .collect::<Vec<_>>()
    };
    truth.push(record(&local));
    for batch in &trace.batches {
        local.step(batch);
        truth.push(record(&local));
    }

    let mut admin = Client::connect(&addr).expect("connect");
    admin.open("live", "two-hop", n).expect("open");

    let batches: Vec<EventBatch> = trace.batches.clone();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut c = Client::connect(&addr).expect("writer connect");
            for batch in &batches {
                c.ingest("live", vec![batch.clone()]).expect("ingest");
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = Client::connect(&addr).expect("reader connect");
                    let mut last_watermark = 0u64;
                    for _ in 0..40 {
                        let reply = c.query("live", probe_set.clone()).expect("query");
                        assert!(
                            reply.watermark >= last_watermark,
                            "watermark went backwards: {} then {}",
                            last_watermark,
                            reply.watermark
                        );
                        last_watermark = reply.watermark;
                        let expected = &truth[reply.watermark as usize];
                        for (i, served) in reply.outcomes.iter().enumerate() {
                            let context =
                                format!("concurrent probe {i} at watermark {}", reply.watermark);
                            assert_outcome_matches(served, &expected[i], &context);
                        }
                    }
                    last_watermark
                })
            })
            .collect();
        writer.join().expect("writer");
        for r in readers {
            r.join().expect("reader");
        }
    });

    // After the writer drains, a fresh query must see the final round.
    let reply = admin.query("live", probe_set.clone()).expect("final query");
    assert_eq!(reply.watermark, batches.len() as u64);
    drop(admin);
    stop();
    join.join().expect("server thread");
}
