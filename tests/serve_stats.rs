//! The `stats` verb reports a served session's live engine throughput.
//!
//! The published view is a clone of the writer's session, so it carries
//! the writer's busy time: after any ingested round, `rounds_per_sec` is a
//! rate above zero.

use dynamic_subgraphs::net::serving::{Client, Server};
use dynamic_subgraphs::net::{edge, EventBatch};
use serde::Value;

fn session_stats(client: &mut Client, name: &str) -> Value {
    let stats = client.stats().expect("stats");
    stats
        .get("sessions")
        .and_then(Value::as_array)
        .and_then(|all| {
            all.iter()
                .find(|e| e.get("session").and_then(Value::as_str) == Some(name))
        })
        .cloned()
        .unwrap_or_else(|| panic!("{name} missing from stats: {stats:?}"))
}

#[test]
fn stats_reports_a_positive_round_rate_after_ingest() {
    let server = Server::bind("127.0.0.1:0", dds_bench::protocols()).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(&addr).expect("connect");
    client.open("main", "triangle", 16).expect("open");
    let batches = vec![
        EventBatch::insert(edge(0, 1)),
        EventBatch::insert(edge(1, 2)),
        EventBatch::insert(edge(0, 2)),
    ];
    assert_eq!(client.ingest("main", batches).expect("ingest"), 3);

    let entry = session_stats(&mut client, "main");
    assert_eq!(entry.get("rounds_served"), Some(&Value::U64(3)));
    assert_eq!(entry.get("watermark"), Some(&Value::U64(3)));
    match entry.get("rounds_per_sec") {
        Some(Value::F64(rate)) => assert!(*rate > 0.0, "rate {rate} after 3 rounds"),
        other => panic!("rounds_per_sec missing or not a float: {other:?}"),
    }

    handle.stop();
    join.join().expect("server thread");
}
