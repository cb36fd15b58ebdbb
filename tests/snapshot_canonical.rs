//! Canonical snapshot bytes at scale.
//!
//! `Session::checkpoint` writes the body text directly, without building a
//! value tree. These tests check that text against the tree path on many
//! states, not just the one-state-per-protocol golden fixtures: every
//! registered protocol × {er, flicker} × {sparse, dense} engine, at several
//! rounds including mid-update ones (some node inconsistent, queues still
//! draining). For each captured document:
//!
//! - the captured body text equals the body parsed back and re-serialized
//!   through `serde_json` (the canonical tree writer);
//! - the header checksum is the FNV-1a of that text;
//! - parsing the document and writing it again reproduces it byte for byte.
//!
//! A second test restores a freshly captured snapshot in memory (never
//! serialized) and checks that the restored session checkpoints the same
//! bytes, then and after continuing.

use dynamic_subgraphs::net::checkpoint::fnv1a64;
use dynamic_subgraphs::net::{Engine, SimConfig, Snapshot};
use dynamic_subgraphs::workloads::{registry, Params};

fn trace(workload: &str, n: u64, rounds: u64, seed: u64) -> dynamic_subgraphs::net::Trace {
    let p = Params::new()
        .with("n", n)
        .with("rounds", rounds)
        .with("seed", seed);
    registry::build_trace(workload, &p).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// Check one captured snapshot against the tree path.
fn assert_canonical(snap: &Snapshot, ctx: &str) {
    let doc = snap.to_json();
    let parsed = Snapshot::from_json(&doc).unwrap_or_else(|e| panic!("{ctx}: reparse: {e}"));
    assert_eq!(
        snap.body_json(),
        serde_json::to_string(parsed.body()).unwrap(),
        "{ctx}: captured body text vs the tree writer"
    );
    assert_eq!(
        snap.header.checksum,
        fnv1a64(snap.body_json().as_bytes()),
        "{ctx}: header checksum"
    );
    assert_eq!(parsed.to_json(), doc, "{ctx}: from_json ∘ to_json");
}

#[test]
fn captured_bytes_are_canonical_across_protocols_workloads_and_engines() {
    const ROUNDS: u64 = 48;
    let checkpoints = [3, 11, 20, 33, ROUNDS as usize];
    let reg = dds_bench::protocols();
    for protocol in reg.names() {
        for workload in ["er", "flicker"] {
            let trace = trace(workload, 96, ROUNDS, 5);
            for engine in [Engine::Sparse, Engine::Dense] {
                let cfg = SimConfig {
                    record_stats: true,
                    engine,
                    ..SimConfig::default()
                };
                let mut session = reg.open(protocol, trace.n, cfg).unwrap();
                let mut mid_update = 0;
                for (i, batch) in trace.batches.iter().enumerate() {
                    session.step(batch);
                    if checkpoints.contains(&(i + 1)) {
                        let ctx = format!("{protocol}/{workload}/{engine:?} @{}", i + 1);
                        assert_canonical(&session.checkpoint(), &ctx);
                        mid_update += usize::from(session.inconsistent_nodes() > 0);
                    }
                }
                assert!(
                    mid_update > 0,
                    "{protocol}/{workload}/{engine:?}: no checkpoint landed mid-update"
                );
            }
        }
    }
}

#[test]
fn a_captured_snapshot_restores_in_memory_to_the_same_bytes() {
    let trace = trace("er", 32, 30, 13);
    let reg = dds_bench::protocols();
    for protocol in reg.names() {
        let mut original = reg.open(protocol, trace.n, SimConfig::default()).unwrap();
        for batch in &trace.batches[..15] {
            original.step(batch);
        }
        // Never serialized: restore reads the body through the lazy parse.
        let captured = original.checkpoint();
        let mut restored = reg
            .restore(&captured)
            .unwrap_or_else(|e| panic!("{protocol}: in-memory restore: {e}"));
        assert_eq!(
            restored.checkpoint().to_json(),
            captured.to_json(),
            "{protocol}: restored session checkpoints different bytes"
        );
        for batch in &trace.batches[15..] {
            original.step(batch);
            restored.step(batch);
        }
        assert_eq!(
            restored.checkpoint().to_json(),
            original.checkpoint().to_json(),
            "{protocol}: bytes diverged after continuing"
        );
    }
}
