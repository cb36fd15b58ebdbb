//! `dds loadgen` — drive mixed query traffic at a running serve daemon
//! and report throughput and latency.
//!
//! ```text
//! dds loadgen --addr 127.0.0.1:7421 --session main \
//!             --clients 4 --queries 200 [--churn-rounds 100 --workload er …] [--json]
//! ```
//!
//! Each of the `--clients` threads issues exactly `--queries` requests
//! from a deterministic mixed workload (edge probes plus the session's
//! listing kinds), so the total query count never depends on scheduling.
//! With `--churn-rounds K`, a dedicated writer connection concurrently
//! ingests K rounds of the configured workload — the measured regime is
//! then "queries against a moving watermark", the paper's serving story.
//! Against a warm-started session, `--skip-rounds R` fast-forwards the
//! (deterministic) generator past the rounds the snapshot already
//! covers, so the churn continues the session's history instead of
//! replaying batches its topology has already absorbed.

use crate::args::Args;
use dds_bench::report::{mad, median, percentile};
use dds_net::serving::{loadgen, Client, ClientConfig, LoadgenOptions};
use dds_net::{NodeId, Query};
use serde::Value;
use std::time::Duration;

/// Run a loadgen burst and print the report.
pub fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let addr = args
        .options
        .get("addr")
        .ok_or("loadgen needs --addr HOST:PORT (a running `dds serve`)")?
        .to_string();
    let session = args.get_or("session", "main").to_string();
    let clients: usize = args.num_or("clients", 4)?;
    let queries: usize = args.num_or("queries", 200)?;
    let churn_rounds: usize = args.num_or("churn-rounds", 0)?;
    let skip_rounds: usize = args.num_or("skip-rounds", 0)?;

    // --tolerate-faults arms the resilient client: per-request deadlines,
    // seeded backoff+jitter, automatic retry of idempotent verbs (reads,
    // and sequence-stamped writes the daemon dedups). The knobs override
    // the tolerant profile's defaults (deadline 1000ms, 5 retries).
    let tolerate = if args.flag("tolerate-faults") {
        let mut cfg = ClientConfig::tolerant(args.num_or("client-seed", 0x5eed_u64)?);
        cfg.retries = args.num_or("retries", cfg.retries)?;
        let deadline_ms: u64 = args.num_or("deadline-ms", 1_000)?;
        cfg.deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
        Some(cfg)
    } else {
        None
    };

    // Ask the daemon about the target session: its n sizes the query mix,
    // its capability list decides which listing kinds to blend in. The
    // probe rides the tolerant config too — `list` is idempotent, so a
    // faulty wire only costs retries, not the whole run.
    let mut probe = match &tolerate {
        Some(cfg) => Client::connect_with(&addr, cfg.clone())?,
        None => Client::connect(&addr)?,
    };
    let listing = probe.list()?;
    let (n, kinds) = session_shape(&listing, &session)?;
    let mut extra: Vec<(NodeId, Query)> = Vec::new();
    if kinds.iter().any(|k| k == "list-triangles") {
        extra.push((NodeId(0), Query::ListTriangles));
        extra.push((NodeId((n / 2) as u32), Query::ListTriangles));
    }
    let mix = loadgen::default_mix(n, (clients * queries).max(16), &extra);

    // Churn batches come from the same workload registry the rest of the
    // CLI uses; the generator is deterministic, so reruns ingest the same
    // rounds. Against a warm-started session, --skip-rounds fast-forwards
    // past the snapshot's prefix so the churn continues its history.
    let churn = if churn_rounds > 0 {
        let mut src = crate::run::build_workload_source(args)?;
        if src.n() != n {
            return Err(format!(
                "--churn-rounds: the workload generates n = {} but session {session} \
                 has n = {n}; pass matching workload flags",
                src.n()
            ));
        }
        if skip_rounds > 0 {
            let skipped = src.skip_batches(skip_rounds);
            if skipped < skip_rounds {
                return Err(format!(
                    "--skip-rounds {skip_rounds}: the workload only generates \
                     {skipped} round(s); raise --rounds"
                ));
            }
        }
        let mut batches = Vec::with_capacity(churn_rounds);
        while batches.len() < churn_rounds {
            match src.next_batch() {
                Some(b) => batches.push(b),
                None => break,
            }
        }
        batches
    } else {
        Vec::new()
    };

    let opts = LoadgenOptions {
        addr,
        session,
        clients,
        queries_per_client: queries,
        tolerate,
    };
    let report = loadgen::run(&opts, &mix, &churn)?;

    let lat_median = median(&report.latencies);
    let lat_mad = mad(&report.latencies);
    let write_p50 = percentile(&report.write_latencies, 0.50);
    let write_p99 = percentile(&report.write_latencies, 0.99);
    if args.flag("json") {
        // `request_errors` and `first_error` carry the failure context a
        // bare nonzero exit code used to swallow: which verbs failed, how
        // often, and exactly where the first failure landed.
        let json_str = |s: &str| serde_json::to_string(&Value::Str(s.to_string())).unwrap();
        println!("{{");
        println!("  \"clients\": {clients},");
        println!("  \"queries\": {},", report.queries);
        println!("  \"answered\": {},", report.answered);
        println!("  \"inconsistent\": {},", report.inconsistent);
        println!("  \"errors\": {},", report.errors);
        println!("  \"churn_rounds\": {},", report.churn_rounds);
        println!("  \"wall_seconds\": {:.6},", report.wall_seconds);
        println!("  \"qps\": {:.1},", report.qps());
        println!("  \"latency_median_us\": {:.1},", lat_median * 1e6);
        println!("  \"latency_mad_us\": {:.1},", lat_mad * 1e6);
        println!("  \"write_seconds\": {:.6},", report.write_seconds);
        println!("  \"writes_per_sec\": {:.1},", report.writes_per_sec());
        println!("  \"write_p50_us\": {:.1},", write_p50 * 1e6);
        println!("  \"write_p99_us\": {:.1},", write_p99 * 1e6);
        println!("  \"retries\": {},", report.retries);
        println!("  \"reconnects\": {},", report.reconnects);
        let verbs: Vec<String> = report
            .request_errors
            .iter()
            .map(|(verb, count)| format!("{}: {count}", json_str(verb)))
            .collect();
        println!("  \"request_errors\": {{{}}},", verbs.join(", "));
        match &report.first_error {
            Some(first) => {
                println!("  \"first_error\": {{");
                println!("    \"verb\": {},", json_str(&first.verb));
                println!("    \"watermark\": {},", first.watermark);
                println!("    \"error\": {}", json_str(&first.error));
                println!("  }}");
            }
            None => println!("  \"first_error\": null"),
        }
        println!("}}");
    } else {
        println!(
            "loadgen:   {clients} client(s) × {queries} query(s){}",
            if report.churn_rounds > 0 {
                format!(
                    " under {} round(s) of concurrent churn",
                    report.churn_rounds
                )
            } else {
                String::new()
            }
        );
        println!(
            "outcomes:  {} answered / {} inconsistent / {} error(s)",
            report.answered, report.inconsistent, report.errors
        );
        println!(
            "rate:      {:.0} queries/s over {:.3}s reader wall",
            report.qps(),
            report.wall_seconds
        );
        println!(
            "latency:   median {:.1}us ± {:.1} MAD",
            lat_median * 1e6,
            lat_mad * 1e6
        );
        if report.churn_rounds > 0 {
            println!(
                "writes:    {:.1} writes/s over {:.3}s writer wall, p50 {:.1}us, p99 {:.1}us",
                report.writes_per_sec(),
                report.write_seconds,
                write_p50 * 1e6,
                write_p99 * 1e6
            );
        }
        if report.retries > 0 || report.reconnects > 0 {
            println!(
                "faults:    {} retry(s), {} reconnect(s) absorbed",
                report.retries, report.reconnects
            );
        }
        if let Some(first) = &report.first_error {
            println!(
                "failures:  {} request(s) failed; first: {} at watermark {}: {}",
                report.request_failures(),
                first.verb,
                first.watermark,
                first.error
            );
        }
    }
    if report.errors > 0 || report.request_failures() > 0 {
        let context = report
            .first_error
            .as_ref()
            .map(|f| {
                format!(
                    " — first failure: {} at watermark {}: {}",
                    f.verb, f.watermark, f.error
                )
            })
            .unwrap_or_default();
        return Err(format!(
            "{} query error(s), {} failed request(s) during loadgen{context}",
            report.errors,
            report.request_failures()
        ));
    }
    Ok(())
}

/// Pull (n, supported kinds) for one session out of a `list` payload.
fn session_shape(listing: &Value, session: &str) -> Result<(usize, Vec<String>), String> {
    let sessions = listing
        .get("sessions")
        .and_then(Value::as_array)
        .ok_or("list response has no `sessions` array")?;
    for entry in sessions {
        if entry.get("session").and_then(Value::as_str) == Some(session) {
            let n = entry
                .get("n")
                .and_then(|v| match v {
                    Value::U64(u) => Some(*u as usize),
                    _ => None,
                })
                .ok_or("session entry has no `n`")?;
            let kinds = entry
                .get("supported_queries")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default();
            return Ok((n, kinds));
        }
    }
    let known: Vec<&str> = sessions
        .iter()
        .filter_map(|e| e.get("session").and_then(Value::as_str))
        .collect();
    Err(format!(
        "daemon has no session named {session:?} (live: [{}])",
        known.join(", ")
    ))
}
