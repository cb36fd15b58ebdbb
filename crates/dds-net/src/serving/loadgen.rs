//! Load-generation core: N client threads of query traffic, optionally
//! against a concurrent churn writer — the measurement harness behind
//! `dds loadgen` and the `s5`/`s6` bench tiers.
//!
//! The generator is deliberately deterministic in everything but time:
//! each client issues a *fixed number* of queries drawn round-robin from
//! a shared mix (client `k` starts at offset `k`), so the total query
//! count — and, once the churn schedule is fixed, the set of (query,
//! watermark) pairs that *could* be observed — does not depend on
//! scheduling. Only the latencies and the answered/inconsistent split are
//! wall-clock dependent.
//!
//! A request that fails (transport error, daemon fault, rejection) no
//! longer aborts the run: it is counted per verb, the first failure is
//! kept with its verb and watermark for the report, and — in tolerant
//! mode (`--tolerate-faults`) — the underlying [`Client`] retries and
//! reconnects first, with those counts surfacing in the report too.

use super::client::{Client, ClientConfig, QueryOutcome};
use crate::event::EventBatch;
use crate::ids::NodeId;
use crate::query::Query;
use std::collections::BTreeMap;
use std::time::Instant;

/// One loadgen run's shape.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Target session name.
    pub session: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Queries *per client* (fixed, so totals are deterministic).
    pub queries_per_client: usize,
    /// Resilient-client config (`--tolerate-faults`): deadlines, retries,
    /// backoff. `None` = fail-fast clients (each thread still records
    /// failures instead of aborting the run).
    pub tolerate: Option<ClientConfig>,
}

/// The first failed request of a run — enough context to reproduce it.
#[derive(Clone, Debug)]
pub struct FirstError {
    /// The verb that failed (`query`, `ingest`, `connect`).
    pub verb: String,
    /// The last watermark the failing client had observed.
    pub watermark: u64,
    /// The error text.
    pub error: String,
}

/// What a loadgen run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Queries issued (= clients × queries_per_client when every request
    /// got a response).
    pub queries: u64,
    /// Consistent answers.
    pub answered: u64,
    /// `inconsistent` outcomes (valid under churn).
    pub inconsistent: u64,
    /// Query errors (unsupported/malformed) — 0 on a healthy run.
    pub errors: u64,
    /// Reader wall time: seconds from the start of the run until the last
    /// reader finished. The churn writer is timed separately
    /// (`write_seconds`), so a slow writer does not dilute the query rate.
    pub wall_seconds: f64,
    /// Client-observed per-request latencies in seconds, all clients
    /// concatenated (unordered).
    pub latencies: Vec<f64>,
    /// Rounds the concurrent churn writer ingested (0 without churn).
    pub churn_rounds: u64,
    /// Writer wall time: seconds from the start of the run until the churn
    /// writer's last reply (0 without churn).
    pub write_seconds: f64,
    /// Client-observed latency of each acknowledged ingest, in seconds.
    pub write_latencies: Vec<f64>,
    /// Failed requests by verb (after any retries were exhausted).
    pub request_errors: BTreeMap<String, u64>,
    /// The first failed request, with verb + watermark context.
    pub first_error: Option<FirstError>,
    /// Transport retries performed across all clients.
    pub retries: u64,
    /// Reconnections performed across all clients.
    pub reconnects: u64,
}

impl LoadgenReport {
    /// Reader queries per second of reader wall time.
    pub fn qps(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.queries as f64 / self.wall_seconds
    }

    /// Acknowledged churn writes per second of writer wall time.
    pub fn writes_per_sec(&self) -> f64 {
        if self.write_seconds <= 0.0 {
            return 0.0;
        }
        self.churn_rounds as f64 / self.write_seconds
    }

    /// Total failed requests (all verbs, after retries).
    pub fn request_failures(&self) -> u64 {
        self.request_errors.values().sum()
    }

    fn note_failure(&mut self, verb: &str, watermark: u64, error: String) {
        *self.request_errors.entry(verb.to_string()).or_insert(0) += 1;
        if self.first_error.is_none() {
            self.first_error = Some(FirstError {
                verb: verb.to_string(),
                watermark,
                error,
            });
        }
    }

    fn absorb(&mut self, part: LoadgenReport) {
        self.queries += part.queries;
        self.answered += part.answered;
        self.inconsistent += part.inconsistent;
        self.errors += part.errors;
        self.wall_seconds = self.wall_seconds.max(part.wall_seconds);
        self.latencies.extend(part.latencies);
        self.churn_rounds += part.churn_rounds;
        self.write_seconds = self.write_seconds.max(part.write_seconds);
        self.write_latencies.extend(part.write_latencies);
        for (verb, count) in part.request_errors {
            *self.request_errors.entry(verb).or_insert(0) += count;
        }
        if self.first_error.is_none() {
            self.first_error = part.first_error;
        }
        self.retries += part.retries;
        self.reconnects += part.reconnects;
    }
}

/// Connect one loadgen client: tolerant config (with a per-thread seed so
/// sequence/jitter streams never collide) or the fail-fast default.
fn connect(
    addr: &str,
    tolerate: &Option<ClientConfig>,
    thread_seed: u64,
) -> Result<Client, String> {
    match tolerate {
        Some(cfg) => {
            let mut cfg = cfg.clone();
            cfg.seed ^= thread_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Client::connect_with(addr, cfg)
        }
        None => Client::connect(addr),
    }
}

/// Drive `opts.clients` threads of query traffic from `mix` against the
/// daemon, optionally ingesting `churn` batches (one round per batch, on
/// a dedicated writer connection) concurrently with the reads. Returns
/// after *all* queries are answered (or counted as failed) and the churn
/// writer has drained or given up; `Err` only for unusable options or a
/// panicked worker.
pub fn run(
    opts: &LoadgenOptions,
    mix: &[(NodeId, Query)],
    churn: &[EventBatch],
) -> Result<LoadgenReport, String> {
    if mix.is_empty() {
        return Err("loadgen needs a non-empty query mix".into());
    }
    if opts.clients == 0 {
        return Err("loadgen needs at least one client".into());
    }
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        // The single writer: its own connection, one ingest verb per
        // batch so the watermark advances round by round under the reads.
        // An ingest failure stops the churn — batches are a sequential
        // round schedule, so skipping one would change every later round.
        let churn_worker = (!churn.is_empty()).then(|| {
            let addr = opts.addr.clone();
            let session = opts.session.clone();
            let tolerate = opts.tolerate.clone();
            scope.spawn(move || -> LoadgenReport {
                let mut part = LoadgenReport::default();
                let mut client = match connect(&addr, &tolerate, u64::MAX) {
                    Ok(c) => c,
                    Err(e) => {
                        part.note_failure("connect", 0, e);
                        return part;
                    }
                };
                let mut watermark = 0u64;
                for batch in churn {
                    let t = Instant::now();
                    match client.ingest(&session, vec![batch.clone()]) {
                        Ok(w) => {
                            part.write_latencies.push(t.elapsed().as_secs_f64());
                            watermark = w;
                            part.churn_rounds += 1;
                        }
                        Err(e) => {
                            part.note_failure("ingest", watermark, e);
                            break;
                        }
                    }
                }
                part.write_seconds = t0.elapsed().as_secs_f64();
                part.retries = client.retries();
                part.reconnects = client.reconnects();
                part
            })
        });
        let readers: Vec<_> = (0..opts.clients)
            .map(|k| {
                let addr = opts.addr.clone();
                let session = opts.session.clone();
                let tolerate = opts.tolerate.clone();
                scope.spawn(move || -> Result<LoadgenReport, String> {
                    let mut report = LoadgenReport::default();
                    let mut client = match connect(&addr, &tolerate, k as u64) {
                        Ok(c) => c,
                        Err(e) => {
                            report.note_failure("connect", 0, e);
                            return Ok(report);
                        }
                    };
                    let mut watermark = 0u64;
                    for i in 0..opts.queries_per_client {
                        let (at, query) = &mix[(k + i) % mix.len()];
                        let t = Instant::now();
                        let reply = match client.query(&session, vec![(*at, query.clone())]) {
                            Ok(reply) => reply,
                            Err(e) => {
                                report.note_failure("query", watermark, e);
                                // The stream may be torn; a fresh
                                // connection is the only safe continuation.
                                report.retries += client.retries();
                                report.reconnects += client.reconnects();
                                client = match connect(&addr, &tolerate, k as u64) {
                                    Ok(c) => c,
                                    Err(e) => {
                                        report.note_failure("connect", watermark, e);
                                        return Ok(report);
                                    }
                                };
                                continue;
                            }
                        };
                        report.latencies.push(t.elapsed().as_secs_f64());
                        report.queries += 1;
                        watermark = reply.watermark;
                        match &reply.outcomes[..] {
                            [QueryOutcome::Answer(_)] => report.answered += 1,
                            [QueryOutcome::Inconsistent] => report.inconsistent += 1,
                            [QueryOutcome::Error(_)] => report.errors += 1,
                            other => {
                                return Err(format!(
                                    "expected exactly one outcome, got {}",
                                    other.len()
                                ))
                            }
                        }
                    }
                    report.wall_seconds = t0.elapsed().as_secs_f64();
                    report.retries += client.retries();
                    report.reconnects += client.reconnects();
                    Ok(report)
                })
            })
            .collect();
        let mut total = LoadgenReport::default();
        for handle in readers {
            let part = handle
                .join()
                .map_err(|_| "loadgen client thread panicked".to_string())??;
            total.absorb(part);
        }
        if let Some(worker) = churn_worker {
            let part = worker
                .join()
                .map_err(|_| "loadgen churn thread panicked".to_string())?;
            total.absorb(part);
        }
        Ok(total)
    })
}

/// A deterministic mixed-query workload over an `n`-node network: mostly
/// edge-membership probes (every protocol answers those) rotating through
/// the id space, with every fourth query drawn from `extra` (protocol-
/// specific kinds, e.g. `list-triangles`) when any are given.
pub fn default_mix(n: usize, count: usize, extra: &[(NodeId, Query)]) -> Vec<(NodeId, Query)> {
    assert!(n >= 2, "a query mix needs at least two nodes");
    let mut mix = Vec::with_capacity(count);
    for i in 0..count {
        if !extra.is_empty() && i % 4 == 3 {
            mix.push(extra[(i / 4) % extra.len()].clone());
            continue;
        }
        // A fixed odd stride walks the whole id space without RNG state.
        let u = ((i as u64 * 7919) % n as u64) as u32;
        let w = ((u as u64 + 1 + (i as u64 % (n as u64 - 1))) % n as u64) as u32;
        let (u, w) = if u == w {
            (u, (w + 1) % n as u32)
        } else {
            (u, w)
        };
        mix.push((NodeId(u), Query::Edge(crate::ids::edge(u, w))));
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_is_deterministic_and_valid() {
        let a = default_mix(16, 40, &[(NodeId(0), Query::ListTriangles)]);
        let b = default_mix(16, 40, &[(NodeId(0), Query::ListTriangles)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        assert!(a.iter().any(|(_, q)| matches!(q, Query::ListTriangles)));
        for (at, q) in &a {
            assert!((at.0 as usize) < 16);
            if let Query::Edge(e) = q {
                assert_ne!(e.lo(), e.hi());
                assert!((e.hi().0 as usize) < 16);
            }
        }
    }

    #[test]
    fn qps_handles_degenerate_walls() {
        let mut r = LoadgenReport {
            queries: 10,
            ..LoadgenReport::default()
        };
        assert_eq!(r.qps(), 0.0);
        r.wall_seconds = 2.0;
        assert_eq!(r.qps(), 5.0);
    }

    #[test]
    fn query_rate_ignores_the_churn_writers_wall_time() {
        let reader = |queries, wall_seconds| LoadgenReport {
            queries,
            wall_seconds,
            ..LoadgenReport::default()
        };
        let writer = LoadgenReport {
            churn_rounds: 100,
            write_seconds: 50.0,
            write_latencies: vec![0.5; 100],
            ..LoadgenReport::default()
        };
        let mut total = LoadgenReport::default();
        total.absorb(reader(10, 1.0));
        total.absorb(reader(10, 2.0));
        total.absorb(writer);
        assert_eq!(total.wall_seconds, 2.0, "the slowest reader sets the wall");
        assert_eq!(total.qps(), 10.0);
        assert_eq!(total.writes_per_sec(), 2.0);
        assert_eq!(total.write_latencies.len(), 100);
        assert_eq!(LoadgenReport::default().writes_per_sec(), 0.0);
    }

    #[test]
    fn reports_merge_error_context_and_counters() {
        let mut a = LoadgenReport::default();
        a.note_failure("query", 3, "boom".into());
        a.note_failure("query", 4, "later".into());
        let mut b = LoadgenReport::default();
        b.note_failure("ingest", 7, "other".into());
        b.retries = 2;
        b.reconnects = 1;
        let mut total = LoadgenReport::default();
        total.absorb(a);
        total.absorb(b);
        assert_eq!(total.request_failures(), 3);
        assert_eq!(total.request_errors.get("query"), Some(&2));
        assert_eq!(total.request_errors.get("ingest"), Some(&1));
        let first = total.first_error.as_ref().unwrap();
        assert_eq!((first.verb.as_str(), first.watermark), ("query", 3));
        assert_eq!((total.retries, total.reconnects), (2, 1));
    }
}
