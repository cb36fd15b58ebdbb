//! `serve-read` and `serve-write`: a `dds serve` child process running
//! `triangle` at n = 2·10³, warm-started (`--resume`) from a settled `er`
//! equilibrium snapshot that set-up builds.
//!
//! - `serve-read`: no writes and no durability; one reader connection sends
//!   queries open-loop at a fixed rate. Publish and persist never run.
//! - `serve-write`: `--checkpoint-dir` persists every write; one writer
//!   connection ingests one `er` round per `ingest`, closed-loop, while one
//!   reader connection queries open-loop at a low rate. The daemon is then
//!   killed with SIGKILL and `dds serve --recover` is timed to its first
//!   answer at the durable watermark.

use crate::daemon::Daemon;
use crate::gen::{self, ErGen, Mix, Rng};
use crate::openloop::{wait_until, Schedule, Timing};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, Samples};
use dds_net::checkpoint::{scan_snapshot_dir, write_bytes_atomic};
use dds_net::serving::wire::{self, Request};
use dds_net::serving::{Client, Durability, QueryOutcome, QueryReply, ServingSession};
use dds_net::{Answer, Edge, EventBatch, NodeId, Query, Response, Session, SimConfig, Snapshot};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const PROTOCOL: &str = "triangle";
const N: usize = 2_000;
/// The warm start: `er` rounds of this many attempted changes bring the
/// network to its ~2n-edge equilibrium before it settles.
const WARM_ROUNDS: usize = 100;
const WARM_CHANGES: usize = 128;
/// Attempted changes in each ingested round (the `er` default).
const WRITE_CHANGES: usize = 4;
/// Offered read rates, per second. serve-read offers about a quarter of
/// what one connection sustains closed-loop (~14k/s on 2 CPUs): enough that
/// the daemon's CPU rarely sits idle between requests, so an idle CPU's
/// wake-up does not dominate the latency, and far enough below capacity
/// that a slow stretch on a shared machine does not build a lasting queue.
const READ_RATE: f64 = 4_000.0;
const WRITE_READ_RATE: f64 = 100.0;
/// Write batches generated per second of run: far more than are acked.
const WRITES_PER_S_CAP: usize = 2_000;
/// Set-ups (input generation, snapshot, daemon boot) per run.
const SETUPS: usize = 5;
/// `--recover` launches per run; `recover_s` is the median.
const RECOVERIES: usize = 3;
/// Writes replayed through the in-process layer probes.
const PROBES: usize = 50;
/// Requests whose frames are encoded and decoded in-process.
const WIRE_SAMPLES: usize = 1_000;
/// Requests exchanged over a raw connection to capture response bytes,
/// and `list` round trips timed.
const RAW_SAMPLES: usize = 200;
const SESSION: &str = "main";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Read,
    Write,
}

pub struct Ctx<'a> {
    pub dds: &'a Path,
    /// Scratch directory of this run; removed by the caller.
    pub work: &'a Path,
}

struct Inputs {
    warm: Snapshot,
    warm_doc: String,
    queries: Vec<(NodeId, Query)>,
    writes: Vec<EventBatch>,
}

impl Inputs {
    fn warm_round(&self) -> u64 {
        self.warm.header.round
    }
}

fn generate(seed: u64, mode: Mode, seconds: u64) -> Result<Inputs, String> {
    let mut er = ErGen::new(N, 2 * N, Rng::stream(seed, 1));
    let mut s = dds_bench::protocols().open(PROTOCOL, N, SimConfig::default())?;
    for b in gen::er_rounds(&mut er, WARM_ROUNDS, WARM_CHANGES) {
        s.step(&b);
    }
    s.settle(10_000)
        .ok_or("the warm-start network did not settle")?;
    let warm = s.checkpoint();
    let rate = match mode {
        Mode::Read => READ_RATE,
        Mode::Write => WRITE_READ_RATE,
    };
    let count = (rate * seconds as f64) as usize + 2;
    let queries = gen::queries(
        &mut Rng::stream(seed, 2),
        &er.adjacency(),
        Mix::EdgeAndListTriangles,
        count,
    );
    let writes = match mode {
        Mode::Read => Vec::new(),
        Mode::Write => gen::er_rounds(&mut er, WRITES_PER_S_CAP * seconds as usize, WRITE_CHANGES),
    };
    Ok(Inputs {
        warm_doc: warm.to_json(),
        warm,
        queries,
        writes,
    })
}

fn same_inputs(a: &Inputs, b: &Inputs) -> bool {
    a.warm_doc == b.warm_doc
        && gen::query_bytes(&a.queries) == gen::query_bytes(&b.queries)
        && gen::batch_bytes(&a.writes) == gen::batch_bytes(&b.writes)
}

fn probe_query() -> (NodeId, Query) {
    (NodeId(0), Query::Edge(Edge::new(NodeId(0), NodeId(1))))
}

/// Ask until the daemon answers at `round`; fails on a later watermark or
/// after `patience`.
fn await_round(addr: &str, round: u64, patience: Duration) -> Result<Client, String> {
    let start = Instant::now();
    loop {
        let attempt = Client::connect(addr).and_then(|mut c| {
            let reply = c.query(SESSION, vec![probe_query()])?;
            Ok((c, reply.watermark))
        });
        match attempt {
            Ok((c, w)) if w == round => return Ok(c),
            Ok((_, w)) if w > round => {
                return Err(format!("daemon answered at round {w}, past round {round}"))
            }
            _ if start.elapsed() > patience => {
                return Err(format!(
                    "daemon did not answer at round {round} within {patience:?}"
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn path_arg(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", p.display()))
}

/// Write the warm snapshot, start the daemon from it and wait for its
/// first answer.
fn boot(ctx: &Ctx<'_>, inputs: &Inputs, ckpt: Option<&Path>) -> Result<(Daemon, Client), String> {
    let warm_path = ctx.work.join("warm.json");
    std::fs::write(&warm_path, &inputs.warm_doc)
        .map_err(|e| format!("{}: {e}", warm_path.display()))?;
    let mut args = vec!["--resume", path_arg(&warm_path)?];
    if let Some(dir) = ckpt {
        args.extend(["--checkpoint-dir", path_arg(dir)?]);
    }
    let daemon = Daemon::start(ctx.dds, &args)?;
    let client = await_round(&daemon.addr, inputs.warm_round(), Duration::from_secs(30))?;
    Ok((daemon, client))
}

/// One open-loop reader phase.
#[derive(Default)]
struct Reads {
    timings: Vec<Timing>,
    replies: Vec<(usize, Result<QueryReply, String>)>,
    wall: Duration,
}

impl Reads {
    fn latencies(&self) -> Samples {
        Samples::new(
            self.timings
                .iter()
                .zip(&self.replies)
                .filter(|(_, (_, r))| r.is_ok())
                .map(|(t, _)| t.latency_us())
                .collect(),
        )
    }

    /// The median over one-second windows (by due time) of each window's
    /// `p`-th percentile latency: a burst of load from outside the
    /// benchmark moves one window, not the result.
    fn windowed_pct(&self, p: f64) -> f64 {
        let Some(first) = self.timings.first().map(|t| t.due) else {
            return 0.0;
        };
        let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (t, (_, r)) in self.timings.iter().zip(&self.replies) {
            if r.is_ok() {
                let w = (t.due - first).as_secs();
                windows.entry(w).or_default().push(t.latency_us());
            }
        }
        let per_window: Vec<f64> = windows
            .into_values()
            .map(|v| Samples::new(v).pct(p))
            .collect();
        median(&per_window)
    }

    fn answered(&self) -> usize {
        self.replies
            .iter()
            .filter(|(_, r)| {
                r.as_ref()
                    .is_ok_and(|r| !r.outcomes.iter().any(QueryOutcome::is_error))
            })
            .count()
    }
}

/// Send `queries[first..]` open-loop at `rate` for `budget`.
fn read_open_loop(
    client: &mut Client,
    queries: &[(NodeId, Query)],
    first: usize,
    rate: f64,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Reads {
    let sched = Schedule::new(Instant::now(), rate);
    let mut out = Reads::default();
    for k in 0.. {
        let due = sched.due(k);
        let i = first + k;
        if due - sched.start >= budget || i >= queries.len() {
            break;
        }
        wait_until(due);
        let sent = Instant::now();
        let ask = vec![queries[i].clone()];
        let reply = match tracer.as_deref_mut() {
            Some(tr) => tr.span("client.query", None, i as u64, || {
                client.query(SESSION, ask)
            }),
            None => client.query(SESSION, ask),
        };
        let done = Instant::now();
        out.timings.push(Timing { due, sent, done });
        out.replies.push((i, reply));
    }
    out.wall = sched.start.elapsed();
    out
}

/// One closed-loop writer phase.
#[derive(Default)]
struct Writes {
    latency_us: Vec<f64>,
    acked: usize,
    last_watermark: Option<u64>,
    error: Option<String>,
    wall: Duration,
}

impl Writes {
    fn per_s(&self) -> f64 {
        self.acked as f64 / self.wall.as_secs_f64()
    }
}

/// Ingest `writes[first..]`, one round per request, each sent as soon as
/// the previous one is acked, for `budget`. Stops at the first refusal.
fn write_closed_loop(
    client: &mut Client,
    writes: &[EventBatch],
    first: usize,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Writes {
    let start = Instant::now();
    let mut out = Writes::default();
    let mut i = first;
    while start.elapsed() < budget && i < writes.len() {
        let t = Instant::now();
        let batch = vec![writes[i].clone()];
        let r = match tracer.as_deref_mut() {
            Some(tr) => tr.span("client.ingest", None, i as u64, || {
                client.ingest(SESSION, batch)
            }),
            None => client.ingest(SESSION, batch),
        };
        out.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        match r {
            Ok(w) => {
                out.acked += 1;
                out.last_watermark = Some(w);
                i += 1;
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    out.wall = start.elapsed();
    out
}

/// What one timed phase (untraced or traced) measured.
struct Phase {
    reads: Reads,
    writes: Writes,
    /// Daemon CPU used during the phase, ms.
    cpu_ms: f64,
}

/// Run one timed phase. `client` reads on serve-read and writes on
/// serve-write, where a second connection reads from its own thread.
fn phase(
    mode: Mode,
    daemon: &Daemon,
    client: &mut Client,
    inputs: &Inputs,
    (first_read, first_write): (usize, usize),
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let cpu0 = daemon.cpu_ms()?;
    let (reads, writes) = match mode {
        Mode::Read => {
            let r = read_open_loop(
                client,
                &inputs.queries,
                first_read,
                READ_RATE,
                budget,
                tracer,
            );
            (r, Writes::default())
        }
        Mode::Write => {
            let mut reader = Client::connect(&daemon.addr)?;
            let mut reader_tracer = tracer.is_some().then(Tracer::new);
            let (reads, writes) = std::thread::scope(|s| {
                let rt = reader_tracer.as_mut();
                let queries = &inputs.queries;
                let r = s.spawn(move || {
                    read_open_loop(
                        &mut reader,
                        queries,
                        first_read,
                        WRITE_READ_RATE,
                        budget,
                        rt,
                    )
                });
                let w = write_closed_loop(
                    client,
                    &inputs.writes,
                    first_write,
                    budget,
                    tracer.as_deref_mut(),
                );
                (r.join(), w)
            });
            if let (Some(t), Some(rt)) = (tracer, reader_tracer) {
                t.absorb(rt);
            }
            let reads = reads.map_err(|_| "the reader thread panicked".to_string())?;
            (reads, writes)
        }
    };
    Ok(Phase {
        cpu_ms: daemon.cpu_ms()? - cpu0,
        reads,
        writes,
    })
}

/// The local mirror: the warm snapshot restored in-process and stepped
/// through the acked writes. It checks every served answer at its
/// watermark, gives the final checkpoint to compare with the daemon's, and
/// hosts the in-process layer probes.
#[derive(Default)]
struct Mirror {
    final_doc: String,
    step_us: Vec<f64>,
    answer_us: Vec<f64>,
    messages: u64,
    bits: u64,
    active: u64,
    amortized: f64,
    capture_ms: Vec<f64>,
    to_json_ms: Vec<f64>,
    persist_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    snapshot_mb: f64,
}

fn same_outcome(local: &Result<Response<Answer>, String>, served: &QueryOutcome) -> bool {
    match (local, served) {
        (Ok(Response::Answer(a)), QueryOutcome::Answer(b)) => a == b,
        (Ok(Response::Inconsistent), QueryOutcome::Inconsistent) => true,
        (Err(_), QueryOutcome::Error(_)) => true,
        _ => false,
    }
}

fn mirror(
    ctx: &Ctx<'_>,
    inputs: &Inputs,
    acked: usize,
    reads: &[&(usize, Result<QueryReply, String>)],
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<Mirror, String> {
    let registry = dds_bench::protocols();
    let mut m: Session = registry.restore(&inputs.warm).map_err(|e| e.to_string())?;
    let mut by_round: BTreeMap<u64, Vec<(usize, &QueryReply)>> = BTreeMap::new();
    for (i, r) in reads {
        if let Ok(reply) = r {
            by_round
                .entry(reply.watermark)
                .or_default()
                .push((*i, reply));
        }
    }
    let mut res = Mirror::default();
    let (msg0, bits0) = (m.bandwidth().total_messages(), m.bandwidth().total_bits());
    let probe_dir = ctx.work.join("persist-probe");
    std::fs::create_dir_all(&probe_dir).map_err(|e| format!("{}: {e}", probe_dir.display()))?;
    let mut check_reads = |m: &Session, res: &mut Mirror, out: &mut Outcome| {
        for (i, reply) in by_round.remove(&m.round()).unwrap_or_default() {
            let (at, q) = &inputs.queries[i];
            let t = Instant::now();
            let local = m.query(*at, q);
            res.answer_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.check(
                reply.outcomes.len() == 1 && same_outcome(&local, &reply.outcomes[0]),
                || {
                    format!(
                        "query {i} at round {}: served {:?}, local {local:?}",
                        m.round(),
                        reply.outcomes
                    )
                },
            );
        }
    };
    check_reads(&m, &mut res, out);
    for (i, batch) in inputs.writes[..acked].iter().enumerate() {
        let probe = tracer.is_some() && i < PROBES;
        let parent = tracer
            .as_deref_mut()
            .filter(|_| probe)
            .map(|t| t.begin("publish.probe", None, i as u64));
        let t = Instant::now();
        match tracer.as_deref_mut().filter(|_| probe) {
            Some(tr) => tr.span("engine.step", parent, i as u64, || m.step(batch)),
            None => m.step(batch),
        }
        res.step_us.push(t.elapsed().as_secs_f64() * 1e6);
        res.active += m.active_nodes() as u64;
        if let (Some(tr), true) = (tracer.as_deref_mut(), probe) {
            let req = i as u64;
            let (snap, took) = tr.span_ms("checkpoint.capture", parent, req, || m.checkpoint());
            res.capture_ms.push(took);
            let (bytes, took) = tr.span_ms("checkpoint.to_json", parent, req, || {
                snap.to_json().into_bytes()
            });
            res.to_json_ms.push(took);
            res.snapshot_mb = bytes.len() as f64 / (1024.0 * 1024.0);
            let path = probe_dir.join(format!("checkpoint_{:06}.json", snap.header.round));
            let (written, took) = tr.span_ms("checkpoint.persist", parent, req, || {
                write_bytes_atomic(&path, &bytes)
            });
            written.map_err(|e| e.to_string())?;
            res.persist_ms.push(took);
            let (restored, took) = tr.span_ms("checkpoint.restore", parent, req, || {
                registry.restore(&snap)
            });
            restored.map_err(|e| e.to_string())?;
            res.restore_ms.push(took);
            tr.end(parent.expect("probe spans have a parent"));
        }
        check_reads(&m, &mut res, out);
    }
    for (round, rs) in &by_round {
        out.check(false, || {
            format!(
                "{} answers at round {round}, which no acked write reached",
                rs.len()
            )
        });
    }
    res.messages = m.bandwidth().total_messages() - msg0;
    res.bits = m.bandwidth().total_bits() - bits0;
    res.amortized = m.meter().amortized();
    res.final_doc = m.checkpoint().to_json();
    Ok(res)
}

/// The daemon's checkpoint document, as served.
fn served_doc(client: &mut Client) -> Result<String, String> {
    let v = client.request(&Request::Checkpoint {
        session: SESSION.into(),
    })?;
    v.get("snapshot")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "checkpoint response has no snapshot".into())
}

fn encode(at: NodeId, q: &Query) -> Vec<u8> {
    let req = Request::Query {
        session: SESSION.into(),
        queries: vec![(at, q.clone())],
    };
    let mut frame = Vec::new();
    let json = serde_json::to_string(&req.to_value()).expect("json write is infallible");
    wire::write_frame(&mut frame, json.as_bytes()).expect("writing to a Vec cannot fail");
    frame
}

fn decode(frame: &[u8]) -> Result<Request, String> {
    let (payload, _) = wire::read_frame(&mut &frame[..])
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    Request::from_value(&v)
}

/// Frame codec cost on the run's real requests, and request plus response
/// bytes from a raw exchange with the daemon.
struct WireProbe {
    encode_us: Samples,
    decode_us: Samples,
    bytes_per_query: f64,
}

fn wire_probe(
    addr: &str,
    queries: &[(NodeId, Query)],
    out: &mut Outcome,
) -> Result<WireProbe, String> {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for (at, q) in queries.iter().take(WIRE_SAMPLES) {
        let t = Instant::now();
        let frame = encode(*at, q);
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let req = decode(&frame);
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(
            matches!(&req, Ok(Request::Query { queries, .. }) if queries.len() == 1 && queries[0] == (*at, q.clone())),
            || format!("frame round trip changed the request: {req:?}"),
        );
    }
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut bytes = 0usize;
    let sample = &queries[..RAW_SAMPLES.min(queries.len())];
    for (at, q) in sample {
        let frame = encode(*at, q);
        std::io::Write::write_all(&mut stream, &frame).map_err(|e| format!("send: {e}"))?;
        let (payload, len) = wire::read_frame(&mut stream)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("daemon closed the connection")?;
        let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        wire::check_response(&v)?;
        bytes += frame.len() + len;
    }
    Ok(WireProbe {
        encode_us: Samples::new(enc),
        decode_us: Samples::new(dec),
        bytes_per_query: bytes as f64 / sample.len().max(1) as f64,
    })
}

fn list_rtt_us(client: &mut Client) -> Result<Samples, String> {
    let mut v = Vec::new();
    for _ in 0..RAW_SAMPLES {
        let t = Instant::now();
        client.list()?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(Samples::new(v))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| {
                    let p = e.path();
                    if p.is_dir() {
                        dir_bytes(&p)
                    } else {
                        e.metadata().map_or(0, |m| m.len())
                    }
                })
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(
    ctx: &Ctx<'_>,
    mode: Mode,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut kept: Option<(Inputs, Daemon, Client, Option<PathBuf>)> = None;
    for rep in 0..SETUPS {
        let ckpt = (mode == Mode::Write).then(|| ctx.work.join(format!("checkpoints-{rep}")));
        let t = Instant::now();
        let inputs = generate(seed, mode, seconds)?;
        let (daemon, client) = boot(ctx, &inputs, ckpt.as_deref())?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((prev, mut old, _, old_dir)) = kept.take() {
            out.check(same_inputs(&prev, &inputs), || {
                "the same seed generated different inputs".into()
            });
            old.kill();
            if let Some(d) = old_dir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        kept = Some((inputs, daemon, client, ckpt));
    }
    let (inputs, mut daemon, mut client, ckpt) = kept.expect("set-up ran");
    let warm_round = inputs.warm_round();

    let budget = Duration::from_secs(seconds);
    let mut tracer = Tracer::new();
    let (plain, traced_phase) = if traced {
        let plain = phase(
            mode,
            &daemon,
            &mut client,
            &inputs,
            (0, 0),
            budget / 2,
            None,
        )?;
        let next = (plain.reads.replies.len(), plain.writes.acked);
        let t = phase(
            mode,
            &daemon,
            &mut client,
            &inputs,
            next,
            budget / 2,
            Some(&mut tracer),
        )?;
        (plain, Some(t))
    } else {
        (
            phase(mode, &daemon, &mut client, &inputs, (0, 0), budget, None)?,
            None,
        )
    };
    let phases: Vec<&Phase> = std::iter::once(&plain)
        .chain(traced_phase.as_ref())
        .collect();
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let acked: usize = phases.iter().map(|p| p.writes.acked).sum();
    let reads: Vec<&(usize, Result<QueryReply, String>)> =
        phases.iter().flat_map(|p| p.reads.replies.iter()).collect();
    for p in &phases {
        out.attempted += (p.reads.replies.len() + p.writes.latency_us.len()) as u64;
        out.failed += (p.reads.replies.len() - p.reads.answered()) as u64;
        if let Some(e) = &p.writes.error {
            out.failed += 1;
            out.line(format!("write refused: {e}"));
        }
    }
    let last_watermark = phases.iter().rev().find_map(|p| p.writes.last_watermark);
    out.check(
        acked == 0 || last_watermark == Some(warm_round + acked as u64),
        || format!("{acked} acked writes from round {warm_round} ended at watermark {last_watermark:?}"),
    );
    let wire = if traced {
        let wp = wire_probe(&daemon.addr, &inputs.queries, &mut out)?;
        Some((wp, list_rtt_us(&mut client)?))
    } else {
        None
    };

    // Every served answer equals the local session's at its watermark, and
    // the served checkpoint equals the local one byte for byte.
    let m = mirror(
        ctx,
        &inputs,
        acked,
        &reads,
        traced.then_some(&mut tracer),
        &mut out,
    )?;
    let served = served_doc(&mut client)?;
    out.check(served == m.final_doc, || {
        format!(
            "the served checkpoint at round {} differs from the local session's",
            warm_round + acked as u64
        )
    });

    let plain_lat = plain.reads.latencies();
    let late = Samples::new(plain.reads.timings.iter().map(Timing::late_ms).collect());
    out.end_to_end.insert("setup_s", median(&setup_s));
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb);
    out.line(format!(
        "workload: {PROTOCOL} at n = {N}, warm-started at round {warm_round} from a settled er equilibrium of {} edges",
        dds_bench::protocols().restore(&inputs.warm).map_or(0, |s| s.topology().edge_count())
    ));
    out.line(format!(
        "setup_s = {:.4} s (median of {SETUPS}: input generation, warm-start snapshot, daemon boot to first answer)",
        median(&setup_s)
    ));
    out.line(format!(
        "peak_rss_mb = {peak_rss_mb:.2} MB (VmHWM of the daemon child)"
    ));

    let mut recover_s = Vec::new();
    match mode {
        Mode::Read => {
            out.line(format!(
                "loops: 1 reader connection, open loop at {READ_RATE} queries/s (edge membership, list-triangles every 4th); no writer"
            ));
            out.end_to_end.insert(
                "ops_per_s",
                plain.reads.answered() as f64 / plain.reads.wall.as_secs_f64(),
            );
            out.line(format!(
                "ops_per_s = {:.2} 1/s (answered queries / reader wall time)",
                out.end_to_end["ops_per_s"]
            ));
            out.line(format!(
                "query latency from due time, pooled: {}, {}, {}",
                plain_lat.describe(50.0, "us"),
                plain_lat.describe(90.0, "us"),
                plain_lat.describe(99.0, "us")
            ));
        }
        Mode::Write => {
            let w = &plain.writes;
            out.end_to_end.insert("ops_per_s", w.per_s());
            out.line(format!(
                "loops: 1 writer connection, closed loop, one er round of {WRITE_CHANGES} attempted changes per ingest; 1 reader connection, open loop at {WRITE_READ_RATE} queries/s"
            ));
            out.line(format!(
                "ingest.writes_per_s = ops_per_s = {:.2} 1/s ({} acked writes / {:.3} s writer wall time)",
                w.per_s(),
                w.acked,
                w.wall.as_secs_f64()
            ));
            let wl_ms = Samples::new(w.latency_us.iter().map(|us| us / 1e3).collect());
            out.line(format!(
                "ingest ack latency: {}, {}",
                wl_ms.describe(50.0, "ms"),
                wl_ms.describe(90.0, "ms")
            ));
            out.line(format!(
                "reader query latency from due time: {}, {}",
                plain_lat.describe(50.0, "us"),
                plain_lat.describe(99.0, "us")
            ));
            let dir = ckpt.as_deref().expect("serve-write persists");
            let disk = dir_bytes(dir) as f64 / (1024.0 * 1024.0);
            out.line(format!(
                "disk.mb_per_write = {:.4} MB ({disk:.1} MB in the checkpoint directory / {acked} acked writes)",
                disk / acked.max(1) as f64
            ));

            // Crash, then time recovery to the first answer at the durable
            // watermark: every acked write was persisted before its ack.
            daemon.kill();
            let durable = warm_round + acked as u64;
            for _ in 0..RECOVERIES {
                let t = Instant::now();
                let mut d = Daemon::start(ctx.dds, &["--recover", path_arg(dir)?])?;
                let mut c = await_round(&d.addr, durable, Duration::from_secs(60))?;
                recover_s.push(t.elapsed().as_secs_f64());
                let doc = served_doc(&mut c)?;
                out.check(doc == m.final_doc, || {
                    format!("the recovered checkpoint at round {durable} differs from the local session's")
                });
                d.kill();
            }
            out.line(format!(
                "recover_s = {:.4} s (median of {RECOVERIES} `dds serve --recover` launches to the first answer at durable round {durable}: {recover_s:?})",
                median(&recover_s)
            ));
        }
    }
    let op = |ph: &Phase, p: f64| match mode {
        Mode::Read => ph.reads.windowed_pct(p),
        Mode::Write => Samples::new(ph.writes.latency_us.clone()).pct(p),
    };
    out.end_to_end.insert("op_p50_us", op(&plain, 50.0));
    out.end_to_end.insert("op_p90_us", op(&plain, 90.0));
    out.line(format!(
        "op = {}: p50 = {:.3} us, p90 = {:.3} us",
        match mode {
            Mode::Read => "query from due time, median over 1 s windows",
            Mode::Write => "ingest ack",
        },
        op(&plain, 50.0),
        op(&plain, 90.0)
    ));
    out.line(format!("loadgen lateness: {}", late.describe(99.0, "ms")));
    out.line(format!(
        "correctness: {} served answers and the served{} checkpoint compared with a local session; {} mismatches",
        reads.len(),
        if mode == Mode::Write { " and recovered" } else { "" },
        out.mismatches.len()
    ));

    if let Some(t) = &traced_phase {
        let overhead = (op(t, 50.0) / op(&plain, 50.0) - 1.0) * 100.0;
        out.line(format!(
            "traced: op p50 {:.2} us vs {:.2} us untraced",
            op(t, 50.0),
            op(&plain, 50.0)
        ));
        let l = &mut out.layers;
        l.insert("trace.overhead_pct", overhead);
        l.insert(
            "query.answer_us",
            Samples::new(m.answer_us.clone()).pct(50.0),
        );
        let (answers, inconsistent) = reads
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .flat_map(|r| &r.outcomes)
            .fold((0u64, 0u64), |(a, i), o| match o {
                QueryOutcome::Answer(_) => (a + 1, i),
                QueryOutcome::Inconsistent => (a, i + 1),
                QueryOutcome::Error(_) => (a, i),
            });
        l.insert(
            "query.answered_ratio",
            answers as f64 / (answers + inconsistent).max(1) as f64,
        );
        l.insert("loadgen.late_p99_ms", late.pct(99.0));
        l.insert("client.retries", client.retries() as f64);
        l.insert("client.reconnects", client.reconnects() as f64);
        if let Some((wp, rtt)) = &wire {
            l.insert("wire.encode_us", wp.encode_us.pct(50.0));
            l.insert("wire.decode_us", wp.decode_us.pct(50.0));
            l.insert("wire.bytes_per_query", wp.bytes_per_query);
            l.insert("server.rtt_us", rtt.pct(50.0));
        }
        if mode == Mode::Read {
            l.insert(
                "daemon.cpu_ms_per_query",
                plain.cpu_ms / plain.reads.answered().max(1) as f64,
            );
        } else {
            l.insert(
                "daemon.cpu_ms_per_write",
                plain.cpu_ms / plain.writes.acked.max(1) as f64,
            );
            layer_probes_write(
                ctx,
                &inputs,
                &m,
                ckpt.as_deref().expect("serve-write persists"),
                &mut tracer,
                &mut out,
            )?;
            let rounds = m.step_us.len().max(1) as f64;
            let steps = Samples::new(m.step_us.clone());
            let l = &mut out.layers;
            l.insert("engine.step_p50_us", steps.pct(50.0));
            l.insert("engine.step_p99_us", steps.pct(99.0));
            l.insert("engine.messages_per_round", m.messages as f64 / rounds);
            l.insert("engine.bits_per_round", m.bits as f64 / rounds);
            l.insert("engine.active_per_round", m.active as f64 / rounds);
            l.insert("engine.amortized", m.amortized);
        }
        out.tracer = Some(tracer);
    }
    out.line(format!(
        "failed_ratio = {} / {} attempted",
        out.failed, out.attempted
    ));
    Ok(out)
}

/// In-process probes of the write path: the checkpoint codec and
/// recovery scan on the daemon's own directory, and `ServingSession::ingest`
/// on the same writes.
fn layer_probes_write(
    ctx: &Ctx<'_>,
    inputs: &Inputs,
    m: &Mirror,
    ckpt: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    if m.persist_ms.is_empty() {
        return Err("no write was acked, so the write path was not probed".into());
    }
    let registry = dds_bench::protocols();
    let dir = ckpt.join(SESSION);
    let (scan, scan_ms) = tracer.span_ms("checkpoint.scan", None, 0, || scan_snapshot_dir(&dir));
    let scan = scan.map_err(|e| e.to_string())?;
    let (path, _, _) = scan.latest.ok_or("no checkpoint to recover from")?;
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut from_json = Vec::new();
    for i in 0..5 {
        let (parsed, took) = tracer.span_ms("checkpoint.from_json", None, i, || {
            Snapshot::from_json(&doc)
        });
        parsed.map_err(|e| e.to_string())?;
        from_json.push(took);
    }

    let session = ServingSession::open_from_snapshot(registry, "probe", &inputs.warm)?;
    session.enable_durability(Durability {
        dir: ctx.work.join("ingest-probe"),
        every: 1,
    })?;
    let probes = m.persist_ms.len();
    let mut ingest = Vec::new();
    let mut publish_self = Vec::new();
    for i in 0..probes {
        let (acked, took) = tracer.span_ms("state.ingest", None, i as u64, || {
            session.ingest(registry, &inputs.writes[i..=i], Some(i as u64 + 1), None)
        });
        acked?;
        ingest.push(took);
        publish_self.push(took - m.step_us[i] / 1e3 - m.persist_ms[i]);
    }
    let l = &mut out.layers;
    l.insert("checkpoint.capture_ms", median(&m.capture_ms));
    l.insert("checkpoint.to_json_ms", median(&m.to_json_ms));
    l.insert("checkpoint.persist_ms", median(&m.persist_ms));
    l.insert("checkpoint.restore_ms", median(&m.restore_ms));
    l.insert("checkpoint.snapshot_mb", m.snapshot_mb);
    l.insert("checkpoint.scan_ms", scan_ms);
    l.insert("checkpoint.from_json_ms", median(&from_json));
    l.insert("state.ingest_ms", median(&ingest));
    l.insert("state.publish_self_ms", median(&publish_self));
    out.line(format!(
        "write-path probes over {probes} writes: ingest {:.3} ms = step {:.4} + persist {:.3} + publish self {:.3} (medians)",
        median(&ingest),
        median(&m.step_us) / 1e3,
        median(&m.persist_ms),
        median(&publish_self)
    ));
    Ok(())
}
