//! `sim-triangle` and `sim-cycles`: a protocol stepped in-process through
//! `Session::step` over a pre-generated `er` trace. No serving code runs:
//! the round engine and the protocol's nodes do all of the work.
//!
//! The `er` graph grows from empty, and a step's cost grows with it. Set-up
//! steps the first `warm_rounds` once and checkpoints the network; each
//! timed pass restores that checkpoint and steps the next `rounds`, over
//! which the graph grows by only a few percent. Step latencies are then
//! drawn from one steady distribution instead of a ramp, whose middle is
//! where a percentile is least stable.

use crate::gen::{self, ErGen, Mix, Rng};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, Samples};
use dds_net::{Answer, EventBatch, NodeId, Query, Response, Session, SimConfig, Snapshot};
use dds_oracle::{canonical_cycle, Cycle, DynamicGraph};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct SimSpec {
    pub protocol: &'static str,
    pub n: usize,
    /// Attempted topology changes per round.
    pub changes: usize,
    /// Rounds stepped once in set-up, from an empty network.
    pub warm_rounds: usize,
    /// Rounds in a timed pass; the timed loop replays them from the warm
    /// checkpoint as many times as the run length allows.
    pub rounds: usize,
    pub mix: Mix,
}

pub const TRIANGLE: SimSpec = SimSpec {
    protocol: "triangle",
    n: 100_000,
    changes: 1000,
    warm_rounds: 300,
    rounds: 40,
    mix: Mix::Triangle,
};

pub const CYCLES: SimSpec = SimSpec {
    protocol: "three-hop",
    n: 100_000,
    changes: 256,
    warm_rounds: 400,
    rounds: 100,
    mix: Mix::Cycles,
};

/// Times the inputs and the warm checkpoint are made in one run;
/// `setup_s` is the median.
const SETUPS: usize = 3;
/// Queries checked against the oracle, and timed at the end of each traced
/// pass.
const QUERIES: usize = 400;
/// Quiet rounds allowed for the network to settle before the check.
const SETTLE_BUDGET: usize = 10_000;

struct Inputs {
    /// The warm-up rounds, then the rounds of a timed pass.
    batches: Vec<EventBatch>,
    /// The network after the warm-up rounds.
    warm: Snapshot,
    /// Asked of the network at the end of the trace.
    queries: Vec<(NodeId, Query)>,
}

impl Inputs {
    fn timed(&self, spec: &SimSpec) -> &[EventBatch] {
        &self.batches[spec.warm_rounds..]
    }

    /// What must be identical for the same seed: the inputs' bytes and
    /// the warm checkpoint's checksum.
    fn fingerprint(&self) -> (Vec<u8>, Vec<u8>, u64) {
        (
            gen::batch_bytes(&self.batches),
            gen::query_bytes(&self.queries),
            self.warm.header.checksum,
        )
    }
}

fn generate(spec: &SimSpec, seed: u64) -> Result<Inputs, String> {
    let mut er = ErGen::new(spec.n, 2 * spec.n, Rng::stream(seed, 1));
    let batches = gen::er_rounds(&mut er, spec.warm_rounds + spec.rounds, spec.changes);
    let queries = gen::queries(
        &mut Rng::stream(seed, 2),
        &er.adjacency(),
        spec.mix,
        QUERIES,
    );
    let mut s = dds_bench::protocols().open(spec.protocol, spec.n, SimConfig::default())?;
    for b in &batches[..spec.warm_rounds] {
        s.step(b);
    }
    let warm = s.checkpoint();
    Ok(Inputs {
        batches,
        warm,
        queries,
    })
}

/// What the replays of the trace measured. Every pass does the same work,
/// so the rate is a median over passes and the percentiles are over every
/// step of the run: a pass slowed by other load on the machine barely
/// moves them.
#[derive(Default)]
struct Passes {
    rounds: u64,
    /// Per pass: seconds of stepping, and each step's latency.
    secs: Vec<f64>,
    step_us: Vec<Vec<f64>>,
    messages: u64,
    bits: u64,
    active: u64,
    violations: u64,
    amortized: f64,
}

impl Passes {
    fn rounds_per_s(&self) -> f64 {
        let per_pass = self.rounds as f64 / self.secs.len() as f64;
        per_pass / median(&self.secs)
    }

    fn all_steps(&self) -> Samples {
        Samples::new(self.step_us.concat())
    }
}

/// Replay the timed rounds from the warm checkpoint, timing every step.
fn replay(
    inputs: &Inputs,
    batches: &[EventBatch],
    acc: &mut Passes,
    mut tracer: Option<&mut Tracer>,
    pass: u64,
) -> Result<Session, String> {
    let mut s = dds_bench::protocols()
        .restore(&inputs.warm)
        .map_err(|e| e.to_string())?;
    let parent = tracer
        .as_deref_mut()
        .map(|t| t.begin("sim.pass", None, pass));
    let mut step_us = Vec::with_capacity(batches.len());
    let start = Instant::now();
    for (r, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        match tracer.as_deref_mut() {
            Some(tr) => tr.span("engine.step", parent, r as u64, || s.step(batch)),
            None => s.step(batch),
        }
        step_us.push(t.elapsed().as_secs_f64() * 1e6);
        acc.active += s.active_nodes() as u64;
    }
    acc.secs.push(start.elapsed().as_secs_f64());
    acc.step_us.push(step_us);
    if let (Some(tr), Some(p)) = (tracer, parent) {
        tr.end(p);
    }
    acc.rounds += batches.len() as u64;
    acc.messages += s.bandwidth().total_messages();
    acc.bits += s.bandwidth().total_bits();
    acc.violations += s.bandwidth().violations();
    acc.amortized = s.meter().amortized();
    Ok(s)
}

/// Replay passes until `budget` has gone by (always at least one).
fn replay_for(
    spec: &SimSpec,
    inputs: &Inputs,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    probes: &mut Probes,
    last: &mut Option<Session>,
) -> Result<Passes, String> {
    let mut acc = Passes::default();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < budget {
        *last = None;
        let s = replay(
            inputs,
            inputs.timed(spec),
            &mut acc,
            tracer.as_deref_mut(),
            pass,
        )?;
        if let Some(tr) = tracer.as_deref_mut() {
            probes.ask(tr, &s, &inputs.queries);
        }
        *last = Some(s);
        pass += 1;
    }
    Ok(acc)
}

/// `Session::query` timed on the network as the trace leaves it, before
/// it settles: some nodes are still inconsistent.
#[derive(Default)]
struct Probes {
    answer_us: Vec<f64>,
    answered: u64,
    inconsistent: u64,
    errors: u64,
}

impl Probes {
    fn ask(&mut self, tr: &mut Tracer, s: &Session, queries: &[(NodeId, Query)]) {
        for (i, (at, q)) in queries.iter().enumerate() {
            let t = Instant::now();
            let r = tr.span("query.answer", None, i as u64, || s.query(*at, q));
            self.answer_us.push(t.elapsed().as_secs_f64() * 1e6);
            match r {
                Ok(Response::Answer(_)) => self.answered += 1,
                Ok(Response::Inconsistent) => self.inconsistent += 1,
                Err(_) => self.errors += 1,
            }
        }
    }
}

pub fn run(spec: &SimSpec, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let mut first = None;
    for _ in 0..SETUPS {
        // One set of inputs at a time: the warm checkpoint is large.
        drop(inputs.take());
        let t = Instant::now();
        let fresh = generate(spec, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let print = fresh.fingerprint();
        match &first {
            Some(f) => out.check(*f == print, || {
                "the same seed generated different inputs".into()
            }),
            None => first = Some(print),
        }
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("inputs were generated");

    let budget = Duration::from_secs(seconds);
    let mut last = None;
    let mut probes = Probes::default();
    let mut tracer = Tracer::new();
    let (plain, traced_passes) = if traced {
        let plain = replay_for(spec, &inputs, budget / 2, None, &mut probes, &mut last)?;
        let t = replay_for(
            spec,
            &inputs,
            budget / 2,
            Some(&mut tracer),
            &mut probes,
            &mut last,
        )?;
        (plain, Some(t))
    } else {
        (
            replay_for(spec, &inputs, budget, None, &mut probes, &mut last)?,
            None,
        )
    };
    let peak_rss_mb = dds_net::peak_rss_mb();
    let mut session = last.expect("at least one pass ran");

    let steps = plain.all_steps();
    out.attempted = plain.rounds + traced_passes.as_ref().map_or(0, |t| t.rounds);
    out.end_to_end.insert("setup_s", median(&setup_s));
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb);
    out.end_to_end.insert("ops_per_s", plain.rounds_per_s());
    out.end_to_end.insert("op_p50_us", steps.pct(50.0));
    out.end_to_end.insert("op_p90_us", steps.pct(90.0));
    out.line(format!(
        "workload: {} at n = {}, er churn of {} attempted changes per round, {} warm-up rounds, then {} rounds per pass, default SimConfig",
        spec.protocol, spec.n, spec.changes, spec.warm_rounds, spec.rounds
    ));
    out.line(format!(
        "setup_s = {:.4} s (median of {SETUPS} set-ups: inputs, warm-up rounds, checkpoint)",
        median(&setup_s)
    ));
    out.line(format!(
        "peak_rss_mb = {peak_rss_mb:.2} MB (VmHWM of this process, which holds the state and the warm checkpoint)"
    ));
    out.line(format!(
        "sim.rounds_per_s = ops_per_s = {:.2} 1/s (median over {} passes of {} rounds; seconds per pass {:.3?})",
        plain.rounds_per_s(),
        plain.secs.len(),
        spec.rounds,
        plain.secs
    ));
    out.line(format!(
        "op = Session::step, all passes pooled: {}, {}, {}",
        steps.describe(50.0, "us"),
        steps.describe(90.0, "us"),
        steps.describe(99.0, "us")
    ));

    if let Some(t) = traced_passes {
        let tsteps = t.all_steps();
        let rounds = t.rounds as f64;
        let l = &mut out.layers;
        l.insert("engine.step_p50_us", tsteps.pct(50.0));
        l.insert("engine.step_p99_us", tsteps.pct(99.0));
        l.insert("engine.messages_per_round", t.messages as f64 / rounds);
        l.insert("engine.bits_per_round", t.bits as f64 / rounds);
        l.insert("engine.active_per_round", t.active as f64 / rounds);
        l.insert("engine.amortized", t.amortized);
        l.insert(
            "query.answer_us",
            Samples::new(probes.answer_us.clone()).pct(50.0),
        );
        let asked = (probes.answered + probes.inconsistent) as f64;
        l.insert(
            "query.answered_ratio",
            probes.answered as f64 / asked.max(1.0),
        );
        l.insert(
            "trace.overhead_pct",
            (tsteps.pct(50.0) / steps.pct(50.0) - 1.0) * 100.0,
        );
        out.attempted += probes.answer_us.len() as u64;
        out.failed += probes.errors;
        out.line(format!(
            "traced: {:.2} rounds/s vs {:.2} untraced; engine.step {}, {}",
            t.rounds_per_s(),
            plain.rounds_per_s(),
            tsteps.describe(50.0, "us"),
            tsteps.describe(99.0, "us")
        ));
        out.line(format!(
            "query probes at the end of each traced pass: {} answered, {} inconsistent, {} errors",
            probes.answered, probes.inconsistent, probes.errors
        ));
        out.tracer = Some(tracer);
        out.check(t.violations == 0, || {
            format!("{} bandwidth violations", t.violations)
        });
    }
    out.check(plain.violations == 0, || {
        format!("{} bandwidth violations", plain.violations)
    });

    check(spec, &mut session, &inputs, &mut out);
    out.line(format!(
        "failed_ratio = {} / {} attempted",
        out.failed, out.attempted
    ));
    Ok(out)
}

/// Settle the network, then compare every generated query's answer with
/// the centralized oracle.
fn check(spec: &SimSpec, s: &mut Session, inputs: &Inputs, out: &mut Outcome) {
    let Some(quiet) = s.settle(SETTLE_BUDGET) else {
        out.check(false, || {
            format!("the network did not settle within {SETTLE_BUDGET} rounds")
        });
        return;
    };
    let mut g = DynamicGraph::new(spec.n);
    for b in &inputs.batches {
        g.apply(b);
    }
    for _ in 0..quiet {
        g.advance_quiet();
    }
    let oracle = Oracle::new(g, spec.mix);
    let mut checked = 0;
    for (v, q) in &inputs.queries {
        out.attempted += 1;
        match answer(s, *v, q) {
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("query {q:?} at v{}: {e}", v.0));
            }
            Ok(a) => {
                checked += 1;
                if let Err(e) = compare(s, &oracle, *v, q, &a) {
                    out.check(false, || format!("query {q:?} at v{}: {e}", v.0));
                }
            }
        }
    }
    out.line(format!(
        "correctness: settled after {quiet} quiet rounds; {checked} answers checked against dds_oracle::DynamicGraph, {} mismatches",
        out.mismatches.len()
    ));
}

fn answer(s: &Session, v: NodeId, q: &Query) -> Result<Answer, String> {
    match s.query(v, q)? {
        Response::Answer(a) => Ok(a),
        Response::Inconsistent => Err("inconsistent after settling".into()),
    }
}

/// The centralized ground truth, with every 4- and 5-cycle enumerated
/// once (the oracle lists the cycles through a node by enumerating all).
struct Oracle {
    g: DynamicGraph,
    mix: Mix,
    cycles: BTreeMap<(usize, NodeId), Vec<Cycle>>,
}

impl Oracle {
    fn new(g: DynamicGraph, mix: Mix) -> Oracle {
        let mut cycles: BTreeMap<(usize, NodeId), Vec<Cycle>> = BTreeMap::new();
        if mix == Mix::Cycles {
            for k in [4, 5] {
                for c in g.all_cycles(k) {
                    for &v in &c {
                        cycles.entry((k, v)).or_default().push(c.clone());
                    }
                }
            }
        }
        Oracle { g, mix, cycles }
    }
}

fn compare(s: &Session, oracle: &Oracle, v: NodeId, q: &Query, a: &Answer) -> Result<(), String> {
    let g = &oracle.g;
    let expect = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("{what}; got {a:?}"))
        }
    };
    match (oracle.mix, q) {
        (Mix::Triangle, Query::Edge(e)) => {
            let want = g.triangle_patterns(v).contains(e);
            expect(a.as_bool() == Some(want), &format!("oracle says {want}"))
        }
        (Mix::Triangle, Query::Triangle(u, w)) => {
            let want = g.adjacent(v, *u) && g.adjacent(v, *w) && g.adjacent(*u, *w);
            expect(a.as_bool() == Some(want), &format!("oracle says {want}"))
        }
        (Mix::Triangle, Query::ListTriangles) => {
            let mut want = g.triangles_containing(v);
            want.sort_unstable();
            let mut have = a.as_triangles().map(<[_]>::to_vec);
            if let Some(h) = &mut have {
                h.sort_unstable();
            }
            expect(
                have.as_ref() == Some(&want),
                &format!("oracle lists {want:?}"),
            )
        }
        // The 3-hop set is a sandwich, not an exact set: after settling
        // it holds every robust 3-hop edge and only edges within 3 hops.
        (Mix::Cycles, Query::Edge(e)) => {
            let have = a.as_bool().ok_or("not a yes/no answer")?;
            if have && !g.r_hop_edges(v, 3).contains(e) {
                return Err("claims an edge farther than 3 hops".into());
            }
            if !have && g.robust_three_hop(v).contains(e) {
                return Err("misses a robust 3-hop edge".into());
            }
            Ok(())
        }
        // Listing: nothing listed is a phantom, and every true cycle
        // through v is confirmed by at least one of its nodes.
        (Mix::Cycles, Query::ListCycles(k)) => {
            let listed = a.as_vertex_sets().ok_or("not a vertex-set list")?;
            for c in listed {
                if c.len() != *k || !c.contains(&v) || !g.is_cycle(c) {
                    return Err(format!("lists {c:?}, which is not a {k}-cycle through v"));
                }
            }
            for c in oracle.cycles.get(&(*k, v)).into_iter().flatten() {
                let c = canonical_cycle(c);
                let votes: Result<Vec<Response<bool>>, String> = c
                    .iter()
                    .map(|&m| {
                        let a = answer(s, m, &Query::Cycle(c.clone()))?;
                        a.as_bool()
                            .map(Response::Answer)
                            .ok_or_else(|| "not yes/no".to_string())
                    })
                    .collect();
                if dds_robust::listing_verdict(&votes?) != Some(true) {
                    return Err(format!("no node of the {k}-cycle {c:?} lists it"));
                }
            }
            Ok(())
        }
        _ => Err("query outside the workload's mix".into()),
    }
}
