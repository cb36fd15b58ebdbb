//! The repository benchmark.
//!
//! `dds-repo-bench --workload W --seed S --seconds T --trace 0|1 --dds BIN
//! --root DIR` generates workload `W`'s inputs from seed `S`, measures for
//! about `T` seconds, checks the program's outputs, prints every metric
//! with its unit and sample count, and ends with one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. `run.sh` builds both binaries and calls
//! this. It exits non-zero when an output is wrong.

mod daemon;
mod gen;
mod openloop;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;

use std::path::{Path, PathBuf};

const USAGE: &str =
    "usage: dds-repo-bench --workload sim-triangle|sim-cycles|serve-read|serve-write \
--seed N --seconds N --trace 0|1 --dds PATH --root DIR";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    dds: PathBuf,
    root: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let num = |key: &str, v: String| v.parse::<u64>().map_err(|e| format!("{key} {v:?}: {e}"));
    let seconds = num("--seconds", get("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed", get("--seed")?)?,
        seconds,
        trace,
        dds: PathBuf::from(get("--dds")?),
        root: PathBuf::from(get("--root")?),
    })
}

fn run(args: &Args, work: &Path) -> Result<report::Outcome, String> {
    let ctx = serve::Ctx {
        dds: &args.dds,
        work,
    };
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "sim-triangle" => sim::run(&sim::TRIANGLE, seed, secs, trace),
        "sim-cycles" => sim::run(&sim::CYCLES, seed, secs, trace),
        "serve-read" => serve::run(&ctx, serve::Mode::Read, seed, secs, trace),
        "serve-write" => serve::run(&ctx, serve::Mode::Write, seed, secs, trace),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

/// Write the traced run's spans and print each layer's total and self time.
fn write_spans(tracer: &spans::Tracer, path: &Path) -> Result<(), String> {
    std::fs::write(path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    for (name, t) in spans::layer_times(tracer.spans()) {
        println!(
            "  {name}: {} spans, total {:.3} ms, self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let results = args.root.join(".bench_work").join("results");
    let work = args
        .root
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    let prepared = std::fs::create_dir_all(&results).and_then(|()| std::fs::create_dir_all(&work));
    if let Err(e) = prepared {
        eprintln!("error: {}: {e}", work.display());
        std::process::exit(1);
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} seed {}: {e}", args.workload, args.seed);
            std::process::exit(1);
        }
    };

    let machine = report::machine_json(&args.root);
    println!("machine: {machine}");
    for line in &outcome.lines {
        println!("{line}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(tracer) = &outcome.tracer {
        if let Err(e) = write_spans(tracer, &results.join(format!("{stem}.spans.json"))) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    for m in &outcome.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    let result = match outcome.result_json(args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"machine\": {machine}, \"result\": {result}}}\n",
        args.workload, args.seed, args.seconds
    );
    let _ = std::fs::write(results.join(format!("{stem}.json")), record);
    println!("{result}");
    if !outcome.mismatches.is_empty() {
        std::process::exit(1);
    }
}
