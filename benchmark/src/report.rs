//! What a run prints: the metric tables, the machine it ran on, and the
//! one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics, `(name, unit)`, reported with tracing off. Every
/// workload reports all of them; `ops` are the units of the workload's
/// driving loop (simulated rounds, answered queries or acked writes).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
];

/// Per-layer metrics, `(name, unit)`, reported by the traced run. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.step_p50_us", "us"),
    ("engine.step_p99_us", "us"),
    ("engine.messages_per_round", "msg/round"),
    ("engine.bits_per_round", "bit/round"),
    ("engine.active_per_round", "node/round"),
    ("engine.amortized", "ratio"),
    ("query.answer_us", "us"),
    ("query.answered_ratio", "ratio"),
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.to_json_ms", "ms"),
    ("checkpoint.persist_ms", "ms"),
    ("checkpoint.snapshot_mb", "MB"),
    ("checkpoint.from_json_ms", "ms"),
    ("checkpoint.scan_ms", "ms"),
    ("state.ingest_ms", "ms"),
    ("state.publish_self_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_query", "B"),
    ("server.rtt_us", "us"),
    ("daemon.cpu_ms_per_query", "ms"),
    ("daemon.cpu_ms_per_write", "ms"),
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; the run is correct when this is empty.
    pub mismatches: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// The human-readable report: every metric the workload defines, with
    /// its unit and sample count.
    pub lines: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<crate::spans::Tracer>,
}

impl Outcome {
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// The one-line JSON result: the end-to-end metrics, or with `traced`
    /// the per-layer ones. Fails when an end-to-end metric is
    /// missing, zero or not finite.
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        let mut metrics = String::new();
        let table = if traced { PER_LAYER } else { END_TO_END };
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = if traced {
                self.layers.get(name).copied().unwrap_or(0.0)
            } else {
                let v = *self
                    .end_to_end
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if v <= 0.0 {
                    return Err(format!("metric {name} measured {v}"));
                }
                v
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// The machine a result was measured on, as a JSON object: CPUs, CPU
/// model, build profile and source revision. Numbers from machines with a
/// different CPU count are not comparable.
pub fn machine_json(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto=thin, codegen-units=1)"
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"profile\": \"{profile}\", \"revision\": \"{}\"}}",
        cpu.replace('"', "'"),
        revision(root)
    )
}

/// `git:<commit>` when the checkout is a git work tree, else a digest of
/// the sources the run was built from (a benchmark checkout need not be a
/// repository).
fn revision(root: &Path) -> String {
    let git = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines = text.lines();
        if let (true, Some(top), Some(head)) = (out.status.success(), lines.next(), lines.next()) {
            if Path::new(top).canonicalize().ok() == root.canonicalize().ok() {
                return format!("git:{head}");
            }
        }
    }
    format!("source-fnv:{:016x}", source_digest(root))
}

fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() && name != "target" && !name.to_string_lossy().starts_with('.') {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "vendor", "src", "benchmark"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    dds_net::checkpoint::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(serde::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(serde::Value::as_str)
                            .expect(k)
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn the_result_line_has_every_metric_and_rejects_zero() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.end_to_end.insert(name, 1.5);
        }
        let line = o.result_json(false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"op_p90_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        let layers = o.result_json(true).expect("layers default to 0");
        assert!(layers.contains("\"trace.overhead_pct\": {\"value\": 0, \"unit\": \"%\"}"));
        o.end_to_end.insert("ops_per_s", 0.0);
        assert!(o.result_json(false).is_err());
        o.check(false, || "mismatch".into());
        o.end_to_end.insert("ops_per_s", 2.0);
        assert!(o.result_json(false).unwrap().contains("\"correct\": false"));
    }
}
