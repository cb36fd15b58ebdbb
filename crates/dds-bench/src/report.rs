//! The `BENCH_*.json` report schema, shared by the `experiments` binary
//! (which writes it) and `dds bench diff` (which reads two of them).
//!
//! Since PR 7 each table carries its repeated wall-clock samples plus
//! their median and MAD (median absolute deviation) — the robust
//! location/spread pair the diff thresholds are built on. Reports written
//! before that (single-sample files like `BENCH_baseline.json` …
//! `BENCH_pr6.json`) lack those fields; [`TimedTable`] deserialization
//! fills them from the single `seconds` value (`median = seconds`,
//! `mad = 0`), so old and new files diff through one code path.

use crate::table::Table;

/// One experiment's table plus the wall-clock cost of producing it.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TimedTable {
    /// Table id (`e1`, `s3`, …).
    pub id: String,
    /// Total wall-clock seconds across all samples (the table's share of
    /// the report's production cost; equals the one sample when
    /// `samples.len() == 1`).
    pub seconds: f64,
    /// Per-repeat production seconds (length = the `--repeat` count).
    /// Kept raw and complete — outlier rejection affects the derived
    /// statistics, never the record.
    pub samples: Vec<f64>,
    /// Median of `samples` after outlier rejection.
    pub median: f64,
    /// Median absolute deviation of the surviving samples (0 for a
    /// single sample).
    pub mad: f64,
    /// Samples dropped as outliers (beyond 3×MAD from the raw median) —
    /// a GC pause or scheduler hiccup in one repeat must not masquerade
    /// as a perf regression, but its rejection should be visible.
    pub rejected: usize,
    /// Whether the *first* sample was excluded from the statistics as a
    /// warm-up artifact (cold caches, first-touch page faults, lazy
    /// initialization): flagged when it exceeds the median of the
    /// remaining samples by more than 3×their MAD *and* by more than 25%
    /// relative — the second guard keeps a tight zero-MAD run from
    /// flagging a first sample that is merely not identical. The raw
    /// sample stays in `samples` and in `seconds`.
    pub warmup_rejected: bool,
    /// The table itself.
    pub table: Table,
}

impl TimedTable {
    /// Build from per-repeat samples, deriving `seconds`/`median`/`mad`
    /// with warm-up detection (see [`TimedTable::warmup_rejected`]) and
    /// outlier rejection ([`reject_outliers`]). `seconds` stays the sum
    /// over *all* samples — it reports true production cost, and an
    /// outlier's wall-clock was genuinely spent.
    pub fn from_samples(id: impl Into<String>, samples: Vec<f64>, table: Table) -> Self {
        // Warm-up needs at least two post-first samples to establish a
        // baseline; below that the first sample is just a sample.
        let warmup_rejected = samples.len() >= 3 && {
            let rest = &samples[1..];
            let m = median(rest);
            samples[0] > m + 3.0 * mad(rest) && samples[0] - m > 0.25 * m
        };
        let judged = if warmup_rejected {
            &samples[1..]
        } else {
            &samples[..]
        };
        let kept = reject_outliers(judged);
        TimedTable {
            id: id.into(),
            seconds: samples.iter().sum(),
            median: median(&kept),
            mad: mad(&kept),
            rejected: judged.len() - kept.len(),
            warmup_rejected,
            samples,
            table,
        }
    }
}

impl serde::Deserialize for TimedTable {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("TimedTable: missing `{k}`"));
        let seconds = f64::from_value(field("seconds")?)?;
        // Pre-PR-7 reports have no samples/median/mad: treat the single
        // recorded `seconds` as the one sample.
        let samples = match v.get("samples") {
            Some(s) => Vec::<f64>::from_value(s)?,
            None => vec![seconds],
        };
        Ok(TimedTable {
            id: String::from_value(field("id")?)?,
            seconds,
            median: match v.get("median") {
                Some(m) => f64::from_value(m)?,
                None => median(&samples),
            },
            mad: match v.get("mad") {
                Some(m) => f64::from_value(m)?,
                None => mad(&samples),
            },
            // Reports written before outlier rejection existed applied
            // none, so 0 is the accurate value, not just a default.
            rejected: match v.get("rejected") {
                Some(r) => usize::from_value(r)?,
                None => 0,
            },
            // Same back-compat story for warm-up detection (new in the
            // serving PR): older reports never rejected a warm-up sample.
            warmup_rejected: match v.get("warmup_rejected") {
                Some(w) => bool::from_value(w)?,
                None => false,
            },
            samples,
            table: Table::from_value(field("table")?)?,
        })
    }
}

/// Full JSON report written by `experiments --json`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Report {
    /// Workspace version that produced the report.
    pub version: String,
    /// The `--rounds` setting of the run.
    pub rounds: usize,
    /// Whole-suite wall-clock seconds.
    pub total_seconds: f64,
    /// One entry per produced table, in plan order.
    pub tables: Vec<TimedTable>,
}

impl serde::Deserialize for Report {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("Report: missing `{k}`"));
        Ok(Report {
            version: String::from_value(field("version")?)?,
            rounds: usize::from_value(field("rounds")?)?,
            total_seconds: f64::from_value(field("total_seconds")?)?,
            tables: Vec::<TimedTable>::from_value(field("tables")?)?,
        })
    }
}

/// Why a `BENCH_*.json` report could not be loaded — distinguishing "the
/// file is not there / not readable" from "the file is there but is not a
/// report", so callers (`dds bench diff`, CI gates) can print a clean
/// one-line diagnostic instead of a generic failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReportError {
    /// The file could not be read at all.
    Io {
        /// The path that failed to read.
        path: String,
        /// The OS error text.
        error: String,
    },
    /// The file was read but is not a valid report document (truncated
    /// download, hand-edited JSON, or a non-report file passed by
    /// mistake).
    Malformed {
        /// The path that failed to parse.
        path: String,
        /// What the parser or schema check objected to.
        error: String,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Io { path, error } => write!(f, "cannot read {path}: {error}"),
            ReportError::Malformed { path, error } => {
                write!(f, "{path}: malformed bench report: {error}")
            }
        }
    }
}

impl std::error::Error for ReportError {}

impl Report {
    /// Load a report from a `BENCH_*.json` file (old or new schema).
    pub fn load(path: &str) -> Result<Report, ReportError> {
        let raw = std::fs::read_to_string(path).map_err(|e| ReportError::Io {
            path: path.to_string(),
            error: e.to_string(),
        })?;
        serde_json::from_str(&raw).map_err(|e| ReportError::Malformed {
            path: path.to_string(),
            error: e.to_string(),
        })
    }

    /// The table with the given id, if present.
    pub fn table(&self, id: &str) -> Option<&TimedTable> {
        self.tables.iter().find(|t| t.id == id)
    }
}

/// Median of a sample set (averaging the middle pair for even lengths);
/// 0.0 on empty input.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of a sample set; 0.0 on
/// empty input.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// Median absolute deviation from the median; 0.0 for fewer than two
/// samples (a single measurement carries no spread information).
pub fn mad(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let med = median(samples);
    median(&samples.iter().map(|s| (s - med).abs()).collect::<Vec<_>>())
}

/// The samples within 3×MAD of the median — the classic robust outlier
/// fence. When the MAD is 0 (fewer than two samples, or a majority of
/// identical values) there is no spread to judge against and everything
/// is kept: a degenerate fence must not reject half the data.
pub fn reject_outliers(samples: &[f64]) -> Vec<f64> {
    let spread = mad(samples);
    if spread == 0.0 {
        return samples.to_vec();
    }
    let med = median(samples);
    samples
        .iter()
        .copied()
        .filter(|s| (s - med).abs() <= 3.0 * spread)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t
    }

    #[test]
    fn roundtrips_through_json() {
        let report = Report {
            version: "0.1.0".into(),
            rounds: 300,
            total_seconds: 1.5,
            tables: vec![TimedTable::from_samples("e1", vec![0.5, 0.4, 0.6], table())],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tables.len(), 1);
        let t = back.table("e1").unwrap();
        assert_eq!(t.samples, vec![0.5, 0.4, 0.6]);
        assert_eq!(t.median, 0.5);
        assert!((t.mad - 0.1).abs() < 1e-12);
        assert!((t.seconds - 1.5).abs() < 1e-12);
        assert_eq!(t.table.rows, vec![vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    fn old_single_sample_reports_deserialize_with_derived_stats() {
        // The exact shape BENCH_baseline.json .. BENCH_pr6.json use: no
        // samples/median/mad fields.
        let old = r#"{
            "version": "0.1.0", "rounds": 300, "total_seconds": 2.0,
            "tables": [{"id": "e1", "seconds": 0.25,
                        "table": {"title": "T", "headers": ["a"],
                                  "rows": [["1"]], "notes": []}}]
        }"#;
        let report: Report = serde_json::from_str(old).unwrap();
        let t = report.table("e1").unwrap();
        assert_eq!(t.samples, vec![0.25]);
        assert_eq!(t.median, 0.25);
        assert_eq!(t.mad, 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_mad_match_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[5.0]), 0.0);
        assert_eq!(mad(&[1.0, 1.0, 5.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 4.0]), 1.0);
    }

    #[test]
    fn a_single_spike_is_rejected_from_the_reported_stats() {
        // Five tight samples around 0.5 plus a 5-second spike (a paging
        // stall, say): raw median ≈ 0.505, raw MAD = 0.015, so the fence
        // is ±0.045 and only the spike falls outside it.
        let samples = vec![0.50, 0.52, 0.48, 0.51, 0.49, 5.0];
        let t = TimedTable::from_samples("s2", samples.clone(), table());
        assert_eq!(t.rejected, 1);
        assert_eq!(t.samples, samples, "raw samples must stay complete");
        assert_eq!(t.median, 0.5, "median computed without the spike");
        assert!(t.mad <= 0.015, "spread computed without the spike");
        assert!(
            (t.seconds - samples.iter().sum::<f64>()).abs() < 1e-12,
            "seconds keeps the true total cost, spike included"
        );
    }

    #[test]
    fn tight_samples_are_all_kept() {
        let t = TimedTable::from_samples("e1", vec![0.5, 0.4, 0.6], table());
        assert_eq!(t.rejected, 0);
        assert_eq!(t.median, 0.5);
        assert!((t.mad - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_spread_keeps_everything() {
        // Majority-identical samples give MAD 0: the fence degenerates
        // and must reject nothing rather than everything off-median.
        assert_eq!(reject_outliers(&[1.0, 1.0, 1.0, 9.0]), [1.0, 1.0, 1.0, 9.0]);
        assert_eq!(reject_outliers(&[0.7]), [0.7]);
        assert!(reject_outliers(&[]).is_empty());
    }

    #[test]
    fn a_cold_first_sample_is_flagged_as_warmup() {
        // Classic cold-start shape: the first repeat pays page faults and
        // lazy init, the rest are tight. rest = [0.50, 0.51, 0.49],
        // median 0.50, MAD 0.01 → fence 0.53; 2.0 clears it and the 25%
        // relative guard.
        let samples = vec![2.0, 0.50, 0.51, 0.49];
        let t = TimedTable::from_samples("s5", samples.clone(), table());
        assert!(t.warmup_rejected);
        assert_eq!(t.samples, samples, "raw samples must stay complete");
        assert_eq!(t.median, 0.50, "stats computed without the warm-up");
        assert_eq!(t.rejected, 0, "warm-up is not counted as a MAD outlier");
        assert!(
            (t.seconds - samples.iter().sum::<f64>()).abs() < 1e-12,
            "seconds keeps the true total cost, warm-up included"
        );
        // Zero spread in the rest must not defeat detection: the fence
        // degenerates to the median and the relative guard decides.
        let t = TimedTable::from_samples("s5", vec![2.0, 0.5, 0.5, 0.5], table());
        assert!(t.warmup_rejected);
        assert_eq!(t.median, 0.5);
    }

    #[test]
    fn ordinary_first_samples_are_not_flagged() {
        // A first sample inside the fence.
        assert!(!TimedTable::from_samples("e1", vec![0.5, 0.4, 0.6], table()).warmup_rejected);
        // Above the fence but within 25% relative: a tight zero-MAD run
        // where the first repeat is merely not bit-identical.
        let t = TimedTable::from_samples("e1", vec![0.55, 0.5, 0.5, 0.5], table());
        assert!(!t.warmup_rejected);
        // A *late* spike is an outlier, not a warm-up.
        let t = TimedTable::from_samples("e1", vec![0.50, 0.52, 0.48, 0.51, 0.49, 5.0], table());
        assert!(!t.warmup_rejected);
        assert_eq!(t.rejected, 1);
        // Too few samples to establish a baseline.
        assert!(!TimedTable::from_samples("e1", vec![9.0, 0.5], table()).warmup_rejected);
    }

    #[test]
    fn warmup_flag_roundtrips_and_defaults_to_false_for_old_reports() {
        let report = Report {
            version: "0.1.0".into(),
            rounds: 300,
            total_seconds: 3.5,
            tables: vec![TimedTable::from_samples(
                "s5",
                vec![2.0, 0.50, 0.51, 0.49],
                table(),
            )],
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("warmup_rejected"));
        let back: Report = serde_json::from_str(&json).unwrap();
        assert!(back.table("s5").unwrap().warmup_rejected);
        let old = r#"{
            "version": "0.1.0", "rounds": 300, "total_seconds": 2.0,
            "tables": [{"id": "e1", "seconds": 0.25,
                        "table": {"title": "T", "headers": ["a"],
                                  "rows": [["1"]], "notes": []}}]
        }"#;
        let report: Report = serde_json::from_str(old).unwrap();
        assert!(!report.table("e1").unwrap().warmup_rejected);
    }

    #[test]
    fn load_errors_are_typed_and_name_the_path() {
        let missing = Report::load("/nonexistent/BENCH_x.json").unwrap_err();
        assert!(matches!(missing, ReportError::Io { .. }), "{missing:?}");
        assert!(missing.to_string().contains("/nonexistent/BENCH_x.json"));

        let dir = std::env::temp_dir().join("dds_report_error_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        std::fs::write(&path, r#"{"version": "0.1.0", "rounds": 300, "tab"#).unwrap();
        let err = Report::load(path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, ReportError::Malformed { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("malformed bench report"), "{msg}");
        assert!(msg.contains("truncated.json"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejected_count_roundtrips_and_defaults_to_zero_for_old_reports() {
        let report = Report {
            version: "0.1.0".into(),
            rounds: 300,
            total_seconds: 8.0,
            tables: vec![TimedTable::from_samples(
                "s2",
                vec![0.50, 0.52, 0.48, 0.51, 0.49, 5.0],
                table(),
            )],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.table("s2").unwrap().rejected, 1);
        // Pre-rejection schema: no `rejected` field anywhere.
        let old = r#"{
            "version": "0.1.0", "rounds": 300, "total_seconds": 2.0,
            "tables": [{"id": "e1", "seconds": 0.25,
                        "table": {"title": "T", "headers": ["a"],
                                  "rows": [["1"]], "notes": []}}]
        }"#;
        let report: Report = serde_json::from_str(old).unwrap();
        assert_eq!(report.table("e1").unwrap().rejected, 0);
    }
}
