//! What one run measured: named metrics, exact counts and the correctness
//! gate's tally — printed, written as a result file, and read back by
//! `selfcheck`.

use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use scalable_commutativity::obs::Json;
use std::path::{Path, PathBuf};

/// Where runs leave result files and traces (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn spec_of(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|spec| spec.name == name)
}

#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub seconds: u64,
    /// Checks the correctness gate made, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every metric this run computed, in the order computed.
    pub metrics: Vec<(String, f64)>,
    /// Counts that must repeat exactly between two runs of one commit.
    pub counts: Vec<(String, u64)>,
}

impl RunResult {
    pub fn new(workload: &str, traced: bool, seed: u64, seconds: u64) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            traced,
            seed,
            seconds,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Records a metric; the name must be one the tables declare.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            spec_of(name).is_some(),
            "metric {name} is not in the tables"
        );
        assert!(self.metric(name).is_none(), "metric {name} set twice");
        self.metrics.push((name.to_string(), value));
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// One check of the correctness gate.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks(1, u64::from(!ok), what);
    }

    /// `attempted` checks of one kind, `failed` of them failing.
    pub fn checks(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("GATE FAILED ({failed} of {attempted}): {}", what());
        }
    }

    /// The metrics of `table` as the driver wants them. A per-layer metric
    /// this run did not compute belongs to a layer the workload bypasses and
    /// reads 0; a missing end-to-end metric is a bug.
    fn table_json(&self, table: &[MetricSpec], default_zero: bool) -> Json {
        Json::Obj(
            table
                .iter()
                .map(|spec| {
                    let value = match self.metric(spec.name) {
                        Some(value) => value,
                        None if default_zero => 0.0,
                        None => panic!("{} did not measure {}", self.workload, spec.name),
                    };
                    let cell = Json::obj(vec![
                        ("value", Json::F64(value)),
                        ("unit", spec.unit.into()),
                    ]);
                    (spec.name.to_string(), cell)
                })
                .collect(),
        )
    }

    /// The one-line JSON object that ends a run's standard output.
    pub fn driver_line(&self) -> String {
        let metrics = if self.traced {
            self.table_json(&PER_LAYER, true)
        } else {
            self.table_json(&END_TO_END, false)
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", metrics),
        ])
        .render()
    }

    /// Every metric by name with its unit, then the exact counts.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let unit = spec_of(name).map_or("", |spec| spec.unit);
            out.push_str(&format!("metric {name} = {value} {unit}\n"));
        }
        for (name, value) in &self.counts {
            out.push_str(&format!("count {name} = {value}\n"));
        }
        out
    }

    /// The result file of a `workload` run: `<workload>.<traced|untraced>.json`.
    pub fn file_name(workload: &str, traced: bool) -> String {
        let kind = if traced { "traced" } else { "untraced" };
        format!("{workload}.{kind}.json")
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", self.workload.as_str().into()),
            ("traced", Json::Bool(self.traced)),
            ("seed", Json::U64(self.seed)),
            ("seconds", Json::U64(self.seconds)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("result file lacks {key}"))
        };
        let number = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("{key} is not a whole number"))
        };
        let pairs = |key: &str| match field(key)? {
            Json::Obj(pairs) => Ok(pairs.clone()),
            _ => Err(format!("{key} is not an object")),
        };
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            traced: field("traced")?
                .as_bool()
                .ok_or("traced is not a boolean")?,
            seed: number("seed")?,
            seconds: number("seconds")?,
            attempted: number("attempted")?,
            failed: number("failed")?,
            metrics: pairs("metrics")?
                .into_iter()
                .map(|(n, v)| {
                    v.as_f64()
                        .map(|v| (n.clone(), v))
                        .ok_or(format!("metric {n} is not a number"))
                })
                .collect::<Result<_, _>>()?,
            counts: pairs("counts")?
                .into_iter()
                .map(|(n, v)| {
                    v.as_u64()
                        .map(|v| (n.clone(), v))
                        .ok_or(format!("count {n} is not a whole number"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(RunResult::file_name(&self.workload, self.traced));
        std::fs::write(&path, self.to_json().render() + "\n")?;
        Ok(path)
    }

    pub fn read(path: &Path) -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        RunResult::from_json(&Json::parse(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut result = RunResult::new("mail_sv6", false, 42, 15);
        result.set("setup_s", 0.2178);
        result.set("wall_s", 0.7314159);
        result.set("cpu_s", 21.37);
        result.set("peak_rss_mb", 112.5);
        result.count("corpus_fingerprint", u64::MAX - 5);
        result.checks(200_000, 0, || unreachable!());
        result
    }

    #[test]
    fn result_file_round_trips() {
        let result = sample();
        let text = result.to_json().render();
        let back = RunResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result, "u64 counts and f64 metrics survive exactly");
        let dir = std::env::temp_dir().join(format!("scr-benchmark-test-{}", std::process::id()));
        let path = result.write(&dir).unwrap();
        assert!(path.ends_with("mail_sv6.untraced.json"));
        assert_eq!(RunResult::read(&path).unwrap(), result);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_result_files_are_errors() {
        assert!(RunResult::from_json(&Json::parse("{}").unwrap()).is_err());
        let mut doc = sample().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(key, _)| key != "counts");
        }
        assert!(RunResult::from_json(&doc).unwrap_err().contains("counts"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let doc = Json::parse(&sample().driver_line()).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.7314159));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn traced_line_lists_every_layer_and_zeroes_the_bypassed_ones() {
        let mut result = RunResult::new("mail_sv6", true, 1, 15);
        result.set("trace.closure_share", 0.97);
        result.check(false, || "a deliberate failure".to_string());
        let doc = Json::parse(&result.driver_line()).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| {
            doc.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("trace.closure_share"), Some(0.97));
        assert_eq!(value("core.analyzer.paths"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the tables")]
    fn unknown_metric_names_are_refused() {
        RunResult::new("mail_sv6", false, 1, 15).set("made.up", 1.0);
    }
}
