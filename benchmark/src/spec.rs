//! The benchmark's metric and workload tables — the same lists
//! `BENCHMARK.json` declares (a unit test keeps the two in step).

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric. `bound` is the share of the reference median by which
/// the metric may get worse before a run counts as a regression; the driver
/// applies it to end-to-end metrics, `selfcheck` to every metric that has one.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// How long one run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: [&str; 4] = ["sweep_open", "fig6_wide", "mail_sv6", "mail_linux"];

/// Reported by every workload on an untraced run. Each bound is about three
/// times the widest quartile spread ten runs of any one workload showed for
/// the metric (README, "Noise floor"), capped at the contract's 0.25.
pub const END_TO_END: [MetricSpec; 4] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("wall_s", "s", Better::Lower, 0.25),
    gated("cpu_s", "s", Better::Lower, 0.20),
    gated("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Reported by every workload on a traced run; a layer the workload bypasses
/// reads 0. The bounds here are `selfcheck`'s only, applied between two runs
/// and against the committed baseline: the open-loop latencies and the
/// closed-loop capacity are the mail pipeline's user-visible numbers, which
/// the one-list-for-all-workloads contract keeps out of `END_TO_END`.
pub const PER_LAYER: [MetricSpec; 71] = [
    // Sweeps: the traced single-threaded stage loop.
    higher("core.shapes.units", "count"),
    lower("core.analyzer.busy_s", "s"),
    lower("core.analyzer.paths", "count"),
    higher("core.analyzer.cases", "count"),
    lower("core.analyzer.noncommutative_paths", "count"),
    higher("core.analyzer.case_yield", "ratio"),
    lower("symbolic.explore.share", "ratio"),
    lower("model.execute.share", "ratio"),
    lower("symbolic.sat.share", "ratio"),
    lower("symbolic.sat.calls", "count"),
    higher("symbolic.sat.feasible_share", "ratio"),
    lower("core.testgen.busy_s", "s"),
    higher("core.testgen.tests", "count"),
    lower("core.testgen.skipped", "count"),
    higher("core.testgen.resolved", "count"),
    higher("core.testgen.cache_hit_share", "ratio"),
    lower("core.testgen.cache_evictions", "count"),
    lower("core.driver.sim_sv6.busy_s", "s"),
    lower("core.driver.sim_linux.busy_s", "s"),
    higher("core.driver.sim_sv6.conflict_free", "count"),
    higher("core.driver.sim_linux.conflict_free", "count"),
    lower("host.fig6.sv6.busy_s", "s"),
    lower("host.fig6.linux.busy_s", "s"),
    higher("host.fig6.windows", "count"),
    lower("host.fig6.divergences", "count"),
    lower("hostmtrace.dropped", "count"),
    higher("core.sweep.worker_efficiency", "ratio"),
    // Mail: counters of the untraced phases.
    gated(
        "host.workloads.mailbench.msgs_per_s",
        "1/s",
        Better::Higher,
        0.25,
    ),
    lower("host.workloads.mailbench.pass_spread", "ratio"),
    gated("loadgen.lo.lat_p50_us", "us", Better::Lower, 0.25),
    gated("loadgen.lo.lat_p90_us", "us", Better::Lower, 0.25),
    lower("loadgen.lo.lat_p99_us", "us"),
    higher("loadgen.lo.achieved_share", "ratio"),
    lower("loadgen.lo.eagain_per_msg", "1/msg"),
    lower("loadgen.lo.cpu_us_per_msg", "us/msg"),
    gated("loadgen.hi.lat_p50_us", "us", Better::Lower, 0.25),
    gated("loadgen.hi.lat_p90_us", "us", Better::Lower, 0.25),
    lower("loadgen.hi.lat_p99_us", "us"),
    higher("loadgen.hi.achieved_share", "ratio"),
    lower("loadgen.hi.eagain_per_msg", "1/msg"),
    lower("loadgen.hi.cpu_us_per_msg", "us/msg"),
    // Mail: the traced 1 x 1 pipeline.
    lower("kernel.mail.stage.enqueue.us_per_msg", "us/msg"),
    lower("kernel.mail.stage.notify.us_per_msg", "us/msg"),
    lower("kernel.mail.stage.receive.us_per_msg", "us/msg"),
    lower("kernel.mail.stage.spawn.us_per_msg", "us/msg"),
    lower("kernel.mail.stage.deliver.us_per_msg", "us/msg"),
    lower("kernel.mail.stage.reap.us_per_msg", "us/msg"),
    lower("kernel.mail.stage.cleanup.us_per_msg", "us/msg"),
    lower("host.kernel.sys.open.us_per_msg", "us/msg"),
    lower("host.kernel.sys.open.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.write.us_per_msg", "us/msg"),
    lower("host.kernel.sys.write.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.close.us_per_msg", "us/msg"),
    lower("host.kernel.sys.close.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.send.us_per_msg", "us/msg"),
    lower("host.kernel.sys.send.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.recv.us_per_msg", "us/msg"),
    lower("host.kernel.sys.recv.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.pread.us_per_msg", "us/msg"),
    lower("host.kernel.sys.pread.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.spawn.us_per_msg", "us/msg"),
    lower("host.kernel.sys.spawn.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.wait.us_per_msg", "us/msg"),
    lower("host.kernel.sys.wait.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.unlink.us_per_msg", "us/msg"),
    lower("host.kernel.sys.unlink.calls_per_msg", "1/msg"),
    lower("host.kernel.sys.recv.eagain_share", "ratio"),
    lower("kernel.retry.waits_per_msg", "1/msg"),
    lower("kernel.mail.self_share", "ratio"),
    // Every traced run.
    higher("trace.closure_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

/// The metric tables obey the driver's naming contract. Returns the first
/// violation found.
pub fn validate(end_to_end: &[MetricSpec], per_layer: &[MetricSpec]) -> Result<(), String> {
    if end_to_end.is_empty() || end_to_end.len() > 16 {
        return Err(format!(
            "{} end-to-end metrics, want 1..=16",
            end_to_end.len()
        ));
    }
    if per_layer.is_empty() || per_layer.len() > 128 {
        return Err(format!(
            "{} per-layer metrics, want 1..=128",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for spec in end_to_end.iter().chain(per_layer) {
        if !valid_name(spec.name) {
            return Err(format!("bad metric name {:?}", spec.name));
        }
        if !valid_unit(spec.unit) {
            return Err(format!("bad unit {:?} on {}", spec.unit, spec.name));
        }
        if !seen.insert(spec.name) {
            return Err(format!("metric {} listed twice", spec.name));
        }
        if let Some(bound) = spec.bound {
            if !(bound > 0.0 && bound <= 0.25) {
                return Err(format!("bound {bound} on {} outside (0, 0.25]", spec.name));
            }
        }
    }
    if let Some(unbounded) = end_to_end.iter().find(|spec| spec.bound.is_none()) {
        return Err(format!("end-to-end metric {} has no bound", unbounded.name));
    }
    Ok(())
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `[A-Za-z0-9_/%.-]{1,16}`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalable_commutativity::obs::Json;

    #[test]
    fn tables_obey_the_naming_contract() {
        assert_eq!(validate(&END_TO_END, &PER_LAYER), Ok(()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn validation_rejects_each_kind_of_violation() {
        let ok = lower("a.b-c_d", "us/msg");
        assert!(validate(&[gated("x", "s", Better::Lower, 0.1)], &[ok]).is_ok());
        for bad in ["", ".lead", "has space", "sl/ash", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        for bad in ["", "µs", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad:?} accepted");
        }
        let e2e = [gated("x", "s", Better::Lower, 0.1)];
        assert!(validate(&e2e, &[ok, ok]).is_err(), "duplicate");
        assert!(validate(&e2e, &[]).is_err(), "no per-layer metric");
        assert!(
            validate(&[lower("x", "s")], &[ok]).is_err(),
            "unbounded end-to-end"
        );
        assert!(validate(&[gated("x", "s", Better::Lower, 0.3)], &[ok]).is_err());
        assert!(validate(&[gated("x", "s", Better::Lower, 0.1); 17], &[ok]).is_err());
        assert!(validate(&e2e, &[ok; 129]).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must list the same workloads and metrics.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|item| {
                    item.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (item, spec) in listed.iter().zip(table) {
                let field = |f: &str| item.get(f).and_then(Json::as_str).expect("string field");
                assert_eq!(field("name"), spec.name);
                assert_eq!(field("unit"), spec.unit, "{}", spec.name);
                let better = match spec.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(field("better"), better, "{}", spec.name);
                if key == "end_to_end" {
                    assert_eq!(
                        item.get("bound").and_then(Json::as_f64),
                        spec.bound,
                        "{}",
                        spec.name
                    );
                }
            }
        }
    }
}
