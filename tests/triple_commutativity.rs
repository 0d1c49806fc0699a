//! Baseline gate for the triple-commutativity sweep.
//!
//! Sweeps both coupled call families (`fd`: open/close/read/write/pipe,
//! `offset`: lseek/read/write) as every unordered triple, renders the
//! per-triple counts and compares them line-for-line against the
//! committed baseline `tests/triple_commutativity_baseline.txt`. The
//! sweep is deterministic by construction (in-order aggregation over
//! claiming workers that share no solver state), so the rendering is
//! byte-identical for every thread count — any diff is a semantic change
//! to the analyzer, the shape enumeration or the materialiser, and must
//! be reviewed by regenerating the baseline with
//! `SCR_TRIPLE_BASELINE_WRITE=1 cargo test --test triple_commutativity`.
//!
//! A replay budget (`tests-run`) of generated triples also executes on
//! the simulated sv6 kernel in all six orders each, pinning the
//! SIM-commutativity claim the sweep makes: a commutative triple's setup
//! must succeed and its results must not depend on the order.

use scalable_commutativity::commuter::{
    orders, replay, run_test, triple_config, triple_family_sweep, InOrder, KernelFactory,
    Sv6Factory, TripleFamilyReport, TRIPLE_FAMILIES,
};

const REPLAY_BUDGET: usize = 24;

fn baseline_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/triple_commutativity_baseline.txt")
}

fn sweep_families() -> Vec<TripleFamilyReport> {
    let cfg = triple_config();
    let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
    TRIPLE_FAMILIES
        .iter()
        .map(|family| triple_family_sweep(family, &cfg, &names, 2, 0))
        .collect()
}

fn render_all(reports: &[TripleFamilyReport]) -> String {
    let mut out = String::from(
        "# triple-commutativity baseline (regenerate with SCR_TRIPLE_BASELINE_WRITE=1)\n",
    );
    out.push_str(&format!("tests-run {REPLAY_BUDGET}\n"));
    for report in reports {
        out.push_str(&report.render());
    }
    out
}

#[test]
fn triple_sweep_matches_the_committed_baseline() {
    let reports = sweep_families();
    let rendered = render_all(&reports);

    if std::env::var_os("SCR_TRIPLE_BASELINE_WRITE").is_some() {
        std::fs::write(baseline_path(), &rendered).expect("write baseline");
        eprintln!("baseline regenerated at {:?}", baseline_path());
        return;
    }

    // Substance before bytes: both families must find commutative
    // triples and materialise tests, so the byte-compare below cannot
    // pass vacuously on a collapsed sweep.
    for report in &reports {
        assert!(
            report.commutative_triples() > 0,
            "family {} found no commutative triples",
            report.family
        );
        assert!(
            report.total_tests() > 0,
            "family {} materialised no tests",
            report.family
        );
    }

    let committed = std::fs::read_to_string(baseline_path())
        .expect("committed baseline missing; regenerate with SCR_TRIPLE_BASELINE_WRITE=1");
    assert_eq!(
        committed, rendered,
        "triple sweep diverged from tests/triple_commutativity_baseline.txt; \
         review the diff and regenerate with SCR_TRIPLE_BASELINE_WRITE=1"
    );

    // Replay a budget of generated triples on the simulated kernel in
    // every order: SIM-commutative results are order-independent.
    let factory = Sv6Factory { cores: 3 };
    let orders = orders(3);
    let mut replayed = 0;
    'outer: for report in &reports {
        for row in &report.rows {
            for test in &row.tests {
                if replayed >= REPLAY_BUDGET {
                    break 'outer;
                }
                let base = run_test(&factory, test);
                assert!(base.setup_ok, "setup must replay cleanly: {}", test.id);
                for order in &orders[1..] {
                    let kernel = factory.build();
                    let other = replay(&kernel, kernel.lines(), test, InOrder(order));
                    assert!(other.setup_ok, "setup failed in {order:?}: {}", test.id);
                    assert_eq!(
                        base.results, other.results,
                        "order-dependent results for {} in {order:?}",
                        test.id
                    );
                }
                replayed += 1;
            }
        }
    }
    assert_eq!(replayed, REPLAY_BUDGET, "replay budget not met");
}
