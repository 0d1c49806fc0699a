//! Shape check for the differential-alphabet skip baseline.
//!
//! `tests/differential_fuzz_baseline.txt` is the committed skip-reason
//! histogram for the differential alphabet leg of `examples/host_fig6.rs`
//! (13-call alphabet: the seven file-system calls plus the six §4
//! extension calls, 96 assignments per case). The gate fails when a
//! reason's count rises above the baseline — previously-constructible
//! representatives being skipped again. This test pins the baseline's
//! *shape* so a regeneration that silently drops a reason class (or
//! resurrects one that should be impossible) is caught at `cargo test`
//! time, and documents why each committed count is what it is:
//!
//! * `tests-run 2971` — the leg's test floor: every test of the alphabet's
//!   corpus, all 91 unordered pairs, replays under both policies; a lower
//!   bound, so the gate cannot pass vacuously if generation collapses.
//! * `fd-table-full 145` — TESTGEN cases where the traced call must
//!   allocate a descriptor but the model's 2-slot-per-process table is
//!   full (the model's EMFILE paths; the concrete kernels' tables are
//!   larger, so these states are deliberately unconstructible).
//! * `pipe-layout 584` / `pipe-endpoints 521` / `cross-process-pipe 234`
//!   — pipe-descriptor geometries a single `pipe()` call cannot produce
//!   without `dup2` or fork-style inheritance: write end below read end,
//!   multiple writers, endpoints split across processes. Large because
//!   `pipe`, `read`, `write` and `close` pairs dominate the fs half of
//!   the alphabet.
//! * `socket-table-full 65` — a `socket` under test with both model
//!   socket slots occupied (the model's ENOSPC paths; the host kernels
//!   have no fixed socket pool to exhaust).
//! * `child-table-full 346` — `fork`/`posix_spawn` under test with both
//!   model child slots occupied (the model's EAGAIN paths; the concrete
//!   process tables are unbounded). The biggest extension class because
//!   every fork/spawn/wait pairing enumerates full-table shapes.
//! * `child-fd-orphan 26` — a spawned child holding pipe endpoints at
//!   descriptor numbers the single `pipe()`-derived layout cannot place
//!   there at spawn time.
//!
//! Absent by design: `unreachable-inode` and `unnamed-mapping` need
//! `open`/`link`/`mmap`-family calls that are not in the gate's alphabet,
//! and `value-out-of-domain` is defensive (a solver regression, never an
//! expected skip).

use scalable_commutativity::commuter::SkipReason;
use std::collections::BTreeMap;

fn read_baseline() -> (usize, BTreeMap<SkipReason, usize>) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/differential_fuzz_baseline.txt");
    let text = std::fs::read_to_string(&path).expect("read committed baseline");
    let mut tests_run = 0usize;
    let mut histogram = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let key = parts.next().expect("baseline key");
        let count: usize = parts
            .next()
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("malformed baseline line: {line}"));
        if key == "tests-run" {
            tests_run = count;
        } else {
            let reason = SkipReason::parse(key)
                .unwrap_or_else(|| panic!("unknown skip reason in baseline: {line}"));
            assert!(
                histogram.insert(reason, count).is_none(),
                "duplicate baseline entry: {key}"
            );
        }
    }
    (tests_run, histogram)
}

#[test]
fn baseline_covers_exactly_the_reachable_skip_classes() {
    let (tests_run, histogram) = read_baseline();
    assert!(
        tests_run >= 120,
        "replay floor collapsed: baseline requires only {tests_run} tests"
    );
    let expected = [
        SkipReason::FdTableFull,
        SkipReason::PipeLayout,
        SkipReason::PipeEndpoints,
        SkipReason::CrossProcessPipe,
        SkipReason::SocketTableFull,
        SkipReason::ChildTableFull,
        SkipReason::ChildFdOrphan,
    ];
    for reason in expected {
        let count = histogram.get(&reason).copied().unwrap_or(0);
        assert!(
            count > 0,
            "{reason} vanished from the baseline: either coverage genuinely \
             improved (update this test's comment) or the alphabet shrank"
        );
    }
    for reason in [
        SkipReason::UnreachableInode,
        SkipReason::UnnamedMapping,
        SkipReason::ValueOutOfDomain,
    ] {
        assert!(
            !histogram.contains_key(&reason),
            "{reason} appeared in the baseline: the gate alphabet has no \
             call that can reach it (see this test's module comment)"
        );
    }
    assert_eq!(
        histogram.len(),
        expected.len(),
        "baseline lists an unexpected skip class: {histogram:?}"
    );
}
