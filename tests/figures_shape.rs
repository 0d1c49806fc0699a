//! Shape checks for the simulated Figure 7, run with reduced parameters so
//! they finish quickly under `cargo test`. The full sweeps are printed by
//! the `statbench`, `openbench` and `mailserver` examples.
//!
//! Each figure's simulated sweep is also pinned exactly: every point —
//! series label, cores, total operations, remote transfers and the bits of
//! ops/sec/core — is folded into one constant per figure. The simulated
//! machine and `ThroughputModel` are deterministic, so a refactor of the
//! workloads or their drivers must hold all three constants byte for byte.

use scr_host::fig7::{check_shape, mail_columns, open_columns, simulated, stat_columns, Series};
use scr_symbolic::Fnv64;

const CORES: [usize; 3] = [1, 8, 16];

const FIG7A: u64 = 0x54a1_9cb2_fb18_a11c;
const FIG7B: u64 = 0x65dc_1c6f_2b7b_af1f;
const FIG7C: u64 = 0x8134_349d_7aeb_87d3;

/// Folds every point of `series`, in order.
fn fingerprint(series: &[Series]) -> u64 {
    let mut h = Fnv64::default();
    for s in series {
        h.word(s.name.len() as u64);
        h.bytes(s.name.as_bytes());
        for p in &s.points {
            h.word(p.cores as u64);
            h.word(p.total_ops);
            h.word(p.remote_transfers);
            h.word(p.ops_per_sec_per_core.to_bits());
        }
    }
    h.finish()
}

#[test]
fn figure7a_statbench_shape_holds() {
    let series = simulated(&stat_columns(), &CORES, 30);
    assert_eq!(fingerprint(&series), FIG7A, "{:#x}", fingerprint(&series));
    // Series order: fstatx, fstat (shared), fstat (Refcache).
    let fstatx = &series[0];
    let shared = &series[1];
    let refcache = &series[2];
    check_shape(fstatx, refcache, 0.6).expect("fstatx must stay flat while fstat collapses");
    // The shared-count variant is better for the writers but still cannot
    // scale the fstat side: it must stay clearly below fstatx at 16 cores.
    assert!(
        shared.points.last().unwrap().ops_per_sec_per_core
            < 0.8 * fstatx.points.last().unwrap().ops_per_sec_per_core
    );
}

#[test]
fn figure7b_openbench_shape_holds() {
    let series = simulated(&open_columns(), &CORES, 30);
    assert_eq!(fingerprint(&series), FIG7B, "{:#x}", fingerprint(&series));
    check_shape(&series[0], &series[1], 0.6)
        .expect("O_ANYFD must stay flat while lowest-FD collapses");
}

#[test]
fn figure7c_mailserver_shape_holds() {
    let series = simulated(&mail_columns(), &CORES, 8);
    assert_eq!(fingerprint(&series), FIG7C, "{:#x}", fingerprint(&series));
    let commutative = &series[0];
    let regular = &series[1];
    let c_last = commutative.points.last().unwrap().ops_per_sec_per_core;
    let r_last = regular.points.last().unwrap().ops_per_sec_per_core;
    assert!(
        c_last > r_last,
        "commutative APIs must outperform regular APIs at 16 cores"
    );
    // And the commutative configuration scales: total throughput at 16 cores
    // must be several times the single-core throughput.
    let c_first = &commutative.points[0];
    let speedup = (c_last * 16.0) / (c_first.ops_per_sec_per_core * 1.0);
    assert!(
        speedup > 4.0,
        "commutative mail server must show real speedup, got {speedup:.1}x"
    );
}
