//! A throughput model for the Figure-7 style scalability curves.
//!
//! The paper's evaluation (§7) plots *operations per second per core* as the
//! core count grows: conflict-free implementations stay flat (perfect
//! scalability) while a single contended cache line causes per-core
//! throughput to collapse, because ownership of that line must be
//! transferred serially between cores.
//!
//! This module turns an access log recorded on the simulated machine into
//! such a curve. Accesses are classified by the MESI model
//! ([`crate::mesi`]); local hits and cold misses cost a fixed number of
//! cycles on the issuing core only, while remote transfers additionally
//! serialise on the cache line: a transfer cannot begin before the previous
//! transfer of the same line has completed, regardless of which core issues
//! it. That single rule reproduces the paper's observed behaviour — flat
//! curves for conflict-free workloads, `1/n` collapse for workloads that all
//! write one line, and intermediate shapes for partial sharing.

use crate::machine::{CoreId, LineId};
use crate::mesi::{AccessClass, MesiSimulator};
use crate::trace::Access;
use std::collections::BTreeMap;

/// Cost parameters of the timing model, in arbitrary "cycles".
///
/// Defaults are loosely calibrated to a large x86 NUMA machine: ~100 cycle
/// L2/L3 hits versus several-hundred-cycle cross-socket transfers. Only the
/// *ratios* matter for the shape of the curves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingParams {
    /// Fixed per-operation cost (syscall entry, bookkeeping) in cycles.
    pub base_cycles_per_op: f64,
    /// Cost of an access that hits in the local cache.
    pub hit_cycles: f64,
    /// Cost of a cold miss served from memory.
    pub miss_cycles: f64,
    /// Cost of a cross-core coherence transfer. Transfers of the same line
    /// are serialised.
    pub transfer_cycles: f64,
    /// Simulated clock frequency, used to convert cycles to seconds.
    pub cycles_per_second: f64,
}

impl Default for ScalingParams {
    fn default() -> Self {
        ScalingParams {
            // A system call costs a few thousand cycles of straight-line
            // work; coherence misses matter when they *serialise* (one
            // contended line), not when they merely add a few hundred
            // cycles of distributed traffic.
            base_cycles_per_op: 2000.0,
            hit_cycles: 4.0,
            miss_cycles: 120.0,
            transfer_cycles: 400.0,
            cycles_per_second: 2.4e9,
        }
    }
}

/// One point of a scalability curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Number of cores participating.
    pub cores: usize,
    /// Total operations completed across all cores.
    pub total_ops: u64,
    /// Operations per second per core (the Figure-7 y-axis).
    pub ops_per_sec_per_core: f64,
    /// Total cross-core coherence transfers observed.
    pub remote_transfers: u64,
    /// Wall-clock seconds the slowest core needed.
    pub elapsed_seconds: f64,
}

/// The throughput model: replays an access log through the MESI simulator
/// and a simple timing model with per-line serialisation of transfers.
#[derive(Clone, Debug, Default)]
pub struct ThroughputModel {
    params: ScalingParams,
}

impl ThroughputModel {
    /// A model with the given cost parameters.
    pub fn new(params: ScalingParams) -> Self {
        ThroughputModel { params }
    }

    /// A model with default parameters.
    pub fn with_defaults() -> Self {
        ThroughputModel {
            params: ScalingParams::default(),
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &ScalingParams {
        &self.params
    }

    /// Replays `accesses` (recorded by running `ops_per_core` operations on
    /// each of `cores` cores) and returns the resulting scaling point.
    pub fn evaluate(&self, accesses: &[Access], cores: usize, ops_per_core: u64) -> ScalingPoint {
        let p = &self.params;
        let mut mesi = MesiSimulator::new();
        let mut core_time: BTreeMap<CoreId, f64> = BTreeMap::new();
        let mut line_free: BTreeMap<LineId, f64> = BTreeMap::new();
        for access in accesses {
            let class = mesi.step(access);
            let t = core_time.entry(access.core).or_insert(0.0);
            match class {
                AccessClass::LocalHit => *t += p.hit_cycles,
                AccessClass::ColdMiss => *t += p.miss_cycles,
                AccessClass::RemoteTransfer => {
                    let free = line_free.entry(access.line).or_insert(0.0);
                    let start = t.max(*free);
                    let done = start + p.transfer_cycles;
                    *t = done;
                    *free = done;
                }
            }
        }
        // Fixed per-op cost on every participating core.
        for core in 0..cores {
            *core_time.entry(core).or_insert(0.0) += p.base_cycles_per_op * ops_per_core as f64;
        }
        let stats = mesi.stats().clone();
        let slowest_cycles = core_time.values().cloned().fold(0.0f64, f64::max);
        let elapsed_seconds = slowest_cycles / p.cycles_per_second;
        let total_ops = ops_per_core * cores as u64;
        let ops_per_sec_per_core = if elapsed_seconds > 0.0 {
            total_ops as f64 / elapsed_seconds / cores as f64
        } else {
            0.0
        };
        ScalingPoint {
            cores,
            total_ops,
            ops_per_sec_per_core,
            remote_transfers: stats.remote_transfers(),
            elapsed_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lines::Lines;
    use crate::machine::SimMachine;
    use crate::on_core;

    /// Builds a log in which each core repeatedly writes its own line.
    fn conflict_free_log(cores: usize, rounds: usize) -> Vec<Access> {
        let m = SimMachine::new();
        let lines: Vec<_> = (0..cores)
            .map(|c| m.line(format!("percore[{c}]")))
            .collect();
        m.begin_window();
        for _ in 0..rounds {
            for (core, line) in lines.iter().enumerate() {
                on_core(core, || line.rmw(0));
            }
        }
        m.end_window().accesses
    }

    /// Builds a log in which every core writes one shared line.
    fn contended_log(cores: usize, rounds: usize) -> Vec<Access> {
        let m = SimMachine::new();
        let shared = m.line("shared.counter");
        m.begin_window();
        for _ in 0..rounds {
            for core in 0..cores {
                on_core(core, || shared.rmw(0));
            }
        }
        m.end_window().accesses
    }

    #[test]
    fn conflict_free_workload_scales_flat() {
        let model = ThroughputModel::with_defaults();
        let rounds = 200;
        let log1 = conflict_free_log(1, rounds);
        let p1 = model.evaluate(&log1, 1, rounds as u64);
        let log2 = conflict_free_log(16, rounds);
        let p16 = model.evaluate(&log2, 16, rounds as u64);
        // Per-core throughput at 16 cores within 10% of single-core.
        let ratio = p16.ops_per_sec_per_core / p1.ops_per_sec_per_core;
        assert!(
            ratio > 0.9,
            "conflict-free workload should stay flat, ratio = {ratio}"
        );
    }

    #[test]
    fn contended_workload_collapses() {
        let model = ThroughputModel::with_defaults();
        let rounds = 200;
        let log1 = contended_log(1, rounds);
        let p1 = model.evaluate(&log1, 1, rounds as u64);
        let log2 = contended_log(16, rounds);
        let p16 = model.evaluate(&log2, 16, rounds as u64);
        let ratio = p16.ops_per_sec_per_core / p1.ops_per_sec_per_core;
        assert!(
            ratio < 0.5,
            "contended workload should collapse, ratio = {ratio}"
        );
        assert!(p16.remote_transfers > 0);
    }

    #[test]
    fn contended_workload_gets_worse_with_more_cores() {
        let model = ThroughputModel::with_defaults();
        let rounds = 100;
        let la = contended_log(4, rounds);
        let lb = contended_log(32, rounds);
        let p4 = model.evaluate(&la, 4, rounds as u64);
        let p32 = model.evaluate(&lb, 32, rounds as u64);
        assert!(p32.ops_per_sec_per_core < p4.ops_per_sec_per_core);
    }

    #[test]
    fn elapsed_time_is_positive_for_nonempty_workload() {
        let model = ThroughputModel::with_defaults();
        let log = contended_log(2, 5);
        let p = model.evaluate(&log, 2, 5);
        assert!(p.elapsed_seconds > 0.0);
        assert_eq!(p.total_ops, 10);
    }
}
