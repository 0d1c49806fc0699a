//! Mail server benchmark — Figure 7(c).
//!
//! The qmail-style mail server of §7.3 (`scr_kernel::mail`) is driven end to
//! end: every core continuously delivers a message (enqueue, notify, queue
//! manager, delivery, cleanup). The benchmark compares the regular-API
//! configuration (lowest FD, ordered notification socket, `fork`) with the
//! commutative-API configuration (`O_ANYFD`, unordered socket,
//! `posix_spawn`).

use crate::Series;
use scr_kernel::api::{KernelApi, SyscallApi};
use scr_kernel::mail::{MailConfig, MailServer, NoMailObs};
use scr_kernel::Sv6Kernel;
use scr_mtrace::{ScalingParams, ThroughputModel};

/// Legend label for a configuration.
pub fn label(config: MailConfig) -> &'static str {
    match config {
        MailConfig::RegularApis => "Regular APIs",
        MailConfig::CommutativeApis => "Commutative APIs",
    }
}

/// Runs the mail workload for one configuration and core count.
pub fn run_mode(config: MailConfig, cores: usize, rounds: usize) -> scr_mtrace::ScalingPoint {
    let kernel = Sv6Kernel::new(cores.max(2));
    let machine = kernel.machine().clone();
    let client = kernel.new_process();
    let qman = kernel.new_process();
    let server = MailServer::new(&kernel, config, cores.max(1)).expect("mail server");

    machine.clear_trace();
    machine.start_tracing();
    for round in 0..rounds {
        for core in 0..cores {
            machine.on_core(core, || {
                let mailbox = format!("user{core}");
                let body = format!("message {round} from core {core}");
                server
                    .enqueue(core, client, &mailbox, body.as_bytes(), &NoMailObs)
                    .expect("enqueue");
                server
                    .qman_step(core, qman, &NoMailObs)
                    .expect("mail delivery");
            });
        }
    }
    machine.stop_tracing();
    let model = ThroughputModel::new(ScalingParams::default());
    model.evaluate(&machine.accesses(), cores, rounds as u64)
}

/// Runs the full mail-server sweep.
pub fn sweep(core_counts: &[usize], rounds: usize) -> Vec<Series> {
    [MailConfig::CommutativeApis, MailConfig::RegularApis]
        .into_iter()
        .map(|config| Series {
            name: label(config).to_string(),
            points: core_counts
                .iter()
                .map(|&cores| run_mode(config, cores, rounds))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutative_apis_outperform_regular_apis_at_scale() {
        let cores = [1usize, 8, 16];
        let series = sweep(&cores, 12);
        let commutative = &series[0];
        let regular = &series[1];
        let c_last = commutative.points.last().unwrap().ops_per_sec_per_core;
        let r_last = regular.points.last().unwrap().ops_per_sec_per_core;
        assert!(
            c_last > r_last,
            "commutative APIs must outperform regular APIs at 16 cores ({c_last:.0} vs {r_last:.0})"
        );
        // And the commutative configuration must retain most of its
        // single-core per-core throughput.
        let c_first = commutative.points.first().unwrap().ops_per_sec_per_core;
        assert!(c_last > 0.5 * c_first);
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(
            label(MailConfig::RegularApis),
            label(MailConfig::CommutativeApis)
        );
    }
}
