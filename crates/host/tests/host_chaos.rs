//! Integration tests for the chaos layer riding on the host kernel:
//! fault injection is deterministic per plan, a disabled fault layer is
//! invisible to the trace sink's probes (the chaos twin of the
//! metrics-parity test in `host_obs.rs`), the reliable surface retries
//! exactly the injected faults, and the chaos telemetry ledger of the
//! pipeline engine adds up.

use scr_chaos::kernel::{FaultyKernel, ReliableKernel};
use scr_chaos::plan::{ChaosPlan, DelaySpec, FaultSpec};
use scr_host::workloads::MailTelemetry;
use scr_host::{
    host_kernel, host_kernel_with, run_pipeline, saturating_schedule, HostMode, PipelineConfig,
};
use scr_kernel::api::{Errno, OpenFlags, StatMask, SyscallApi};
use scr_kernel::mail::{MailConfig, MailTopology};
use scr_kernel::retry::RetryPolicy;
use scr_kernel::Sv6Options;
use scr_mtrace::{on_core, HostTraceSink, Lines, TraceWindow};

/// Runs a fixed single-threaded sequence of faultable calls under `plan`
/// and returns the observable outcome pattern plus the injection count.
fn storm_pattern(plan: &ChaosPlan) -> (Vec<Result<(), Errno>>, u64) {
    let kernel = host_kernel(2, HostMode::Sv6);
    let pid = kernel.new_process();
    let faulty = FaultyKernel::new(&kernel, plan.clone(), 2);
    let pattern = (0..64)
        .map(|i| {
            faulty
                .open(0, pid, &format!("storm-{i}"), OpenFlags::create())
                .map(|_| ())
        })
        .collect();
    (pattern, faulty.injected_total())
}

/// The same plan against the same call sequence injects the same faults
/// at the same positions — a chaos run is replayable from its seed alone.
#[test]
fn fault_injection_is_deterministic_per_plan() {
    let plan = ChaosPlan::errno_storm(23);
    let (a, injected_a) = storm_pattern(&plan);
    let (b, injected_b) = storm_pattern(&plan);
    assert_eq!(a, b);
    assert_eq!(injected_a, injected_b);
    assert!(injected_a > 0, "storm injected nothing in 64 calls");
    // A reseeded plan draws a different pattern (64 draws at 20%
    // injection: the chance of agreeing everywhere is negligible).
    let reseeded = ChaosPlan::errno_storm(24);
    assert_ne!(a, storm_pattern(&reseeded).0);
}

/// The deterministic syscall sequence of `host_obs.rs`'s parity test,
/// optionally behind a `FaultyKernel` carrying the *disabled* plan.
fn traced_window(through_chaos: bool) -> TraceWindow {
    let sink = HostTraceSink::new(2);
    let kernel = host_kernel_with(2, HostMode::Sv6, Sv6Options::default(), Some(&sink));
    let pid = kernel.new_process();
    let fd = on_core(0, || kernel.open(0, pid, "parity", OpenFlags::create())).unwrap();

    let faulty = FaultyKernel::new(&kernel, ChaosPlan::none(), 2);
    let api: &(dyn SyscallApi + Sync) = if through_chaos { &faulty } else { &kernel };

    sink.begin_window();
    on_core(0, || api.fstat(0, pid, fd)).unwrap();
    on_core(1, || api.link(1, pid, "parity", "parity-b")).unwrap();
    on_core(0, || api.fstatx(0, pid, fd, StatMask::all_but_nlink())).unwrap();
    on_core(1, || api.unlink(1, pid, "parity-b")).unwrap();
    sink.end_window()
}

/// Probe parity: a `FaultyKernel` carrying the disabled plan must leave
/// the traced footprint byte-for-byte identical — enabling the chaos
/// layer without a plan cannot manufacture (or hide) a conflict.
#[test]
fn disabled_chaos_layer_changes_no_traced_footprint() {
    let raw = traced_window(false);
    let chaos = traced_window(true);
    assert!(!raw.accesses.is_empty(), "window traced no accesses");
    assert_eq!(raw, chaos);
}

/// The reliable surface retries exactly the injected faults: under a
/// heavy storm every open still succeeds (injection happens *before* the
/// inner call, so a retry never duplicates an effect), while genuine
/// kernel answers surface unchanged through the same storm.
#[test]
fn reliable_surface_absorbs_injected_faults_but_not_genuine_errors() {
    let kernel = host_kernel(2, HostMode::Sv6);
    let pid = kernel.new_process();
    let plan = ChaosPlan::new(
        41,
        FaultSpec::uniform(400_000),
        DelaySpec::default(),
        vec![],
    );
    let faulty = FaultyKernel::new(&kernel, plan, 2);
    let reliable = ReliableKernel::new(&faulty, RetryPolicy::spin().with_seed(41));
    for i in 0..48 {
        let fd = reliable
            .open(0, pid, &format!("file-{i}"), OpenFlags::create())
            .unwrap_or_else(|e| panic!("open {i} surfaced an injected fault: {e}"));
        reliable.close(0, pid, fd).unwrap();
    }
    assert!(faulty.injected_total() > 0, "storm injected nothing");
    // A genuine error rides out the storm too: the missing file stays
    // ENOENT no matter how many injected bounces precede the real answer.
    assert_eq!(
        reliable.open(0, pid, "missing", OpenFlags::plain()),
        Err(Errno::ENOENT)
    );
}

/// The chaos telemetry ledger: the observability counters agree with the
/// fault layer's own totals, and the retry/backoff counters actually
/// moved while the pipeline rode out the storm.
#[test]
fn chaos_telemetry_counters_match_the_fault_layer() {
    let mut cfg = PipelineConfig::new(MailConfig::CommutativeApis, MailTopology::new(2, 2));
    cfg.plan = ChaosPlan::errno_storm(47);
    cfg.plan.delay = DelaySpec {
        ppm: 100_000,
        polls: 4,
    };
    let kernel = host_kernel(cfg.cores(), HostMode::Sv6);
    let telemetry = MailTelemetry::new(cfg.cores());
    let schedule = saturating_schedule(2, 50);
    let report = run_pipeline(&kernel, &cfg, &schedule, Some(&telemetry), |_, _, _| {});
    assert!(
        report.accounted(),
        "chaos ledger does not balance: {report:?}"
    );

    let counter = |name: &str| telemetry.registry.counter(name).total();
    let injected: u64 = ["send", "recv", "open", "spawn"]
        .iter()
        .map(|kind| counter(&format!("chaos.injected.{kind}")))
        .sum();
    assert_eq!(injected, report.injected_faults);
    assert!(injected > 0, "storm injected nothing");
    assert_eq!(counter("chaos.delay.polls"), report.delayed_polls);
    assert!(counter("chaos.delay.holds") > 0, "no delivery hold started");
    assert!(counter("chaos.retries") > 0, "no retry was recorded");
    // The snapshot carries the chaos section for the artifact exports.
    let rendered = telemetry.registry.snapshot().to_json();
    assert!(rendered.contains("\"chaos.injected.send\""));
    assert!(rendered.contains("\"chaos.retries\""));
}
