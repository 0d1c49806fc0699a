//! Integration tests for the telemetry layer riding on the host kernel:
//! exactly-once accounting through the mail pipeline, the retry-tail
//! invariant, Chrome trace sanity, probe parity (observing syscalls must
//! not change the traced footprint), and heat-table/heatmap agreement.

use scr_host::workloads::{mail_pipeline_observed, MailTelemetry};
use scr_host::{host_kernel_with, run_host_fig6, HostFig6Config, HostMode};
use scr_kernel::api::{OpenFlags, StatMask, SyscallApi};
use scr_kernel::mail::MailConfig;
use scr_kernel::Sv6Options;
use scr_model::CallKind;
use scr_mtrace::{on_core, HostTraceSink, Lines, TraceWindow};
use scr_obs::{MetricsRegistry, ObservedKernel, SyscallKind, SyscallRecorder};

/// The mail pipeline, observed: every message is delivered exactly once,
/// the recv decomposition explains the whole latency tail (each `qman_step`
/// is exactly one recv — either a delivery or an EAGAIN retry), and the
/// stage trace holds exactly the seven-span ledger per message.
#[test]
fn observed_pipeline_accounts_for_every_recv_and_span() {
    let telemetry = MailTelemetry::new(4);
    let report = mail_pipeline_observed(
        HostMode::Sv6,
        MailConfig::CommutativeApis,
        2,
        2,
        15,
        Some(&telemetry),
    );
    assert!(report.exactly_once(), "pipeline lost or duplicated mail");
    let messages = 2 * 15u64;
    assert_eq!(telemetry.enqueued.total(), messages);
    assert_eq!(telemetry.delivered.total(), messages);

    // Retry-tail invariant: the recv count decomposes exactly into
    // deliveries plus EAGAIN retries, and the recv latency histogram saw
    // every one of those calls — the tail is fully explained by retries.
    let recvs = telemetry.syscalls.count_of(SyscallKind::Recv);
    let retries = telemetry.eagain_retries.total();
    assert_eq!(recvs, messages + retries);
    assert_eq!(
        telemetry
            .syscalls
            .errno_count(SyscallKind::Recv, scr_kernel::api::Errno::EAGAIN),
        retries
    );
    assert_eq!(telemetry.syscalls.latency(SyscallKind::Recv).count, recvs);
    // The backoff pairing: every EAGAIN retry backed off exactly once.
    assert_eq!(telemetry.yield_spins.total(), retries);

    // Seven spans per message: enqueue + notify on the enqueuer side,
    // receive + spawn + deliver + reap + cleanup on the qman side.
    assert_eq!(telemetry.trace.len(), 7 * messages as usize);

    // The Chrome export is loadable: one complete-event record per span,
    // named after the pipeline stages.
    let json = telemetry.trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("}"));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 7 * messages as usize);
    for stage in [
        "mail.enqueue",
        "mail.notify",
        "mail.receive",
        "mail.spawn",
        "mail.deliver",
        "mail.reap",
        "mail.cleanup",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{stage}\"")),
            "chrome trace missing {stage}"
        );
    }

    // The merged snapshot carries the same numbers through the JSON and
    // text renders the examples export.
    let snapshot = telemetry.registry.snapshot();
    let rendered = snapshot.to_json();
    assert!(rendered.contains("\"mail.delivered\""));
    assert!(rendered.contains("\"syscall.recv.calls\""));
    let text = snapshot.render_text();
    assert!(text.contains("mail.delivered"));
}

/// Runs a fixed deterministic syscall sequence inside a tracing window,
/// optionally through [`ObservedKernel`], and returns the window plus how
/// many syscalls the recorder saw.
fn traced_window(observe: bool) -> (TraceWindow, u64) {
    let sink = HostTraceSink::new(2);
    let kernel = host_kernel_with(2, HostMode::Sv6, Sv6Options::default(), Some(&sink));
    let pid = kernel.new_process();
    let fd = on_core(0, || kernel.open(0, pid, "parity", OpenFlags::create())).unwrap();

    let registry = MetricsRegistry::new(2);
    let recorder = SyscallRecorder::new(&registry);
    let observed = ObservedKernel::new(&kernel, recorder.clone());
    let api: &(dyn SyscallApi + Sync) = if observe { &observed } else { &kernel };

    sink.begin_window();
    on_core(0, || api.fstat(0, pid, fd)).unwrap();
    on_core(1, || api.link(1, pid, "parity", "parity-b")).unwrap();
    on_core(0, || api.fstatx(0, pid, fd, StatMask::all_but_nlink())).unwrap();
    on_core(1, || api.unlink(1, pid, "parity-b")).unwrap();
    let window = sink.end_window();

    let observed_calls = SyscallKind::ALL
        .iter()
        .map(|&kind| recorder.count_of(kind))
        .sum();
    (window, observed_calls)
}

/// Probe parity: wrapping the instrumented kernel in the recorder must
/// leave the traced footprint byte-for-byte identical. The recorder's
/// counters live outside the traced lines, so observation cannot
/// manufacture (or hide) a conflict.
#[test]
fn enabling_metrics_changes_no_traced_footprint() {
    let (raw_window, raw_seen) = traced_window(false);
    let (observed_window, observed_seen) = traced_window(true);
    assert_eq!(raw_seen, 0, "raw run must not touch the recorder");
    assert_eq!(observed_seen, 4, "recorder missed observed syscalls");
    assert!(
        !observed_window.accesses.is_empty(),
        "window traced no accesses"
    );
    assert_eq!(raw_window, observed_window);
}

/// The Figure 6 heat tables agree with the heatmaps they annotate on a
/// real (small) sweep: a substrate reporting conflicting tests must show
/// hot lines and vice versa, and the known fstat↔link contention shows up
/// as a concrete hot label on the Linux-like host.
#[test]
fn fig6_heat_tables_match_the_heatmaps() {
    let config = HostFig6Config::quick(&[CallKind::Stat, CallKind::Link]);
    let results = run_host_fig6(&config);
    assert_eq!(results.dropped, 0);
    for (label, report, heat) in [
        ("sv6-host", &results.host_sv6, &results.heat_sv6),
        ("linux-host", &results.host_linux, &results.heat_linux),
    ] {
        let has_conflicts = report.total_tests() > report.total_conflict_free();
        let has_heat = heat.total_conflict_windows() > 0;
        assert_eq!(
            has_conflicts, has_heat,
            "{label}: heatmap ({has_conflicts}) and heat table ({has_heat}) disagree"
        );
    }
    // stat ∥ link contends on the inode's link count under the global-lock
    // substrate; the heat table must name at least one hot line for it.
    let top = results.heat_linux.top_n(5);
    assert!(
        !top.is_empty(),
        "linux-host ran conflicting tests but the heat table is empty"
    );
}
