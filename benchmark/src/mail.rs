//! The two mail-pipeline workloads: the same driver on the sv6-like kernel
//! with the commutative API family and on the linux-like kernel with the
//! regular one.
//!
//! Phase A (capacity, closed loop): `mailbench` passes over a fixed message
//! count. Phase B (latency, open loop, timed from the intended arrival):
//! `run_open_loop` segments at two fixed rates on a 1 x 1 pipeline. A traced
//! run adds `mail_pipeline_observed`, whose stage spans and per-syscall
//! histograms attribute a message's cost to the kernel layers.

use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::report::RunResult;
use crate::spans::{Span, SpanLog};
use crate::stats::{median, range_share};
use scalable_commutativity::chaos::ChaosPlan;
use scalable_commutativity::host::{
    mail_pipeline, mail_pipeline_observed, mailbench, HostMode, MailPipelineReport, MailTelemetry,
};
use scalable_commutativity::kernel::api::Errno;
use scalable_commutativity::kernel::mail::{MailConfig, MailStage, MailTopology};
use scalable_commutativity::loadgen::{run_open_loop, Arrival, LoadConfig, LoadReport};
use scalable_commutativity::obs::{Json, SyscallKind};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mail {
    Sv6,
    Linux,
}

/// One workload's fixed sizes. Message counts are constants, not functions
/// of the run length: on the linux-like kernel the cost of a message grows
/// with the number already in the (single-stripe, linearly scanned)
/// directory, so a count is part of the workload's definition.
struct Params {
    mode: HostMode,
    mail: MailConfig,
    /// Messages per thread in one capacity pass.
    pass_ops: u64,
    /// About how long such a pass takes on the 2-thread reference box.
    nominal_pass_s: f64,
    /// The two open-loop rates, messages per second.
    rates: [(&'static str, f64); 2],
    /// Messages through the traced 1 x 1 pipeline.
    pipeline_messages: usize,
}

impl Mail {
    fn params(self) -> Params {
        match self {
            Mail::Sv6 => Params {
                mode: HostMode::Sv6,
                mail: MailConfig::CommutativeApis,
                pass_ops: 50_000,
                nominal_pass_s: 0.9,
                rates: [("lo", 10_000.0), ("hi", 25_000.0)],
                pipeline_messages: 50_000,
            },
            Mail::Linux => Params {
                mode: HostMode::Linuxlike,
                mail: MailConfig::RegularApis,
                pass_ops: 4_000,
                nominal_pass_s: 1.0,
                rates: [("lo", 1_000.0), ("hi", 2_000.0)],
                pipeline_messages: 4_000,
            },
        }
    }
}

/// Share of a run's seconds given to the capacity passes / the open loop.
const CAPACITY_SHARE: f64 = 0.45;
const OPEN_LOOP_SHARE: f64 = 0.55;
/// Length of one open-loop segment; with the rate it fixes the message count.
const SEGMENT_S: f64 = 1.5;
const MAILBOXES: usize = 256;
const ZIPF_S: f64 = 0.99;
/// A set-up is a warm-up capacity pass on a fresh kernel and server; full
/// size, because the first pass to grow the heap to a pass's working set runs
/// a fifth slower than the ones after it.
const SETUP_REPEATS: usize = 3;
/// Plain-then-observed pipeline pairs a traced run makes.
const PIPELINE_PAIRS: usize = 3;
/// Messages whose stage spans go into the trace file (all are measured).
const TRACE_FILE_MESSAGES: usize = 2_000;

pub fn run(
    workload: Mail,
    seed: u64,
    seconds: u64,
    traced: bool,
    threads: usize,
    result: &mut RunResult,
) {
    let p = workload.params();

    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let started = Instant::now();
            mailbench(p.mode, p.mail, threads, p.pass_ops);
            started.elapsed().as_secs_f64()
        })
        .collect();

    let cpu_before = cpu_seconds();

    // Phase A: closed-loop capacity.
    let passes = ((CAPACITY_SHARE * seconds as f64 / p.nominal_pass_s).round() as usize).max(3);
    let per_pass = threads as u64 * p.pass_ops;
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        let started = Instant::now();
        let point = mailbench(p.mode, p.mail, threads, p.pass_ops);
        walls.push(started.elapsed().as_secs_f64());
        rates.push(point.total_ops as f64 / point.elapsed_seconds);
        result.checks(per_pass, per_pass.saturating_sub(point.total_ops), || {
            format!(
                "a capacity pass completed {} of {per_pass} messages",
                point.total_ops
            )
        });
    }
    eprintln!(
        "{passes} capacity passes of {per_pass} messages on {threads} thread(s): {rates:.0?} msg/s"
    );
    result.set("host.workloads.mailbench.msgs_per_s", median(&rates));
    result.set("host.workloads.mailbench.pass_spread", range_share(&rates));

    // Phase B: open-loop latency at two fixed rates.
    // An odd number of segments per rate, so that the median is one
    // segment's reading and a single stalled segment cannot move it.
    let segments = (OPEN_LOOP_SHARE * seconds as f64 / (2.0 * SEGMENT_S)).round() as usize;
    let segments = segments.saturating_sub(1) | 1;
    let mut offered = passes as u64 * per_pass;
    for (rate_index, (label, rate)) in p.rates.iter().enumerate() {
        let messages = (rate * SEGMENT_S) as usize;
        let mut reports: Vec<(LoadReport, f64)> = Vec::new();
        for segment in 0..segments {
            let config = LoadConfig {
                mode: p.mode,
                mail: p.mail,
                topology: MailTopology::single(),
                messages,
                rate_per_sec: *rate,
                arrival: Arrival::Poisson,
                mailboxes: MAILBOXES,
                zipf_s: ZIPF_S,
                seed: seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((rate_index * 1_000 + segment) as u64),
                qman_stall_ns: 0,
                chaos: ChaosPlan::none(),
            };
            let segment_cpu_before = cpu_seconds();
            let report = run_open_loop(&config);
            let cpu = cpu_seconds() - segment_cpu_before;
            let bad = report.lost + report.duplicates + report.dead_lettered;
            result.checks(messages as u64, bad.min(messages as u64), || {
                format!(
                    "{label} segment {segment}: {} lost, {} duplicated, {} dead-lettered of {messages}",
                    report.lost, report.duplicates, report.dead_lettered
                )
            });
            offered += messages as u64;
            reports.push((report, cpu));
        }
        let over = |f: &dyn Fn(&LoadReport, f64) -> f64| -> f64 {
            median(
                &reports
                    .iter()
                    .map(|(report, cpu)| f(report, *cpu))
                    .collect::<Vec<_>>(),
            )
        };
        let per_msg = |value: f64, report: &LoadReport| value / report.delivered.max(1) as f64;
        eprintln!(
            "{label} = {rate}/s: {segments} segment(s) of {messages} messages, {} latency samples each",
            reports[0].0.latency.count
        );
        result.set(
            &format!("loadgen.{label}.lat_p50_us"),
            over(&|r, _| r.latency.p50() / 1e3),
        );
        result.set(
            &format!("loadgen.{label}.lat_p90_us"),
            over(&|r, _| r.latency.p90() / 1e3),
        );
        result.set(
            &format!("loadgen.{label}.lat_p99_us"),
            over(&|r, _| r.latency.p99() / 1e3),
        );
        result.set(
            &format!("loadgen.{label}.achieved_share"),
            over(&|r, _| r.throughput() / r.offered_rate),
        );
        result.set(
            &format!("loadgen.{label}.eagain_per_msg"),
            over(&|r, _| per_msg(r.eagain_retries as f64, r)),
        );
        result.set(
            &format!("loadgen.{label}.cpu_us_per_msg"),
            over(&|r, cpu| per_msg(cpu * 1e6, r)),
        );
    }

    let cpu_s = cpu_seconds() - cpu_before;
    // Read before the traced pipelines add their own allocations.
    let peak_rss_mb = peak_rss_mb();

    if traced {
        trace(&p, result);
    }

    result.set("setup_s", median(&setups));
    result.set("wall_s", median(&walls));
    result.set("cpu_s", cpu_s);
    result.set("peak_rss_mb", peak_rss_mb);
    result.count("messages_offered", offered);
}

fn gate_pipeline(kind: &str, report: &MailPipelineReport, messages: usize, result: &mut RunResult) {
    let bad =
        report.lost + report.duplicates + report.corrupt + usize::from(!report.exactly_once());
    result.checks(messages as u64, (bad as u64).min(messages as u64), || {
        format!("{kind} pipeline is not exactly-once: {report:?}")
    });
}

/// The syscalls a message makes, by the name its metrics carry.
const SYSCALLS: [(&str, &[SyscallKind]); 9] = [
    ("open", &[SyscallKind::Open]),
    ("write", &[SyscallKind::Write]),
    ("close", &[SyscallKind::Close]),
    ("send", &[SyscallKind::Send]),
    ("recv", &[SyscallKind::Recv]),
    ("pread", &[SyscallKind::Pread]),
    ("spawn", &[SyscallKind::Fork, SyscallKind::PosixSpawn]),
    ("wait", &[SyscallKind::Wait]),
    ("unlink", &[SyscallKind::Unlink]),
];

/// The 1 x 1 pipeline, once plain and once observed.
fn trace(p: &Params, result: &mut RunResult) {
    let n = p.pipeline_messages;
    // Plain and observed runs alternate; the overhead is the median of the
    // pairs' ratios and the layer table comes from the last observed run.
    let mut overheads = Vec::new();
    let mut telemetry = MailTelemetry::new(2);
    for _ in 0..PIPELINE_PAIRS {
        let started = Instant::now();
        let plain = mail_pipeline(p.mode, p.mail, 1, 1, n);
        let plain_wall_s = started.elapsed().as_secs_f64();
        gate_pipeline("plain", &plain, n, result);

        telemetry = MailTelemetry::new(2);
        let started = Instant::now();
        let observed = mail_pipeline_observed(p.mode, p.mail, 1, 1, n, Some(&telemetry));
        overheads.push(started.elapsed().as_secs_f64() / plain_wall_s - 1.0);
        gate_pipeline("observed", &observed, n, result);
    }
    eprintln!("observed / plain pipeline wall - 1 over {PIPELINE_PAIRS} pairs: {overheads:.3?}");

    // The program's own stage spans, read back from its Chrome export.
    let doc =
        Json::parse(&telemetry.trace.to_chrome_json()).expect("the program's trace export parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    // Per stage, the (start, duration, lane) of its spans in record order:
    // the k-th span of a stage belongs to the k-th message through it.
    let mut by_stage: Vec<Vec<(f64, f64, u64)>> = vec![Vec::new(); MailStage::ALL.len()];
    let mut busy_by_lane = [0.0f64; 2];
    let (mut first_start_us, mut last_end_us) = (f64::INFINITY, 0.0f64);
    for event in events {
        let field = |key: &str| {
            event
                .get(key)
                .and_then(Json::as_f64)
                .expect("numeric span field")
        };
        let name = event.get("name").and_then(Json::as_str).expect("span name");
        let stage = MailStage::ALL
            .iter()
            .position(|stage| name.strip_prefix("mail.") == Some(stage.name()))
            .expect("a mail stage span");
        let (start_us, dur_us, lane) = (field("ts"), field("dur"), field("tid") as u64);
        by_stage[stage].push((start_us, dur_us, lane));
        busy_by_lane[lane as usize % 2] += dur_us;
        first_start_us = first_start_us.min(start_us);
        last_end_us = last_end_us.max(start_us + dur_us);
    }
    let per_msg = |total: f64| total / n as f64;
    let mut stage_us = 0.0;
    for (stage, spans) in MailStage::ALL.iter().zip(&by_stage) {
        result.check(spans.len() == n, || {
            format!("{} {} spans for {n} messages", spans.len(), stage.name())
        });
        let total: f64 = spans.iter().map(|(_, dur, _)| dur).sum();
        stage_us += total;
        result.set(
            &format!("kernel.mail.stage.{}.us_per_msg", stage.name()),
            per_msg(total),
        );
    }

    let recorder = &telemetry.syscalls;
    for (name, kinds) in SYSCALLS {
        let ns: u64 = kinds.iter().map(|kind| recorder.latency(*kind).sum).sum();
        let calls: u64 = kinds.iter().map(|kind| recorder.count_of(*kind)).sum();
        result.set(
            &format!("host.kernel.sys.{name}.us_per_msg"),
            per_msg(ns as f64 / 1e3),
        );
        result.set(
            &format!("host.kernel.sys.{name}.calls_per_msg"),
            per_msg(calls as f64),
        );
    }
    let recvs = recorder.count_of(SyscallKind::Recv).max(1);
    result.set(
        "host.kernel.sys.recv.eagain_share",
        recorder.errno_count(SyscallKind::Recv, Errno::EAGAIN) as f64 / recvs as f64,
    );
    result.set(
        "kernel.retry.waits_per_msg",
        per_msg(telemetry.yield_spins.total() as f64),
    );
    // `recv` polls the notification socket outside every stage; all other
    // syscalls happen inside one.
    let in_stage_syscall_us: f64 = SyscallKind::ALL
        .iter()
        .filter(|kind| **kind != SyscallKind::Recv)
        .map(|kind| recorder.latency(*kind).sum as f64 / 1e3)
        .sum();
    result.set(
        "kernel.mail.self_share",
        1.0 - in_stage_syscall_us / stage_us,
    );
    // The pipeline runs as fast as its busier side: that side's stage time
    // must account for the window from the first stage's start to the last
    // one's end (the call's own wall clock also holds building the kernel
    // and reading every mailbox back, which no message waits for).
    // `recv` is the one call the qman side makes outside its stages.
    let qman_lane = by_stage[2]
        .first()
        .map_or(1, |&(_, _, lane)| lane as usize % 2);
    busy_by_lane[qman_lane] += recorder.latency(SyscallKind::Recv).sum as f64 / 1e3;
    let busier_us = busy_by_lane[0].max(busy_by_lane[1]);
    result.set(
        "trace.closure_share",
        busier_us / (last_end_us - first_start_us),
    );
    result.set("trace.overhead_share", median(&overheads));

    let mut log = SpanLog::new();
    for message in 0..n.min(TRACE_FILE_MESSAGES) {
        let mut parent = None;
        for (stage, spans) in MailStage::ALL.iter().zip(&by_stage) {
            let Some(&(start_us, dur_us, tid)) = spans.get(message) else {
                continue;
            };
            log.push(Span {
                name: format!("kernel.mail.stage.{}", stage.name()),
                start_us,
                dur_us,
                id: message as u64,
                parent,
                tid,
            });
            parent = Some(log.spans().len() - 1);
        }
    }
    eprintln!(
        "the first {} of {n} messages go into the trace file",
        n.min(TRACE_FILE_MESSAGES)
    );
    log.write(&result.workload);
}
