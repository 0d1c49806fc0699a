//! The chaos smoke gate: deterministic fault injection against the §7.3
//! mail pipeline, plus a fault-injected differential campaign.
//!
//! Every canned [`ChaosPlan`] — fault-free baseline, errno storm, delayed
//! delivery, scheduled qman crashes — runs the pipeline engine in both
//! (host mode, API family) columns and must close the extended
//! exactly-once ledger: each announced message lands exactly once in its
//! mailbox or the dead-letter box, no descriptors leak past teardown, and
//! shedding accounts for the rest of the offer. Then the TESTGEN-generated
//! open/unlink/send/recv pairs replay on racing threads *through the same
//! fault layer* and must still linearize against the simulated kernel —
//! injected transient errnos may cost retries, never results.
//!
//! All plans are fixed-seed, so a CI failure replays bit-for-bit locally.
//! The fault report lands in `CHAOS_mail.json` (override with
//! `--out <path>`; the plan seeds with `--seed <n>`).
//!
//! Exits 1 naming the broken invariant: lost, duplicated, corrupt,
//! leaked descriptors, an open ledger, or a campaign mismatch.

use scalable_commutativity::chaos::plan::ChaosPlan;
use scalable_commutativity::host::workloads::MailTelemetry;
use scalable_commutativity::host::{
    differential_campaign, run_pipeline, saturating_schedule, CampaignConfig, ChaosReplayer,
    HostKernel, HostMode, PipelineConfig,
};
use scalable_commutativity::kernel::mail::{MailConfig, MailTopology};
use scalable_commutativity::model::CallKind;
use scalable_commutativity::obs::{arg_value, Json, RunMeta};

fn main() {
    let out = arg_value("out").unwrap_or_else(|| "CHAOS_mail.json".to_string());
    let seed: u64 = arg_value("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0_5EED);

    let plans = [
        ("fault-free", ChaosPlan::none()),
        ("errno-storm", ChaosPlan::errno_storm(seed)),
        ("delayed-delivery", ChaosPlan::delayed_delivery(seed ^ 1)),
        ("qman-crash", ChaosPlan::qman_crash(seed ^ 2)),
    ];
    let modes = [
        (HostMode::Sv6, MailConfig::CommutativeApis, "sv6-host"),
        (HostMode::Linuxlike, MailConfig::RegularApis, "linux-host"),
    ];
    println!(
        "chaos mail pipeline: {} plan(s) x {} mode column(s), seed {seed:#x}",
        plans.len(),
        modes.len()
    );
    println!(
        "  {:<18} {:<12} {:>5} {:>5} {:>5} {:>5} {:>7} {:>7} {:>8}  verdict",
        "plan", "mode", "deliv", "dead", "crash", "redrv", "faults", "delays", "leakedfd"
    );

    let mut reasons: Vec<&str> = Vec::new();
    let mut note = |cond: bool, reason: &'static str| {
        if cond && !reasons.contains(&reason) {
            reasons.push(reason);
        }
    };
    let mut run_json: Vec<Json> = Vec::new();
    for (plan_name, plan) in &plans {
        for (mode, mail, mode_label) in modes {
            // 2 x 2, 25 messages per enqueuer. The crash plan gets one qman
            // slot: every shard drains through slot 0, so the scheduled
            // deaths of its first three incarnations all fire regardless
            // of shard hashing.
            let (qmans, per_enqueuer) = if *plan_name == "qman-crash" {
                (1, 30)
            } else {
                (2, 25)
            };
            let cfg = PipelineConfig {
                plan: plan.clone(),
                ..PipelineConfig::new(mail, MailTopology::new(2, qmans))
            };
            let kernel = HostKernel::new(cfg.cores(), mode);
            let telemetry = MailTelemetry::new(cfg.cores());
            let schedule = saturating_schedule(2, 2 * per_enqueuer);
            let report = run_pipeline(&kernel, &cfg, &schedule, Some(&telemetry), |_, _, _| {});
            let ok = report.accounted();
            println!(
                "  {:<18} {:<12} {:>5} {:>5} {:>5} {:>5} {:>7} {:>7} {:>8}  {}",
                plan_name,
                mode_label,
                report.delivered,
                report.dead_lettered,
                report.crashes,
                report.redriven,
                report.injected_faults,
                report.delayed_polls,
                report.leaked_fds,
                if ok { "ok" } else { "FAIL" },
            );
            note(report.lost > 0, "lost");
            note(report.duplicates > 0, "duplicated");
            note(report.corrupt > 0, "corrupt");
            note(report.leaked_fds > 0, "leaked descriptors");
            note(!ok, "ledger does not balance");
            run_json.push(Json::obj(vec![
                ("plan", (*plan_name).into()),
                ("mode", mode_label.into()),
                ("offered", report.offered.into()),
                ("enqueued", report.enqueued.into()),
                ("delivered", report.delivered.into()),
                ("dead_lettered", report.dead_lettered.into()),
                ("shed", report.shed.into()),
                ("lost", report.lost.into()),
                ("duplicates", report.duplicates.into()),
                ("corrupt", report.corrupt.into()),
                ("crashes", report.crashes.into()),
                ("restarts", report.restarts.into()),
                ("redriven", report.redriven.into()),
                ("orphans_reaped", report.orphans_reaped.into()),
                ("injected_faults", report.injected_faults.into()),
                ("delayed_polls", report.delayed_polls.into()),
                (
                    "chaos_retries",
                    telemetry.registry.counter("chaos.retries").total().into(),
                ),
                (
                    "backoff_sleeps",
                    telemetry
                        .registry
                        .histogram("chaos.backoff_sleep_ns")
                        .merged()
                        .count
                        .into(),
                ),
                ("leaked_fds", report.leaked_fds.into()),
                ("accounted", Json::Bool(ok)),
            ]));
        }
    }

    // The fault-injected differential campaign: the four faultable kinds
    // (open in the fs pairs, send/recv in the socket pairs, spawn in the
    // replay scaffolding) under a storm, cross-checked against the
    // simulated kernel.
    println!("\nchaos differential campaign (open/unlink/send/recv under an errno storm):");
    let config = CampaignConfig {
        schedules_per_test: 2,
        max_tests: 18,
        ..CampaignConfig::new(&[
            CallKind::Open,
            CallKind::Unlink,
            CallKind::Send,
            CallKind::Recv,
        ])
    };
    let replayer = ChaosReplayer {
        cores: 4,
        plan: ChaosPlan::errno_storm(seed ^ 3),
    };
    let campaign = differential_campaign(&config, &replayer, None);
    println!(
        "  {} tests, {} racing replays: {}",
        campaign.tests_run,
        campaign.replays_run,
        if campaign.all_agree() {
            "every result linearizes".to_string()
        } else {
            campaign.describe_mismatches()
        }
    );
    note(!campaign.all_agree(), "campaign mismatch");

    let meta = RunMeta::capture(
        "chaos_mail",
        "sv6+linuxlike",
        5,
        &format!(
            "{} plans x {} modes, campaign {} tests x {} schedules, seed {seed:#x}",
            plans.len(),
            modes.len(),
            campaign.tests_run,
            config.schedules_per_test
        ),
    );
    let doc = Json::obj(vec![
        ("meta", meta.to_json()),
        ("runs", Json::Arr(run_json)),
        (
            "campaign",
            Json::obj(vec![
                ("tests_run", campaign.tests_run.into()),
                ("replays_run", campaign.replays_run.into()),
                ("mismatches", campaign.mismatches.len().into()),
            ]),
        ),
    ])
    .render();
    std::fs::write(&out, doc).expect("write chaos json");
    println!("\nwrote fault report to {out}");

    if !reasons.is_empty() {
        eprintln!("chaos_mail: FAILED ({})", reasons.join(" + "));
        std::process::exit(1);
    }
    println!("chaos_mail: OK");
}
