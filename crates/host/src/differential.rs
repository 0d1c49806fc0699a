//! The differential runner: TESTGEN's concrete tests replayed on real
//! threads.
//!
//! The commutativity rule's empirical leg rests on the claim that the
//! simulated kernels faithfully represent what a real implementation would
//! do. This module checks exactly that: every generated test's setup is
//! replayed on a [`HostKernel`], the two commutative operations run
//! concurrently on two real OS threads ([`race`], so they genuinely race),
//! and every observable result is compared against the simulated
//! `Sv6Kernel`'s. Because the operations *commute*, their results must be
//! independent of how the threads interleave — so the host's results must
//! equal the simulated kernel's for some sequential order of the pair,
//! whatever schedule the hardware picks (pairs that commute only up to
//! fungible values, such as two spawns racing for the next pid, may match
//! B-then-A). The host Figure 6 ([`crate::fig6`]) applies the same
//! linearisation check, and datagram conservation, to every traced test.
//!
//! [`differential_campaign`] is the one campaign: a consumer of the
//! COMMUTER sweep engine (`scr_core::run_sweep`) that pools each pair's
//! tests, spends a seeded replay budget across the pairs, and replays the
//! selection through any [`ConcreteReplayer`] — the plain [`HostReplayer`],
//! or the [`ChaosReplayer`]'s fault-injecting stack.
//!
//! [`HostKernel`]: crate::kernel::HostKernel

use crate::harness::race;
use crate::kernel::{host_kernel, HostMode};
use scr_chaos::kernel::{FaultyKernel, ReliableKernel};
use scr_chaos::plan::ChaosPlan;
use scr_core::pipeline::CommuterConfig;
use scr_core::{
    run_sweep, run_test_order, ConcreteReplayer, ConcreteTest, DifferentialOutcome, SkipHistogram,
    Sv6Factory, SweepEvent, Swept,
};
use scr_kernel::api::SysResult;
use scr_kernel::retry::{mix64, RetryPolicy, GOLDEN};
use scr_model::CallKind;
use scr_obs::EventLog;

/// Replays generated tests on a fresh
/// [`HostKernel`](crate::kernel::HostKernel) per test, running the
/// commutative pair on two real threads.
#[derive(Clone, Copy, Debug)]
pub struct HostReplayer {
    /// Cores (thread slots) each fresh kernel is configured with.
    pub cores: usize,
}

impl Default for HostReplayer {
    fn default() -> Self {
        HostReplayer { cores: 4 }
    }
}

impl ConcreteReplayer for HostReplayer {
    fn name(&self) -> &'static str {
        "host-sv6"
    }

    fn replay(&self, test: &ConcreteTest) -> (SysResult, SysResult) {
        let kernel = host_kernel(self.cores.max(2), HostMode::Sv6);
        let [a, b] = race(
            &kernel,
            test.procs,
            &test.setup,
            [&test.op_a, &test.op_b],
            true,
            || {},
        );
        (a, b)
    }
}

/// Replays a generated triple test on a fresh host kernel: the setup runs
/// sequentially, then the three operations race on three real OS threads
/// released by one barrier. Returns the per-call results (`results[i]`
/// belongs to `ops[i]` whatever interleaving the hardware picked).
pub fn replay_triple_host(test: &scr_core::ConcreteTripleTest, cores: usize) -> [SysResult; 3] {
    let kernel = host_kernel(cores.max(3), HostMode::Sv6);
    race(
        &kernel,
        test.procs,
        &test.setup,
        test.ops.each_ref(),
        true,
        || {},
    )
}

/// Checks a racing host replay against the simulated kernel: the result
/// triple must match at least one of the six sequential linearisations.
/// For a SIM-commutative triple all six orders agree, so any scheduling
/// the hardware picks must reproduce exactly that result vector — a
/// mismatch is a genuine host↔model divergence, not a benign reordering.
pub fn triple_linearizes(test: &scr_core::ConcreteTripleTest, host: &[SysResult; 3]) -> bool {
    let factory = Sv6Factory { cores: 3 };
    scr_core::TRIPLE_ORDERS
        .iter()
        .any(|&order| scr_core::run_triple_order(&factory, test, order).results == *host)
}

/// A [`HostReplayer`] with a fault-injecting kernel stack: every test's
/// setup and racing pair run through `ReliableKernel → FaultyKernel →
/// HostKernel`, with a *never-give-up* retry policy. Because injected
/// failures have no side effects and the reliable layer retries exactly
/// them, the stack is observationally the raw host kernel — so replays
/// under an errno storm must still linearize against the simulated
/// kernel's two sequential orders. A mismatch means an injected fault
/// leaked through the retry contract (or a genuine divergence).
#[derive(Clone, Debug)]
pub struct ChaosReplayer {
    /// Cores (thread slots) each fresh kernel is configured with.
    pub cores: usize,
    /// The fault plan each replay runs under (crash schedules are
    /// meaningless here — there are no qmans to kill — but errno and
    /// delay injection apply to every faultable call the test makes).
    pub plan: ChaosPlan,
}

impl ConcreteReplayer for ChaosReplayer {
    fn name(&self) -> &'static str {
        "host-sv6-chaos"
    }

    fn replay(&self, test: &ConcreteTest) -> (SysResult, SysResult) {
        let cores = self.cores.max(2);
        let kernel = host_kernel(cores, HostMode::Sv6);
        let faulty = FaultyKernel::new(&kernel, self.plan.clone(), cores);
        let reliable = ReliableKernel::new(&faulty, RetryPolicy::spin().with_seed(self.plan.seed));
        let [a, b] = race(
            &reliable,
            test.procs,
            &test.setup,
            [&test.op_a, &test.op_b],
            true,
            || {},
        );
        (a, b)
    }
}

/// Per-call-pair accounting of one campaign, proving the test budget was
/// spread across every pair instead of exhausted by the first few.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// The (unordered) call pair.
    pub calls: (CallKind, CallKind),
    /// Tests TESTGEN materialised for the pair.
    pub generated: usize,
    /// Tests of the pair the budget actually replayed.
    pub replayed: usize,
    /// Representatives TESTGEN could not materialise for the pair.
    pub skipped: usize,
}

/// Aggregated result of a differential campaign.
#[derive(Clone, Debug, Default)]
pub struct DifferentialReport {
    /// Number of distinct tests replayed.
    pub tests_run: usize,
    /// Total replays, counting every schedule repetition.
    pub replays_run: usize,
    /// Tests whose simulated and host results disagreed (first disagreeing
    /// schedule per test).
    pub mismatches: Vec<DifferentialOutcome>,
    /// Per-pair budget accounting, in pair order.
    pub pairs: Vec<PairOutcome>,
    /// Aggregated TESTGEN skip reasons across every pair — coverage the
    /// oracle could not check, by cause.
    pub skip_reasons: SkipHistogram,
}

impl DifferentialReport {
    /// Did every test agree?
    pub fn all_agree(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// One line per mismatch, for diagnostics.
    pub fn describe_mismatches(&self) -> String {
        self.mismatches
            .iter()
            .map(|m| {
                format!(
                    "{}: simulated {:?} vs host {:?}",
                    m.test_id, m.simulated, m.replayed
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Knobs of a differential campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Calls whose unordered pairs the campaign sweeps.
    pub calls: Vec<CallKind>,
    /// Total budget of distinct tests to replay, spread round-robin across
    /// the pairs so no pair is starved by earlier ones.
    pub max_tests: usize,
    /// Satisfying assignments enumerated per commutative case before
    /// isomorphism deduplication (the campaign default is higher than the
    /// quick pipeline's, widening the representative pool).
    pub max_assignments_per_case: usize,
    /// How many times each test races on real threads. Commutative results
    /// must be schedule-independent, so every repetition must agree with
    /// the simulated kernel bit-for-bit.
    pub schedules_per_test: usize,
    /// Seed for the deterministic shuffle that picks which of a pair's
    /// tests the budget covers.
    pub seed: u64,
    /// Workers claiming (pair, shape) generation units: `1` sequential,
    /// `N > 1` that many workers, `0` one per hardware thread. Pools are
    /// aggregated in pair order, so the selected corpus (and every
    /// per-pair shuffle seed) is byte-identical for every value.
    pub threads: usize,
}

impl CampaignConfig {
    /// The full-strength campaign over the given calls.
    pub fn new(calls: &[CallKind]) -> Self {
        CampaignConfig {
            calls: calls.to_vec(),
            max_tests: 256,
            max_assignments_per_case: 96,
            schedules_per_test: 3,
            seed: 0x5ca1ab1e,
            threads: 1,
        }
    }

    /// A bounded variant: single schedule, quick-pipeline assignment limit.
    pub fn quick(calls: &[CallKind], max_tests: usize) -> Self {
        CampaignConfig {
            max_tests,
            max_assignments_per_case: CommuterConfig::quick(calls).max_assignments_per_case,
            schedules_per_test: 1,
            ..CampaignConfig::new(calls)
        }
    }
}

/// Fisher–Yates, drawing from SplitMix64 outputs of `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let stream = mix64(seed);
    for i in (1..items.len()).rev() {
        let j = mix64(stream ^ i as u64) % (i as u64 + 1);
        items.swap(i, j as usize);
    }
}

/// Runs a seeded differential campaign through `replayer`: pools the tests
/// of every unordered pair of `config.calls` from the sweep engine, spreads
/// the replay budget round-robin across the pairs (shuffling each pool
/// deterministically), and replays every selected test
/// `schedules_per_test` times, comparing each replay against the simulated
/// kernel's results. Pass a [`HostReplayer`] for the plain host kernel, or
/// a [`ChaosReplayer`] to replay through the fault layer: since its retry
/// stack is observationally the raw kernel, every replay must still
/// linearize, which asserts the retry contract end to end.
///
/// With `events`, the campaign narrates itself: one `pair-pool` event per
/// call pair (corpus size, skips and the per-pair shuffle seed), one
/// `mismatch` event per disagreement (test id plus both results), and a
/// final `campaign-done` event carrying the seed and budget. A failed run
/// is reproducible from the exported event stream alone — the seed and
/// config knobs are all in it.
pub fn differential_campaign(
    config: &CampaignConfig,
    replayer: &dyn ConcreteReplayer,
    events: Option<&EventLog>,
) -> DifferentialReport {
    let sweep = CommuterConfig {
        max_assignments_per_case: config.max_assignments_per_case,
        threads: config.threads,
        ..CommuterConfig::quick(&config.calls)
    };
    let mut report = DifferentialReport::default();

    // Phase 1: pool each pair's tests. Every pair's corpus is generated in
    // full even when `max_tests` would cover only a fraction — deliberately:
    // the skip-reason histogram (which the CI baseline gates on) and the
    // seeded sampling are only meaningful over the complete pool. Each
    // pair's shuffle seed derives from its index, and the engine hands
    // pairs over in pair order, so the pools are byte-identical at every
    // worker count.
    let mut pools: Vec<Vec<ConcreteTest>> = Vec::new();
    let mut pending: Vec<ConcreteTest> = Vec::new();
    run_sweep(
        &sweep,
        |_| (),
        |swept| match swept {
            Swept::Unit(unit) => pending.extend(unit.tests),
            Swept::Event(SweepEvent::PairDone {
                index,
                timing,
                skip_delta,
                ..
            }) => {
                for (reason, count) in skip_delta {
                    *report.skip_reasons.entry(reason).or_default() += count;
                }
                let mut pool = std::mem::take(&mut pending);
                let pair_seed = config
                    .seed
                    .wrapping_add((index as u64).wrapping_mul(GOLDEN));
                shuffle(&mut pool, pair_seed);
                if let Some(events) = events {
                    events.emit_kv(
                        "pair-pool",
                        vec![
                            ("call_a", timing.calls.0.name().into()),
                            ("call_b", timing.calls.1.name().into()),
                            ("generated", pool.len().into()),
                            ("skipped", timing.skipped.into()),
                            ("pair_seed", pair_seed.into()),
                        ],
                    );
                }
                report.pairs.push(PairOutcome {
                    calls: timing.calls,
                    generated: pool.len(),
                    replayed: 0,
                    skipped: timing.skipped,
                });
                pools.push(pool);
            }
            Swept::Event(SweepEvent::PairStarted { .. }) => {}
        },
    );

    // Phase 2: spread the budget round-robin across the pairs.
    let mut selected: Vec<(usize, &ConcreteTest)> = Vec::new();
    'budget: for round in 0.. {
        let mut progressed = false;
        for (idx, pool) in pools.iter().enumerate() {
            if selected.len() >= config.max_tests {
                break 'budget;
            }
            if let Some(test) = pool.get(round) {
                selected.push((idx, test));
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Phase 3: replay each selected test under several schedules.
    let factory = Sv6Factory { cores: 4 };
    for (idx, test) in selected {
        // Both sequential orders define the legal outcomes: a racing replay
        // of a commutative pair must linearise to one of them (see
        // `DifferentialOutcome::agree`).
        let simulated = run_test_order(&factory, test, true).results;
        let simulated_ba = run_test_order(&factory, test, false).results;
        report.tests_run += 1;
        report.pairs[idx].replayed += 1;
        for _ in 0..config.schedules_per_test.max(1) {
            let replayed = replayer.replay(test);
            report.replays_run += 1;
            if replayed != simulated && replayed != simulated_ba {
                if let Some(events) = events {
                    events.emit_kv(
                        "mismatch",
                        vec![
                            ("test_id", test.id.as_str().into()),
                            ("simulated", format!("{simulated:?}").into()),
                            ("replayed", format!("{replayed:?}").into()),
                        ],
                    );
                }
                report.mismatches.push(DifferentialOutcome {
                    test_id: test.id.clone(),
                    simulated: simulated.clone(),
                    simulated_ba: simulated_ba.clone(),
                    replayed,
                });
                break;
            }
        }
    }
    if let Some(events) = events {
        events.emit_kv(
            "campaign-done",
            vec![
                ("seed", config.seed.into()),
                ("max_tests", config.max_tests.into()),
                ("schedules_per_test", config.schedules_per_test.into()),
                (
                    "max_assignments_per_case",
                    config.max_assignments_per_case.into(),
                ),
                ("tests_run", report.tests_run.into()),
                ("replays_run", report.replays_run.into()),
                ("mismatches", report.mismatches.len().into()),
            ],
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_core::differential_check;
    use scr_kernel::api::{OpenFlags, SysOp};
    use scr_obs::Json;

    fn chaos(plan: ChaosPlan) -> ChaosReplayer {
        ChaosReplayer { cores: 4, plan }
    }

    #[test]
    fn manual_commutative_pair_agrees() {
        let test = ConcreteTest {
            id: "manual_create_different".into(),
            calls: (CallKind::Open, CallKind::Open),
            setup: vec![],
            op_a: SysOp::Open {
                pid: 0,
                name: "alpha".into(),
                flags: OpenFlags::create(),
            },
            op_b: SysOp::Open {
                pid: 1,
                name: "bravo".into(),
                flags: OpenFlags::create(),
            },
            procs: 2,
        };
        let outcomes = differential_check(
            &Sv6Factory { cores: 4 },
            &HostReplayer::default(),
            std::slice::from_ref(&test),
        );
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].agree(), "{:?}", outcomes[0]);
    }

    #[test]
    fn stat_unlink_sample_has_no_mismatches() {
        let report = differential_campaign(
            &CampaignConfig::quick(&[CallKind::Stat, CallKind::Unlink], 24),
            &HostReplayer::default(),
            None,
        );
        assert!(report.tests_run > 0);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
    }

    #[test]
    fn campaign_budget_is_spread_round_robin_across_pairs() {
        // Three calls → six unordered pairs. With a budget far below the
        // total generated corpus, every pair that has tests must still get
        // replays (the old `break 'outer` filled the budget entirely from
        // the first pairs).
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 18,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink, CallKind::Link])
        };
        let report = differential_campaign(&config, &HostReplayer::default(), None);
        assert_eq!(report.tests_run, 18);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
        for pair in &report.pairs {
            assert!(
                pair.generated == 0 || pair.replayed > 0,
                "pair {:?} generated {} tests but replayed none",
                pair.calls,
                pair.generated
            );
        }
        // The budget must not be exhausted by one pair.
        let max_per_pair = report.pairs.iter().map(|p| p.replayed).max().unwrap();
        assert!(max_per_pair < 18);
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 10,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink])
        };
        let a = differential_campaign(&config, &HostReplayer::default(), None);
        let b = differential_campaign(&config, &HostReplayer::default(), None);
        assert_eq!(a.tests_run, b.tests_run);
        assert_eq!(
            a.pairs.iter().map(|p| p.replayed).collect::<Vec<_>>(),
            b.pairs.iter().map(|p| p.replayed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_pool_generation_selects_the_same_corpus() {
        // Per-pair shuffle seeds are derived from pool order, so a
        // multi-worker phase 1 must yield the exact pools — and therefore
        // the exact budget selection — of a sequential run.
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 12,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink, CallKind::Link])
        };
        let sequential = differential_campaign(&config, &HostReplayer::default(), None);
        let parallel = differential_campaign(
            &CampaignConfig {
                threads: 3,
                ..config
            },
            &HostReplayer::default(),
            None,
        );
        assert_eq!(sequential.tests_run, parallel.tests_run);
        assert_eq!(sequential.skip_reasons, parallel.skip_reasons);
        for (s, p) in sequential.pairs.iter().zip(&parallel.pairs) {
            assert_eq!(s.calls, p.calls);
            assert_eq!(s.generated, p.generated);
            assert_eq!(s.replayed, p.replayed);
            assert_eq!(s.skipped, p.skipped);
        }
        assert!(parallel.all_agree(), "{}", parallel.describe_mismatches());
    }

    #[test]
    fn observed_campaign_narrates_pools_and_summary() {
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 8,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink])
        };
        let events = EventLog::new();
        let report = differential_campaign(&config, &HostReplayer::default(), Some(&events));
        assert!(report.all_agree(), "{}", report.describe_mismatches());
        // Two calls → three unordered pairs, one pool event each.
        assert_eq!(events.of_kind("pair-pool").len(), 3);
        let done = events.of_kind("campaign-done");
        assert_eq!(done.len(), 1);
        let seed = done[0]
            .fields
            .iter()
            .find(|(k, _)| k == "seed")
            .map(|(_, v)| v.clone());
        assert_eq!(seed, Some(Json::U64(config.seed)));
    }

    #[test]
    fn chaos_campaign_linearizes_under_an_errno_storm() {
        // Covers all four fault kinds: open faults in the fs pairs, send
        // and recv faults in the socket pairs.
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
        let report = differential_campaign(&config, &chaos(ChaosPlan::errno_storm(29)), None);
        assert!(report.tests_run > 0);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
    }

    #[test]
    fn chaos_campaign_linearizes_under_delivery_delay() {
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 10,
            ..CampaignConfig::new(&[CallKind::Send, CallKind::Recv])
        };
        let report = differential_campaign(&config, &chaos(ChaosPlan::delayed_delivery(31)), None);
        assert!(report.tests_run > 0);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
    }

    #[test]
    fn chaos_replayer_with_disabled_plan_matches_host_replayer() {
        let config = CampaignConfig {
            schedules_per_test: 1,
            max_tests: 8,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink])
        };
        let plain = differential_campaign(&config, &HostReplayer::default(), None);
        let faulty = differential_campaign(&config, &chaos(ChaosPlan::none()), None);
        assert!(plain.all_agree() && faulty.all_agree());
        assert_eq!(plain.tests_run, faulty.tests_run);
        assert_eq!(plain.replays_run, faulty.replays_run);
    }

    #[test]
    fn campaign_replays_each_test_under_every_schedule() {
        let config = CampaignConfig {
            schedules_per_test: 3,
            max_tests: 6,
            ..CampaignConfig::new(&[CallKind::Stat, CallKind::Unlink])
        };
        let report = differential_campaign(&config, &HostReplayer::default(), None);
        assert!(report.all_agree(), "{}", report.describe_mismatches());
        assert_eq!(report.replays_run, report.tests_run * 3);
    }

    #[test]
    fn generated_triples_linearize_on_real_threads() {
        use scr_core::{
            analyze_triple, enumerate_triple_shapes, generate_triple_tests, triple_config,
        };
        let cfg = triple_config();
        let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
        let shapes =
            enumerate_triple_shapes((CallKind::Lseek, CallKind::Read, CallKind::Write), &cfg);
        let same_fd = shapes
            .iter()
            .find(|s| s.slots.iter().all(|sl| sl.fds == vec![0]))
            .expect("all-same-descriptor shape");
        let analysis = analyze_triple(same_fd, &cfg);
        let generated = generate_triple_tests(same_fd, &analysis.cases, &cfg, &names, 2);
        assert!(!generated.tests.is_empty(), "triple corpus must exist");
        for test in generated.tests.iter().take(8) {
            let host = replay_triple_host(test, 4);
            assert!(
                triple_linearizes(test, &host),
                "host triple replay of {} matches no sequential order: {host:?}",
                test.id
            );
        }
    }
}
