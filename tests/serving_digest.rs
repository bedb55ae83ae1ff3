//! Golden digests of every serving driver under one combined policy mix.
//!
//! Each test runs one path — closed loop, open loop with and without
//! overload protection, batched, pipelined, and the single-query
//! simulator — with chaos faults (orchestrator crashes included), outage
//! episodes, a retry budget, the brownout ladder, checkpointed recovery and
//! hedging all enabled, and compares a digest of the full report against a
//! recorded value. A refactor of the serving engine that is meant to keep
//! every output bit-identical must keep every digest; a change that moves
//! a digest on purpose re-records it and says why.

use gillis::core::{
    plan_batch_schedule, DpPartitioner, ExecutionPlan, ForkJoinRuntime, PlanObjective,
};
use gillis::faas::workload::ClosedLoop;
use gillis::faas::{
    BatchPolicy, BrownoutPolicy, ChaosConfig, Micros, OutageConfig, OverloadPolicy, PipelinePolicy,
    PlatformProfile, RecoveryPolicy, ResiliencePolicy, RetryBudgetPolicy,
};
use gillis::model::{zoo, LinearModel};
use gillis::perf::{PerfModel, TransferFormat};

const SLO_MS: f64 = 1000.0;
const MASTERS: usize = 4;
const RATE_QPS: f64 = 14.0;
const QUERIES: usize = 200;
const SEED: u64 = 2024;

/// FNV-1a over the report's `Debug` text: every latency sample and every
/// counter of every family feeds the digest.
fn digest<T: std::fmt::Debug>(report: &T) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn check<T: std::fmt::Debug>(path: &str, report: &T, expected: u64) {
    let got = digest(report);
    assert_eq!(
        got, expected,
        "{path}: report digest {got:#018x} != recorded {expected:#018x}"
    );
}

fn fixture() -> (LinearModel, ExecutionPlan, PlatformProfile) {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::analytic(&platform);
    let model = zoo::vgg11();
    let plan = DpPartitioner::default()
        .with_objective(PlanObjective::PipelineBottleneck)
        .partition(&model, &perf)
        .unwrap();
    assert!(plan.groups().len() >= 2, "the mix needs stage boundaries");
    (model, plan, platform)
}

/// Every fault kind at once, orchestrator crashes included.
fn chaos() -> ChaosConfig {
    ChaosConfig {
        seed: 0x5EED_CAFE,
        invoke_failure_rate: 0.05,
        crash_rate: 0.03,
        straggler_rate: 0.05,
        straggler_slowdown: 5.0,
        corrupt_rate: 0.02,
        orchestrator_crash_rate: 0.05,
    }
}

/// The combined mix minus overload protection and recovery.
fn faulty(rt: ForkJoinRuntime<'_>) -> ForkJoinRuntime<'_> {
    rt.with_chaos(chaos())
        .unwrap()
        .with_policy(ResiliencePolicy {
            // Exhausted shards fail their group, so failed groups resume
            // from checkpoints instead of degrading locally.
            local_fallback: false,
            ..ResiliencePolicy::backoff_hedged()
        })
        .with_outage(OutageConfig {
            orchestrators: true,
            ..OutageConfig::severe(4.0, 77)
        })
        .unwrap()
        .with_retry_budget(RetryBudgetPolicy::default())
        .unwrap()
        .with_brownout(BrownoutPolicy::default())
        .unwrap()
}

/// The combined mix minus overload protection.
fn resilient(rt: ForkJoinRuntime<'_>) -> ForkJoinRuntime<'_> {
    faulty(rt)
        .with_recovery(RecoveryPolicy {
            capacity: 6,
            spec_factor: 2.0,
            ..RecoveryPolicy::default()
        })
        .unwrap()
}

fn mixed(rt: ForkJoinRuntime<'_>) -> ForkJoinRuntime<'_> {
    resilient(rt)
        .with_overload(OverloadPolicy::for_slo(SLO_MS, MASTERS))
        .unwrap()
}

/// The combined mix without checkpoints: every orchestrator crash is a
/// full restart.
fn restart_only(rt: ForkJoinRuntime<'_>) -> ForkJoinRuntime<'_> {
    faulty(rt)
        .with_overload(OverloadPolicy::for_slo(SLO_MS, MASTERS))
        .unwrap()
}

#[test]
fn closed_loop_digest() {
    let (model, plan, platform) = fixture();
    let rt = mixed(ForkJoinRuntime::new(&model, &plan, platform).unwrap());
    let report = rt
        .serve_workload(
            ClosedLoop::new(MASTERS, QUERIES, Micros::ZERO).unwrap(),
            SEED,
        )
        .unwrap();
    check("closed loop", &report, 0x95c5_39a0_ed79_d396);
}

#[test]
fn open_loop_digest() {
    let (model, plan, platform) = fixture();
    let rt = resilient(ForkJoinRuntime::new(&model, &plan, platform).unwrap());
    let report = rt
        .serve_open_loop(RATE_QPS, QUERIES, MASTERS, SEED)
        .unwrap();
    check("open loop", &report, 0x43ff_bd73_57d2_a21f);
}

#[test]
fn open_loop_with_overload_digest() {
    let (model, plan, platform) = fixture();
    let rt = mixed(ForkJoinRuntime::new(&model, &plan, platform).unwrap());
    let report = rt
        .serve_open_loop(RATE_QPS, QUERIES, MASTERS, SEED)
        .unwrap();
    check("open loop with overload", &report, 0x25ef_2db7_3dee_0399);
}

#[test]
fn open_loop_full_restart_digest() {
    let (model, plan, platform) = fixture();
    let rt = restart_only(ForkJoinRuntime::new(&model, &plan, platform).unwrap());
    let report = rt
        .serve_open_loop(RATE_QPS, QUERIES, MASTERS, SEED)
        .unwrap();
    check("open loop, full restarts", &report, 0x0ce4_7f4e_32a4_b3e0);
}

#[test]
fn batched_digest() {
    let (model, plan, platform) = fixture();
    let policy = BatchPolicy::single(SLO_MS, 4);
    let schedule = plan_batch_schedule(
        &model,
        &plan,
        &platform,
        TransferFormat::F32,
        &policy,
        RATE_QPS,
    )
    .unwrap();
    let serving = platform.with_memory_bytes(schedule.memory_bytes);
    let rt = mixed(ForkJoinRuntime::new(&model, &plan, serving).unwrap());
    let report = rt
        .serve_open_loop_batched(&policy, &schedule, RATE_QPS, QUERIES, MASTERS, SEED)
        .unwrap();
    check("batched", &report, 0x3059_f464_c43e_47bc);
}

#[test]
fn pipelined_digest() {
    let (model, plan, platform) = fixture();
    let rt = mixed(ForkJoinRuntime::new(&model, &plan, platform).unwrap());
    let report = rt
        .serve_open_loop_pipelined(
            &PipelinePolicy::with_lanes(MASTERS),
            RATE_QPS,
            QUERIES,
            MASTERS,
            SEED,
        )
        .unwrap();
    check("pipelined", &report, 0x0f35_ddef_7fef_2863);
}

#[test]
fn pipelined_full_restart_digest() {
    let (model, plan, platform) = fixture();
    let rt = restart_only(ForkJoinRuntime::new(&model, &plan, platform).unwrap());
    let report = rt
        .serve_open_loop_pipelined(
            &PipelinePolicy::with_lanes(MASTERS),
            RATE_QPS,
            QUERIES,
            MASTERS,
            SEED,
        )
        .unwrap();
    check("pipelined, full restarts", &report, 0x71e5_77c5_3ba8_da46);
}

#[test]
fn simulator_digest_at_one_and_eight_threads() {
    let (model, plan, platform) = fixture();
    let rt = resilient(ForkJoinRuntime::new(&model, &plan, platform).unwrap());
    let one = rt.simulate_many_with_threads(QUERIES, SEED, 1);
    let eight = rt.simulate_many_with_threads(QUERIES, SEED, 8);
    assert_eq!(
        digest(&one),
        digest(&eight),
        "thread count moved the report"
    );
    check("simulate_many", &one, 0x1d06_0eae_e6c5_4f6d);
}
