//! Modelled serving: the DES (virtual-time) phases every workload reports,
//! and the `serve-*` workloads that time the simulator itself.
//!
//! One *pass* is a fixed schedule of open-loop DES calls: the low rate,
//! the high rate, then every rung of the rate ladder. The `model.*`
//! metrics come from the first pass only, so they are a pure function of
//! the seed. Later passes repeat the same calls with the same seeds and
//! must reproduce the first pass bit for bit.

use std::sync::Arc;
use std::time::Instant;

use gillis::core::{
    predict_plan_cached, ChaosConfig, DpPartitioner, EvalCache, OverloadPolicy, PipelinePolicy,
    PlanObjective, RecoveryPolicy, ResiliencePolicy, RetryBudgetPolicy, ServingReport,
};
use gillis::faas::PlatformProfile;
use gillis::model::{zoo, LinearModel};
use gillis::perf::PerfModel;
use gillis::rl::{slo_aware_partition, SloAwareConfig};
use gillis::serving::{Deployment, Gillis, Mode};

use crate::report::{self, median, ratio, Outcome, Phase, Values};
use crate::trace::Tracer;
use crate::{repeat_setup, seed_for, Args};

/// Serving SLO: the per-query deadline, and the latency a query must beat
/// to count as good.
pub const SLO_MS: f64 = 1000.0;
/// Mean-latency target the SLO-aware planner trains against; half the
/// serving SLO leaves room for queueing and injected faults.
pub const PLAN_MEAN_SLO_MS: f64 = 400.0;
/// Concurrent masters (fork-join) or lanes per stage (pipelined).
pub const MASTERS: usize = 4;
/// Profiling and planner training seed. Fixed, so every `--seed` serves
/// the same plan and only inputs, arrivals and faults vary.
pub const PLAN_SEED: u64 = 42;
/// Low and high arrival rates (queries per simulated second): about 0.5x
/// and 2x the fork-join saturation of the SLO-aware VGG-11 plan (4 masters
/// over a ~380 ms plan, ~10.5 qps).
pub const LOW_QPS: f64 = 5.0;
pub const HIGH_QPS: f64 = 20.0;
/// Rate ladder for `model.max_qps_at_slo`: 3 to 34.4 qps in steps of 5%.
pub const LADDER_START_QPS: f64 = 3.0;
pub const LADDER_STEP: f64 = 1.05;
pub const LADDER_RUNGS: usize = 51;
/// Arrivals per DES call; the low and high rates take ten calls each. Small
/// calls keep a pass short (about a second on the pipelined driver), so
/// each call is repeated many times in a run and its fastest repetition
/// misses fewer of the host's slow spells.
pub const CALL_ARRIVALS: usize = 1_000;
pub const RATE_CALLS: u64 = 10;
/// Share of arrivals that must finish ok within the SLO on a ladder rung.
pub const GOOD_SHARE: f64 = 0.99;

/// The fixed low fault mix every DES call runs under.
pub fn fault_mix(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        invoke_failure_rate: 0.01,
        crash_rate: 0.005,
        straggler_rate: 0.01,
        straggler_slowdown: 4.0,
        corrupt_rate: 0.002,
        orchestrator_crash_rate: 0.005,
    }
}

/// Which open-loop driver serves the arrivals.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    ForkJoin,
    Pipelined,
}

/// A deployment builder with the serving policies every DES call uses:
/// overload protection from the SLO, the fault mix, retries with backoff
/// and hedging, a retry budget, and checkpointed recovery.
pub fn serving_builder(model: LinearModel, mode: Mode, driver: Driver, fault_seed: u64) -> Gillis {
    let g = Gillis::new(model)
        .platform(PlatformProfile::aws_lambda())
        .mode(mode)
        .seed(PLAN_SEED)
        .overload(OverloadPolicy::for_slo(SLO_MS, MASTERS))
        .chaos(fault_mix(fault_seed))
        .resilience(ResiliencePolicy::backoff_hedged())
        .retry_budget(RetryBudgetPolicy::default())
        .recovery(RecoveryPolicy::default());
    match driver {
        Driver::ForkJoin => g,
        Driver::Pipelined => g.pipeline(PipelinePolicy::with_lanes(MASTERS)),
    }
}

fn ladder() -> impl Iterator<Item = f64> {
    (0..LADDER_RUNGS).map(|i| LADDER_START_QPS * LADDER_STEP.powi(i as i32))
}

/// One scheduled DES call.
struct Call {
    phase: &'static str,
    rate: f64,
    seed: u64,
}

fn schedule(arrival_seed: u64) -> Vec<Call> {
    let mut calls = Vec::new();
    for (phase, rate) in [("low", LOW_QPS), ("high", HIGH_QPS)] {
        for _ in 0..RATE_CALLS {
            calls.push(Call {
                phase,
                rate,
                seed: 0,
            });
        }
    }
    calls.extend(ladder().map(|rate| Call {
        phase: "ladder",
        rate,
        seed: 0,
    }));
    for (i, c) in calls.iter_mut().enumerate() {
        c.seed = seed_for(arrival_seed, i as u64);
    }
    calls
}

/// Arrivals of a report that finished ok (or degraded, which still returns
/// the exact result) within the SLO.
fn good(r: &ServingReport) -> u64 {
    [&r.by_status.ok, &r.by_status.degraded]
        .iter()
        .map(|s| s.samples().iter().filter(|&&ms| ms <= SLO_MS).count() as u64)
        .sum()
}

/// Arrivals of a report, and those that finished ok or degraded (which
/// still returns the exact result).
fn sent_ok(r: &ServingReport) -> (u64, u64) {
    let c = &r.resilience;
    let ok = c.ok_queries + c.degraded_queries;
    (
        ok + c.failed_queries + c.shed_queries + c.deadline_exceeded_queries,
        ok,
    )
}

/// Every arrival ends in exactly one terminal status.
fn check_accounting(r: &ServingReport, arrivals: u64) -> Result<(), String> {
    let (sent, _) = sent_ok(r);
    if sent != arrivals {
        let c = &r.resilience;
        return Err(format!(
            "accounting: ok {} + degraded {} + failed {} + shed {} + deadline {} = {sent} != {arrivals} arrivals",
            c.ok_queries,
            c.degraded_queries,
            c.failed_queries,
            c.shed_queries,
            c.deadline_exceeded_queries
        ));
    }
    Ok(())
}

/// The bits a repeated pass must reproduce.
fn fingerprint(r: &ServingReport) -> Vec<u64> {
    let c = &r.resilience;
    vec![
        c.ok_queries,
        c.degraded_queries,
        c.failed_queries,
        c.shed_queries,
        c.deadline_exceeded_queries,
        c.worker_invocations,
        c.hedges,
        r.billing.billed_ms_total(),
        r.cold_starts,
        r.latency.samples().iter().sum::<f64>().to_bits(),
    ]
}

/// Result of one pass.
pub struct Pass {
    low: ServingReport,
    high: ServingReport,
    ladder: ServingReport,
    /// (rate, good arrivals) per ladder rung.
    rungs: Vec<(f64, u64)>,
    total: ServingReport,
    fingerprint: Vec<Vec<u64>>,
    /// Wall time of each call, in schedule order.
    call_ms: Vec<f64>,
    pub arrivals: u64,
    pub wall_s: f64,
}

fn fold(acc: &mut Option<ServingReport>, r: &ServingReport) {
    match acc {
        Some(a) => a.absorb(r),
        None => *acc = Some(r.clone()),
    }
}

/// Runs one pass on `d`.
pub fn run_pass(
    d: &Deployment,
    driver: Driver,
    arrival_seed: u64,
    tracer: &mut Tracer,
    req: u64,
) -> Result<Pass, String> {
    let (mut low, mut high, mut ladder, mut total) = (None, None, None, None);
    let mut rungs = Vec::new();
    let mut fingerprints = Vec::new();
    let mut call_ms = Vec::new();
    let calls = schedule(arrival_seed);
    let arrivals = (CALL_ARRIVALS * calls.len()) as u64;
    let pass_start = Instant::now();
    for call in calls {
        let name = format!("{} {:.2} qps", call.phase, call.rate);
        let start = Instant::now();
        let report = tracer
            .span("des.call", &name, req, |_| match driver {
                Driver::ForkJoin => d.serve_open_loop(call.rate, CALL_ARRIVALS, MASTERS, call.seed),
                Driver::Pipelined => {
                    d.serve_open_loop_pipelined(call.rate, CALL_ARRIVALS, MASTERS, call.seed)
                }
            })
            .map_err(|e| format!("{name}: {e}"))?;
        call_ms.push(start.elapsed().as_secs_f64() * 1e3);
        check_accounting(&report, CALL_ARRIVALS as u64).map_err(|e| format!("{name}: {e}"))?;
        fingerprints.push(fingerprint(&report));
        match call.phase {
            "low" => fold(&mut low, &report),
            "high" => fold(&mut high, &report),
            _ => {
                rungs.push((call.rate, good(&report)));
                fold(&mut ladder, &report);
            }
        }
        fold(&mut total, &report);
    }
    let wall_s = pass_start.elapsed().as_secs_f64();
    let some = |r: Option<ServingReport>| r.expect("the schedule calls every phase");
    Ok(Pass {
        low: some(low),
        high: some(high),
        ladder: some(ladder),
        rungs,
        total: some(total),
        fingerprint: fingerprints,
        call_ms,
        arrivals,
        wall_s,
    })
}

impl Pass {
    /// The same calls, reproduced bit for bit.
    pub fn matches(&self, other: &Pass) -> bool {
        self.fingerprint == other.fingerprint
    }

    /// The `model.*` metrics.
    pub fn model_metrics(&self, v: &mut Values) {
        let low_good = good(&self.low) as f64;
        let high_sent = (RATE_CALLS * CALL_ARRIVALS as u64) as f64;
        v.insert("model.p50_ms", self.low.latency.percentile(50.0));
        v.insert("model.p99_ms", self.low.latency.percentile(99.0));
        v.insert(
            "model.goodput_qps",
            HIGH_QPS * good(&self.high) as f64 / high_sent,
        );
        let max_ok = self
            .rungs
            .iter()
            .filter(|(_, good)| *good as f64 >= GOOD_SHARE * CALL_ARRIVALS as f64)
            .map(|(rate, _)| *rate)
            .fold(0.0, f64::max);
        v.insert("model.max_qps_at_slo", max_ok);
        v.insert(
            "model.usd_per_kq",
            ratio(self.low.billing.usd_total(), low_good / 1000.0),
        );
    }

    /// The DES counters of the pass (`des.*`) and the perf model's
    /// prediction error against the low-rate mean.
    pub fn layer_metrics(&self, predicted_ms: f64, v: &mut Values) {
        let t = &self.total;
        let c = &t.resilience;
        v.insert("des.arrivals", self.arrivals as f64);
        v.insert("des.ok", c.ok_queries as f64);
        v.insert("des.degraded", c.degraded_queries as f64);
        v.insert("des.shed", c.shed_queries as f64);
        v.insert("des.deadline", c.deadline_exceeded_queries as f64);
        v.insert("des.failed", c.failed_queries as f64);
        v.insert("des.worker_invocations", c.worker_invocations as f64);
        v.insert("des.retry_amplification", t.retry_amplification());
        v.insert("des.billed_ms", t.billing.billed_ms_total() as f64);
        v.insert("des.cold_starts", t.cold_starts as f64);
        v.insert(
            "des.hedge_win_ratio",
            ratio(c.hedge_wins as f64, c.hedges as f64),
        );
        let rec = &t.recovery;
        v.insert(
            "des.recovery.checkpoint_hit_ratio",
            ratio(
                rec.checkpoint_hits as f64,
                (rec.checkpoint_hits + rec.checkpoint_misses) as f64,
            ),
        );
        v.insert("des.recovery.stages_saved", rec.stages_saved as f64);
        v.insert("des.pipeline.stalls", t.pipeline.backpressure_stalls as f64);
        v.insert(
            "des.pipeline.peak_queue",
            t.pipeline.peak_stage_queue as f64,
        );
        let mean = self.low.latency.mean();
        v.insert("perf.pred_err", ratio((predicted_ms - mean).abs(), mean));
    }

    /// Operations sent, succeeded and failed per phase.
    pub fn phases(&self) -> Vec<Phase> {
        let phase = |name: &str, r: &ServingReport| {
            let c = &r.resilience;
            let (sent, ok) = sent_ok(r);
            Phase {
                name: name.to_string(),
                sent,
                ok,
                failed: sent - ok,
                detail: format!(
                    "(degraded {}, shed {}, deadline {}, failed {})",
                    c.degraded_queries,
                    c.shed_queries,
                    c.deadline_exceeded_queries,
                    c.failed_queries
                ),
            }
        };
        vec![
            phase("model.low", &self.low),
            phase("model.high", &self.high),
            phase("model.ladder", &self.ladder),
        ]
    }
}

/// Deploys the serving workload's model: VGG-11 with the SLO-aware planner
/// (fork-join) or the stage-balancing DP (pipelined).
fn deploy(driver: Driver, fault_seed: u64) -> Result<Deployment, String> {
    let mode = match driver {
        Driver::ForkJoin => Mode::SloAware {
            t_max_ms: PLAN_MEAN_SLO_MS,
        },
        Driver::Pipelined => Mode::LatencyOptimal,
    };
    serving_builder(zoo::vgg11(), mode, driver, fault_seed)
        .deploy()
        .map_err(|e| format!("deploy: {e}"))
}

/// Times the planner's stages through their public entry points, the same
/// steps `Gillis::deploy` takes: profiling, the DP (with a reachable
/// evaluation cache), and for the SLO-aware mode RL training.
pub fn trace_planner(
    tracer: &mut Tracer,
    model: &LinearModel,
    objective: PlanObjective,
    rl: bool,
    v: &mut Values,
) -> Result<(), String> {
    let platform = PlatformProfile::aws_lambda();
    let perf = tracer.span("planner.profile", "PerfModel::profiled", 0, |_| {
        PerfModel::profiled(&platform, PLAN_SEED)
    });
    // The DP, then the prediction of its plan on the same cache, as the
    // SLO-aware trainer does for its incumbent.
    let cache = Arc::new(EvalCache::new());
    tracer
        .span("planner.dp", "DpPartitioner::partition", 0, |_| {
            let plan = DpPartitioner::default()
                .with_objective(objective)
                .with_cache(Arc::clone(&cache))
                .partition(model, &perf)?;
            predict_plan_cached(model, &plan, &perf, &cache)
        })
        .map_err(|e| format!("dp: {e}"))?;
    let stats = cache.stats();
    v.insert(
        "planner.cache_hit_ratio",
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
    );
    if rl {
        let result = tracer
            .span("planner.rl", "slo_aware_partition", 0, |_| {
                slo_aware_partition(
                    model,
                    &perf,
                    &SloAwareConfig {
                        t_max_ms: PLAN_MEAN_SLO_MS,
                        seed: PLAN_SEED,
                        ..SloAwareConfig::default()
                    },
                )
            })
            .map_err(|e| format!("rl: {e}"))?;
        v.insert("planner.rl_episodes", result.episodes_run as f64);
    }
    for (cat, name) in [
        ("planner.profile", "planner.profile_ms"),
        ("planner.dp", "planner.dp_ms"),
        ("planner.rl", "planner.rl_ms"),
    ] {
        let d = tracer.durations_ms(cat);
        if !d.is_empty() {
            v.insert(name, median(&d));
        }
    }
    Ok(())
}

/// The `serve-forkjoin` and `serve-pipelined` workloads.
pub fn run(driver: Driver, args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let fault_seed = seed_for(args.seed, 3);
    let arrival_seed = seed_for(args.seed, 4);
    let mut v = Values::new();

    // Set-up: deploy (profiling, planning, validation) several times before
    // the measured phase, which serves from the last deployment, and again
    // after it, so the median spans two moments of the host's load without
    // taking time from the measured phase.
    let deploys = |tracer: &mut Tracer, first: usize| {
        repeat_setup(5, 50, 1.0, |i| {
            tracer.span(
                "facade.deploy",
                "Gillis::deploy",
                (first + i) as u64,
                |_| deploy(driver, fault_seed),
            )
        })
    };
    let (mut setup_s, d) = deploys(tracer, 0)?;
    println!(
        "set-up: plan predicted {:.1} ms\n{}",
        d.predicted().latency_ms,
        d.describe().map_err(|e| e.to_string())?
    );
    if tracer.enabled() {
        let objective = match driver {
            Driver::ForkJoin => PlanObjective::Latency,
            Driver::Pipelined => PlanObjective::PipelineBottleneck,
        };
        trace_planner(
            tracer,
            d.model(),
            objective,
            driver == Driver::ForkJoin,
            &mut v,
        )?;
    }

    // Measured phase: repeat the pass until the time is up. Every pass must
    // reproduce the first. Each call's time is the fastest of its
    // repetitions: the DES is single-threaded and memory-bound, and on a
    // shared host its speed swings by up to 1.7x for seconds to minutes
    // with other tenants' cache traffic, which a median over a 20-second run
    // does not average out. In a traced run, odd passes run untraced, and
    // the traced minus untraced median (first pass left out as warm-up) is
    // the tracing overhead.
    let mut best_ms: Vec<f64> = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut first: Option<Pass> = None;
    let mut passes = 0u64;
    let start = Instant::now();
    while first.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let traced = passes & 1 == 0;
        tracer.set_recording(traced);
        let pass = run_pass(&d, driver, arrival_seed, tracer, passes)?;
        tracer.set_recording(true);
        if !traced {
            untraced_s.push(pass.wall_s);
        } else if passes > 0 {
            traced_s.push(pass.wall_s);
        }
        if best_ms.is_empty() {
            best_ms.clone_from(&pass.call_ms);
        }
        for (b, ms) in best_ms.iter_mut().zip(&pass.call_ms) {
            *b = b.min(*ms);
        }
        passes += 1;
        match &first {
            None => first = Some(pass),
            Some(p) if !p.matches(&pass) => {
                return Err(format!("pass {passes} did not reproduce the first pass"));
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one pass ran");
    let (after, _) = deploys(tracer, setup_s.len())?;
    setup_s.extend(after);
    for p in first.phases() {
        p.print();
    }
    println!(
        "measured: {passes} passes of {} arrivals, each reproducing the first",
        first.arrivals
    );

    println!(
        "set-up: {} deploys, median {:.4} s",
        setup_s.len(),
        median(&setup_s)
    );
    v.insert("setup_s", median(&setup_s));
    if tracer.enabled() {
        v.insert("facade.deploy_ms", median(&setup_s) * 1e3);
    }
    let t = report::tail(&best_ms);
    println!(
        "call_tail_ms: p{:.1} of {} DES calls' fastest repetitions ({} beyond)",
        t.percentile, t.samples, t.beyond
    );
    let ops_per_s = first.arrivals as f64 / (best_ms.iter().sum::<f64>() / 1e3);
    v.insert("call_p50_ms", median(&best_ms));
    v.insert("call_tail_ms", t.value);
    v.insert("ops_per_s", ops_per_s);
    first.model_metrics(&mut v);
    first.layer_metrics(d.predicted().latency_ms, &mut v);
    v.insert("des.us_per_arrival", 1e6 / ops_per_s);
    if tracer.enabled() && !untraced_s.is_empty() && !traced_s.is_empty() {
        println!(
            "trace overhead: {} traced and {} untraced passes",
            traced_s.len(),
            untraced_s.len()
        );
        let over = median(&traced_s) - median(&untraced_s);
        v.insert("trace.overhead_ms", over * 1e3);
        v.insert("trace.overhead_pct", 100.0 * over / median(&untraced_s));
    }
    v.insert("peak_rss_mb", report::peak_rss_mb()?);
    // The operations are the simulated arrivals. Every one of them was
    // accounted for in exactly one terminal status (a lost arrival fails the
    // run); shed, late and failed arrivals are the modelled platform's
    // outcomes, printed per phase above and measured by `model.*`.
    Ok(Outcome {
        attempted: first.arrivals * passes,
        failed: 0,
        metrics: v,
    })
}
