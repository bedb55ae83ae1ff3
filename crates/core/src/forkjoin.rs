//! The fork-join serving runtime (paper §III-B).
//!
//! Entry points:
//!
//! - [`ForkJoinRuntime::simulate_query`] — one warm query with sampled
//!   noise, following the plan group by group (master forks workers, waits
//!   for the slowest, assembles, continues). This is the "actual" latency
//!   the Fig 9–12 reproductions measure.
//! - [`ForkJoinRuntime::serve_workload`] and the open-loop drivers — client
//!   populations or arrival streams served against warm pools with cold
//!   starts and billing (the §V-C experiments: 100 clients × 1000 queries).
//! - [`execute_plan_tensors`] — runs the plan with *real tensor math*
//!   (slicing inputs with halos, running partitions, stitching outputs),
//!   proving the plan is semantics-preserving.
//!
//! Every simulated path executes layer groups through one engine,
//! `RunCtx::exec_group`: a run context owns the fleet, the serving state
//! and the breaker bank, and each driver differs only in where its
//! queries come from and how stages are scheduled.
//!
//! # Failure model
//!
//! Both the simulated paths and the real tensor path share one fault model:
//! a [`FaultInjector`] samples per-execution faults as a pure function of
//! the execution's identity ([`FaultSite`]), and a [`ResiliencePolicy`]
//! decides what the master does about them — retries with exponential
//! backoff, per-attempt timeouts, hedged duplicates, and (on budget
//! exhaustion) graceful degradation: the master recomputes the failed shard
//! locally instead of pretending a final attempt always succeeds. Outcomes
//! are counted honestly in [`ResilienceCounters`]. Orchestrators fault too
//! when the chaos config samples orchestrator crashes: they are sampled at
//! group boundaries and recovered from stage checkpoints or by a full
//! restart.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gillis_faas::batch::{BatchCounters, BatchPolicy};
use gillis_faas::billing::BillingMeter;
use gillis_faas::brownout::{
    ArrivalDecision, BrownoutController, BrownoutCounters, BrownoutLevel, BrownoutPolicy,
};
use gillis_faas::budget::{RetryBudget, RetryBudgetPolicy};
use gillis_faas::chaos::{
    wire_checksum, ChaosConfig, Fault, FaultInjector, FaultSite, OutageConfig, OutageModel,
    QueryStatus, ResilienceCounters, ResiliencePolicy,
};
use gillis_faas::des::EventQueue;
use gillis_faas::fleet::{Fleet, FunctionSpec};
use gillis_faas::metrics::{LatencyStats, StatusLatency};
use gillis_faas::overload::{CancelToken, CircuitBreaker, OverloadCounters, OverloadPolicy};
use gillis_faas::pipeline::{PipelineCounters, PipelinePolicy};
use gillis_faas::recovery::{
    CheckpointCache, RecoveryCounters, RecoveryPolicy, StageCheckpoint, DEFAULT_FAILOVER_MS,
};
use gillis_faas::workload::{ClosedLoop, PoissonArrivals};
use gillis_faas::{Micros, PlatformProfile};
use gillis_model::exec::Executor;
use gillis_model::weights::ModelWeights;
use gillis_model::LinearModel;
use gillis_perf::TransferFormat;
use gillis_tensor::Tensor;

use crate::error::CoreError;
use crate::partition::{balanced_ranges, GroupAnalysis, PartDim, PartitionOption, PartitionWork};
use crate::plan::{ExecutionPlan, Placement};
use crate::Result;

/// Seed of the injector derived from the legacy
/// `PlatformProfile::invocation_failure_rate` knob, so profiles that only
/// set a failure rate keep getting deterministic faults.
const LEGACY_FAILURE_SEED: u64 = 0xFA11_5EED;

/// Outcome of a single simulated query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// End-to-end latency (the master's duration).
    pub latency_ms: f64,
    /// Per-group breakdown: `(fork, compute, join)` in milliseconds.
    pub group_ms: Vec<(f64, f64, f64)>,
    /// How the query ended.
    pub status: QueryStatus,
    /// Retry/hedge/timeout/degradation accounting for this query (the
    /// per-run `*_queries` tallies stay zero here; `status` carries the
    /// query's own terminal state).
    pub resilience: ResilienceCounters,
}

/// Result of serving a workload.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Latency distribution of *admitted* queries (failed queries record
    /// their error response time; shed queries never run and record
    /// nothing here).
    pub latency: LatencyStats,
    /// Latency split by terminal status, so degraded local-fallback and
    /// deadline-expired latencies do not dilute the ok-path percentiles.
    pub by_status: StatusLatency,
    /// Accumulated billing.
    pub billing: BillingMeter,
    /// Cold starts observed across all functions.
    pub cold_starts: u64,
    /// Honest resilience accounting: ok/degraded/failed/shed/deadline
    /// queries, retries, hedges, hedge wins, timeouts, locally recomputed
    /// shards.
    pub resilience: ResilienceCounters,
    /// Overload accounting: admissions, sheds, cancelled attempts, queue
    /// depth, breaker transitions. All zero without an [`OverloadPolicy`].
    pub overload: OverloadCounters,
    /// Batch-formation accounting: batches dispatched, batched queries,
    /// batch-1 fast-path hits, close reasons. All zero outside
    /// [`ForkJoinRuntime::serve_open_loop_batched`].
    pub batch: BatchCounters,
    /// Brownout-ladder accounting: arrivals per service level, step
    /// downs/ups, ladder sheds, probes. All zero without a
    /// [`BrownoutPolicy`].
    pub brownout: BrownoutCounters,
    /// Pipeline-stage accounting: stage dispatches, inter-stage hand-offs,
    /// backpressure stalls, peak stage-queue depth. All zero outside
    /// [`ForkJoinRuntime::serve_open_loop_pipelined`].
    pub pipeline: PipelineCounters,
    /// Stage-level recovery accounting: checkpoint hits/misses/evictions,
    /// stages saved, orchestrator crashes split into failover replays vs
    /// full restarts, and speculation outcomes. Crash tallies appear
    /// whenever the chaos config samples orchestrator crashes; the
    /// checkpoint fields need a [`gillis_faas::RecoveryPolicy`] (see
    /// [`ForkJoinRuntime::with_recovery`]).
    pub recovery: RecoveryCounters,
}

impl ServingReport {
    /// Worker invocations per first attempt (see
    /// [`ResilienceCounters::retry_amplification`]): the load-amplification
    /// factor retries and hedges added on top of admitted work.
    pub fn retry_amplification(&self) -> f64 {
        self.resilience.retry_amplification()
    }

    /// Folds another replication's report into this one: latency samples
    /// are concatenated and every counter family (billing, resilience,
    /// overload, batch, brownout) is summed, so percentiles, retry
    /// amplification, and brownout level occupancy aggregate honestly
    /// across seeds.
    pub fn absorb(&mut self, other: &ServingReport) {
        self.latency.absorb(&other.latency);
        self.by_status.absorb(&other.by_status);
        self.billing.merge(&other.billing);
        self.cold_starts += other.cold_starts;
        self.resilience.absorb(&other.resilience);
        self.overload.absorb(&other.overload);
        self.batch.absorb(&other.batch);
        self.brownout.absorb(&other.brownout);
        self.pipeline.absorb(&other.pipeline);
        self.recovery.absorb(&other.recovery);
    }
}

/// Latency distribution plus resilience accounting over a batch of
/// independent simulated queries (see [`ForkJoinRuntime::simulate_many`]).
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Warm-query latency distribution in replication order.
    pub latency: LatencyStats,
    /// Accumulated resilience counters, including per-status query tallies.
    pub resilience: ResilienceCounters,
}

impl SimulationReport {
    /// Worker invocations per first attempt (see
    /// [`ResilienceCounters::retry_amplification`]).
    pub fn retry_amplification(&self) -> f64 {
        self.resilience.retry_amplification()
    }

    /// Folds another replication's report into this one.
    pub fn absorb(&mut self, other: &SimulationReport) {
        self.latency.absorb(&other.latency);
        self.resilience.absorb(&other.resilience);
    }
}

/// The batch configuration chosen for one SLO class by
/// [`plan_batch_schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSchedule {
    /// Target batch size `n*`: the accumulation window closes early once
    /// this many queries are waiting.
    pub batch: usize,
    /// Accumulation window measured from the first member's arrival, in
    /// milliseconds (zero when `batch == 1`).
    pub window_ms: f64,
    /// Predicted warm latency of a full `batch`-sized dispatch, in
    /// milliseconds.
    pub predicted_ms: f64,
    /// Predicted billed cost per query at the target batch size.
    pub usd_per_query: f64,
}

/// A joint batch-size × memory-size configuration: the cheapest instance
/// memory that fits the plan and meets every class deadline, with each
/// class's cost-optimal batch size and deadline-derived window at that
/// memory. Produced by [`plan_batch_schedule`], consumed by
/// [`ForkJoinRuntime::serve_open_loop_batched`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSchedule {
    /// Chosen per-instance memory in bytes. The serving runtime must be
    /// built on `platform.with_memory_bytes(memory_bytes)`.
    pub memory_bytes: u64,
    /// Per-class configurations, index-aligned with
    /// [`BatchPolicy::classes`].
    pub classes: Vec<ClassSchedule>,
}

/// Jointly configures batch size and instance memory against the
/// performance model (the HarmonyBatch insight: batch size and memory
/// trade off against each other, so picking them separately leaves money
/// on the table).
///
/// For every candidate memory in [`BatchPolicy::memory_mb`] (the current
/// platform memory when empty) that still fits the plan's weights, and for
/// every class, the configurator scans `n = 1..=max_batch` and keeps the
/// `n` with the lowest predicted cost per query among those that are
/// *deadline-feasible*: the window
/// `min(max_window_ms, deadline − margin − t_batch(n))` must be positive
/// and no shorter than the expected fill time `(n−1)/λ_c` of the class at
/// its share of `rate_per_sec` (otherwise windows close before filling and
/// the predicted amortization never materializes). The memory with the
/// lowest expected spend rate `Σ_c λ_c · usd_c` wins.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for invalid policies or a
/// non-positive rate, and an error when no candidate memory both fits the
/// plan and meets every class deadline at batch 1.
pub fn plan_batch_schedule(
    model: &LinearModel,
    plan: &ExecutionPlan,
    platform: &PlatformProfile,
    format: TransferFormat,
    policy: &BatchPolicy,
    rate_per_sec: f64,
) -> Result<BatchSchedule> {
    policy.validate().map_err(CoreError::from)?;
    if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
        return Err(CoreError::InvalidArgument(format!(
            "arrival rate must be positive and finite, got {rate_per_sec}"
        )));
    }
    let candidates: Vec<u64> = if policy.memory_mb.is_empty() {
        vec![platform.instance_memory_bytes]
    } else {
        policy.memory_mb.iter().map(|&mb| mb * 1_000_000).collect()
    };
    let total_weight = policy.total_weight();
    let mut best: Option<(f64, BatchSchedule)> = None;
    'memory: for &memory_bytes in &candidates {
        let scaled_platform = platform.with_memory_bytes(memory_bytes);
        if plan
            .validate(model, scaled_platform.model_memory_budget)
            .is_err()
        {
            // The plan's weights no longer fit this memory size.
            continue;
        }
        let perf = gillis_perf::PerfModel::analytic(&scaled_platform).with_transfer_format(format);
        // Batched predictions are class-independent; compute once per size.
        let preds: Vec<crate::predict::PlanPrediction> = (1..=policy.max_batch)
            .map(|n| {
                crate::predict::predict_plan_batched(
                    model,
                    plan,
                    &perf,
                    n,
                    policy.amortized_fraction,
                )
            })
            .collect::<Result<_>>()?;
        let mut classes = Vec::with_capacity(policy.classes.len());
        let mut spend_rate = 0.0;
        for class in &policy.classes {
            let lambda = rate_per_sec * class.weight / total_weight;
            let mut chosen: Option<ClassSchedule> = None;
            for (i, pred) in preds.iter().enumerate() {
                let n = i + 1;
                let slack_ms = if class.deadline_ms.is_finite() {
                    class.deadline_ms - policy.window_margin_ms - pred.latency_ms
                } else {
                    f64::INFINITY
                };
                if slack_ms <= 0.0 {
                    // Even an empty window would push the first member
                    // past its shed threshold.
                    continue;
                }
                let window_ms = if n == 1 {
                    0.0
                } else {
                    let w = policy.max_window_ms.min(slack_ms);
                    // Expected time for n arrivals of this class to show
                    // up; a window shorter than that closes underfilled
                    // and the amortization never materializes.
                    let fill_ms = (n as f64 - 1.0) / lambda * 1000.0;
                    if fill_ms > w {
                        continue;
                    }
                    w
                };
                let usd_per_query = pred.usd / n as f64;
                if chosen.is_none_or(|c| usd_per_query < c.usd_per_query) {
                    chosen = Some(ClassSchedule {
                        batch: n,
                        window_ms,
                        predicted_ms: pred.latency_ms,
                        usd_per_query,
                    });
                }
            }
            let Some(c) = chosen else {
                // This memory size cannot serve the class at all.
                continue 'memory;
            };
            spend_rate += lambda * c.usd_per_query;
            classes.push(c);
        }
        if best.as_ref().is_none_or(|(rate, _)| spend_rate < *rate) {
            best = Some((
                spend_rate,
                BatchSchedule {
                    memory_bytes,
                    classes,
                },
            ));
        }
    }
    best.map(|(_, s)| s).ok_or_else(|| {
        CoreError::InvalidArgument(
            "no candidate memory size both fits the plan and meets every class deadline"
                .to_string(),
        )
    })
}

/// One worker-lane execution as observed by the master: sampled noise plus
/// any injected fault, capped by the per-attempt timeout.
#[derive(Debug, Clone, Copy)]
struct LaneExec {
    /// Invocation jitter before work starts (zero when the fork transfer
    /// already covered it).
    jitter_ms: f64,
    /// Master-observed time from work start to resolution: full compute,
    /// partial compute for a crash, zero for an invocation failure, or the
    /// timeout cap when the master abandons the lane.
    run_ms: f64,
    /// Worker-side busy time to bill — never capped by the abandon, the
    /// function keeps running.
    billed_ms: f64,
    /// The lane produced a usable result.
    success: bool,
    /// The master abandoned the lane at its timeout.
    timed_out: bool,
    /// The lane returned a payload whose checksum failed at the join: the
    /// master received it (not a timeout) but must discard it.
    corrupt: bool,
}

impl LaneExec {
    /// Counts this launched invocation, its timeout, and its corruption.
    fn tally(&self, counters: &mut ResilienceCounters) {
        counters.worker_invocations += 1;
        counters.timeouts += u64::from(self.timed_out);
        counters.corruptions_detected += u64::from(self.corrupt);
    }
}

/// Outcome of executing one layer group ([`RunCtx::exec_group`]).
#[derive(Debug, Clone, Copy)]
struct GroupRun {
    /// When the orchestrating function finished the group (join included;
    /// for terminal outcomes, when it stopped waiting).
    end: Micros,
    /// `Ok`, `Degraded` (locally recomputed shards), `Failed` (shards
    /// exhausted without fallback), or `DeadlineExceeded` (the deadline
    /// expired inside the group). The last two are terminal: the caller
    /// abandons the rest of the plan.
    status: QueryStatus,
    /// `(fork, compute, join)` in milliseconds: transfer out to the
    /// workers, waiting for the slowest lane (plus any local recompute),
    /// and collecting the replies. The join is zero when the orchestrator
    /// did not join.
    split_ms: (f64, f64, f64),
}

impl GroupRun {
    /// A group begun at `begin` that forked until `dispatched`, computed
    /// until `computed`, and ended at `end`.
    fn new(
        begin: Micros,
        dispatched: Micros,
        computed: Micros,
        end: Micros,
        status: QueryStatus,
    ) -> Self {
        GroupRun {
            end,
            status,
            split_ms: (
                (dispatched - begin).as_ms(),
                (computed - dispatched).as_ms(),
                (end - computed).as_ms(),
            ),
        }
    }
}

/// Overload protection prepared for serving: the policy plus the plan's
/// predicted warm latency, which admission control adds to the predicted
/// queue wait when deciding whether an arrival can still meet its deadline.
#[derive(Debug, Clone)]
struct OverloadRuntime {
    policy: OverloadPolicy,
    predicted_ms: f64,
}

impl OverloadRuntime {
    /// Whether a query starting at `start` is already predicted to miss its
    /// deadline, so shedding it beats queueing doomed work.
    fn predicts_miss(&self, start: Micros, deadline: Option<Micros>) -> bool {
        self.policy.shed_on_predicted_miss
            && deadline.is_some_and(|d| start + Micros::from_ms(self.predicted_ms) > d)
    }
}

/// The work one query asks of each partition: the group analyses plus the
/// predicted p95 of one attempt per `[group][partition]` (mean compute at
/// the 95th noise percentile plus the invocation-jitter p95). Timeouts and
/// hedge delays are multiples of the p95, so they scale with the partition
/// instead of being absolute knobs. Batched serving substitutes
/// batch-scaled profiles over the same plan structure.
#[derive(Debug, Clone)]
struct WorkProfile {
    analyses: Vec<GroupAnalysis>,
    attempt_p95_ms: Vec<Vec<f64>>,
}

impl WorkProfile {
    fn new(platform: &PlatformProfile, analyses: Vec<GroupAnalysis>) -> Self {
        let jitter_p95 = platform.invoke_latency_ms.upper_quantile(0.95);
        let noise_p95 = 1.0 + 1.645 * platform.compute_noise_rel_std;
        let attempt_p95_ms = analyses
            .iter()
            .map(|a| {
                a.partitions
                    .iter()
                    .map(|p| {
                        let mean: f64 = p
                            .flops
                            .iter()
                            .map(|&(class, flops)| platform.compute_ms(flops, class))
                            .sum();
                        mean * noise_p95 + jitter_p95
                    })
                    .collect()
            })
            .collect();
        WorkProfile {
            analyses,
            attempt_p95_ms,
        }
    }

    /// Max-partition attempt p95 of group `gi` — the coarse "one group
    /// costs this" scale used by speculation triggers, resume deadline
    /// gates, and marginal retry pricing.
    fn group_p95_ms(&self, gi: usize) -> f64 {
        self.attempt_p95_ms[gi]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v))
    }

    /// Predicted p95 of the groups from `from` on — the deadline gate a
    /// resume must pass before it is worth paying for.
    fn remaining_p95_ms(&self, from: usize) -> f64 {
        (from..self.attempt_p95_ms.len())
            .map(|gi| self.group_p95_ms(gi))
            .sum()
    }
}

/// Name of the monolithic fork-join master function.
const MASTER_FN: &str = "master";

/// The deployed function names of a plan, built once with the runtime.
#[derive(Debug, Clone)]
struct FunctionNames {
    /// Index of each group's first worker partition: `0` for worker-only
    /// groups, `1` when the orchestrator computes partition 0 itself, the
    /// partition count for master-only groups.
    worker_offset: Vec<usize>,
    /// `g{gi}p{pi}` for every worker partition, indexed by
    /// `[gi][pi - worker_offset[gi]]`.
    workers: Vec<Vec<String>>,
    /// `s{gi}`: the pipelined path's per-stage orchestrators, packaged like
    /// per-stage masters.
    stages: Vec<String>,
}

impl FunctionNames {
    fn new(plan: &ExecutionPlan, analyses: &[GroupAnalysis]) -> Self {
        let worker_offset: Vec<usize> = plan
            .groups()
            .iter()
            .zip(analyses)
            .map(|(g, a)| match g.placement {
                Placement::Workers => 0,
                Placement::MasterAndWorkers => 1,
                Placement::Master => a.partitions.len(),
            })
            .collect();
        let workers = analyses
            .iter()
            .zip(&worker_offset)
            .enumerate()
            .map(|(gi, (a, &off))| {
                (off..a.partitions.len())
                    .map(|pi| format!("g{gi}p{pi}"))
                    .collect()
            })
            .collect();
        let stages = (0..analyses.len()).map(|gi| format!("s{gi}")).collect();
        FunctionNames {
            worker_offset,
            workers,
            stages,
        }
    }
}

/// Mutable state shared by every serving driver: billing meter, recorders,
/// and the optional admission-side controllers. The per-arrival brownout
/// front door, the health-window bookkeeping around a dispatch, the
/// per-query recording, and the final report assembly live here exactly
/// once.
struct ServingState {
    billing: BillingMeter,
    latency: LatencyStats,
    by_status: StatusLatency,
    resilience: ResilienceCounters,
    overload: OverloadCounters,
    budget: Option<RetryBudget>,
    brownout: Option<BrownoutController>,
    recovery: RecoveryCounters,
    /// Stage-boundary checkpoint store; `None` without a
    /// [`RecoveryPolicy`], in which case every orchestrator crash is a full
    /// restart and failed groups never resume.
    checkpoints: Option<CheckpointCache>,
}

impl ServingState {
    /// Fresh serving-loop state for one run of `rt`.
    fn new(rt: &ForkJoinRuntime<'_>) -> Self {
        ServingState {
            billing: BillingMeter::new(
                rt.platform.billing_granularity_ms,
                rt.platform.price_per_gb_s,
                rt.platform.price_per_invocation,
            ),
            latency: LatencyStats::new(),
            by_status: StatusLatency::new(),
            resilience: ResilienceCounters::default(),
            overload: OverloadCounters::default(),
            budget: rt.retry_budget.map(RetryBudget::new),
            brownout: rt.brownout.map(BrownoutController::new),
            recovery: RecoveryCounters::default(),
            checkpoints: rt.recovery.map(CheckpointCache::new),
        }
    }

    /// Brownout front door for one arrival: records a shed and returns
    /// `None` when the ladder rejects it, otherwise the service level to
    /// dispatch at.
    fn front_door(&mut self) -> Option<BrownoutLevel> {
        let full = ArrivalDecision::Serve(BrownoutLevel::Full);
        match self
            .brownout
            .as_mut()
            .map_or(full, BrownoutController::classify_arrival)
        {
            ArrivalDecision::Shed => {
                self.shed();
                None
            }
            ArrivalDecision::Serve(level) => Some(level),
        }
    }

    /// Records an arrival shed by admission control (never served — it gets
    /// a status tally but no latency sample).
    fn shed(&mut self) {
        self.resilience.record_status(QueryStatus::Shed);
    }

    /// Snapshot of the first-attempt counters before a dispatch; feed it to
    /// [`Self::observe`] afterwards so the brownout controller scores
    /// exactly that dispatch's outcomes.
    fn health_window(&self) -> (u64, u64) {
        (
            self.resilience.first_attempts,
            self.resilience.first_attempt_successes,
        )
    }

    /// Scores the first-attempt outcomes since `window` into the brownout
    /// controller (a no-op without one).
    fn observe(&mut self, window: (u64, u64)) {
        if let Some(ctl) = self.brownout.as_mut() {
            ctl.observe(
                self.resilience.first_attempts - window.0,
                self.resilience.first_attempt_successes - window.1,
            );
        }
    }

    /// Records one served query's latency, measured from its own arrival,
    /// under its terminal status.
    fn record(&mut self, arrival: Micros, done: Micros, status: QueryStatus) {
        let ms = (done - arrival).as_ms();
        self.latency.record(ms);
        self.by_status.record(status, ms);
    }
}

/// One query as the executor sees it: identity (which keys fault
/// sampling), deadline, service level, and work profile.
#[derive(Debug, Clone, Copy)]
struct QueryCtx<'w> {
    id: u64,
    deadline: Option<Micros>,
    level: BrownoutLevel,
    work: &'w WorkProfile,
}

impl QueryCtx<'_> {
    /// The same query under a salted fault-site identity, so a duplicate
    /// execution does not deterministically redraw the original's faults.
    fn salted(&self, salt: u64) -> Self {
        QueryCtx {
            id: self.id ^ salt,
            ..*self
        }
    }
}

/// An orchestrator crash sampled at a stage boundary, with the checkpoint
/// lookup that decides where the replacement orchestrator resumes.
struct Crash {
    /// Latest usable `(boundary, checkpoint)`; `None` is a full restart.
    hit: Option<(u32, StageCheckpoint)>,
    failover_ms: f64,
}

impl Crash {
    /// First group the replacement orchestrator must re-execute.
    fn resume_from(&self) -> usize {
        self.hit.map_or(0, |(k, _)| k as usize + 1)
    }
}

/// One serving run: the runtime, its fleet, the serving state (billing,
/// counters, budget, brownout, recovery, checkpoint cache), and the breaker
/// bank. Every driver executes groups through [`Self::exec_group`], the one
/// fork-join engine.
struct RunCtx<'r, 'a> {
    rt: &'r ForkJoinRuntime<'a>,
    fleet: Fleet,
    st: ServingState,
    breakers: Option<Vec<Vec<CircuitBreaker>>>,
}

impl<'r, 'a> RunCtx<'r, 'a> {
    /// Charges the worker invocations planned from group `from` onward as
    /// cancelled — the accounting for a query that dies mid-plan.
    fn cancel_from(&mut self, from: usize) {
        let remaining: u64 = self.rt.plan.groups()[from..]
            .iter()
            .map(|g| g.worker_count() as u64)
            .sum();
        self.st.overload.cancelled_attempts += remaining;
    }

    /// Local-fallback-only rung: the orchestrator computes every partition
    /// of group `gi` itself, serially — no worker lanes, no fault sites, no
    /// retries.
    fn exec_local<R: RngExt + ?Sized>(
        &mut self,
        q: &QueryCtx<'_>,
        gi: usize,
        begin: Micros,
        rng: &mut R,
    ) -> GroupRun {
        let offset = self.rt.names.worker_offset[gi];
        let mut end = begin;
        let mut status = QueryStatus::Ok;
        for (pi, p) in q.work.analyses[gi].partitions.iter().enumerate() {
            if pi >= offset {
                self.st.resilience.degraded_shards += 1;
                status = QueryStatus::Degraded;
            }
            end += Micros::from_ms(self.rt.sample_compute_ms(p, rng));
        }
        GroupRun::new(begin, begin, end, end, status)
    }

    /// Executes layer group `gi` of query `q` on the fleet starting at
    /// `begin`: fork, worker lanes with retries/hedges/breakers/budget,
    /// local fallback, and join. Every path runs groups through this one
    /// engine — the fork-join master, pipeline stages, failover replays,
    /// resume retries, and speculative duplicates. Terminal outcomes
    /// (`Failed`, `DeadlineExceeded`) leave downstream-cancellation
    /// accounting to the caller, which knows what work remains.
    fn exec_group<R: RngExt + ?Sized>(
        &mut self,
        q: &QueryCtx<'_>,
        gi: usize,
        begin: Micros,
        rng: &mut R,
    ) -> Result<GroupRun> {
        let RunCtx {
            rt,
            fleet,
            st,
            breakers,
        } = self;
        let rt: &ForkJoinRuntime<'_> = rt;
        let ServingState {
            billing,
            resilience: counters,
            overload,
            budget,
            ..
        } = st;
        let deadline = q.deadline;
        let mem = rt.platform.instance_memory_bytes;
        let max_attempts = rt.policy.max_attempts.max(1);
        let wire_fmt = rt.wire_format(q.level);
        let wire = |raw: u64| wire_fmt.wire_bytes(raw);
        let a = &q.work.analyses[gi];
        let p95s = &q.work.attempt_p95_ms[gi];
        let offset = rt.names.worker_offset[gi];
        let master_compute = if offset > 0 {
            rt.sample_compute_ms(&a.partitions[0], rng)
        } else {
            0.0
        };
        let worker_parts = &a.partitions[offset..];
        if worker_parts.is_empty() {
            let end = begin + Micros::from_ms(master_compute);
            return Ok(GroupRun::new(begin, begin, end, end, QueryStatus::Ok));
        }
        // Fork: one egress model shared with the join, so fork and join
        // payloads are priced alike.
        let ins: Vec<u64> = worker_parts.iter().map(|p| wire(p.input_bytes)).collect();
        let outs: Vec<u64> = worker_parts.iter().map(|p| wire(p.output_bytes)).collect();
        let dispatched = begin + Micros::from_ms(rt.sample_transfer_parts(&ins, rng));
        // The master's own shard is synchronous local work — it cannot be
        // abandoned, so it lower-bounds the time at which a cancelled query
        // can return.
        let master_busy_end = dispatched + Micros::from_ms(master_compute);
        let mut compute_end = master_busy_end;
        let mut exhausted: Vec<usize> = Vec::new();
        let mut deadline_hit = false;
        let mut status = QueryStatus::Ok;
        for (pi, p) in worker_parts.iter().enumerate() {
            let part_idx = pi + offset;
            // Per-lane circuit breaker: an open lane is routed around
            // (straight to master-local degraded execution) without spending
            // any retry budget; a half-open lane gets a single probe attempt.
            let mut lane_attempts = max_attempts;
            if let Some(bank) = breakers.as_deref_mut() {
                let b = &mut bank[gi][part_idx];
                if !b.admits(dispatched, overload) {
                    exhausted.push(pi);
                    continue;
                }
                if b.probing() {
                    lane_attempts = 1;
                }
            }
            let fname = rt.names.workers[gi][pi].as_str();
            let p95 = p95s[part_idx];
            let timeout_ms = rt.policy.attempt_timeout_factor * p95;
            // The remaining deadline budget caps attempt timeouts.
            // `sample_lane` draws noise and fault *before* applying the cap,
            // so a shrunk timeout never shifts the RNG stream.
            let capped =
                |at: Micros| deadline.map_or(timeout_ms, |d| timeout_ms.min((d - at).as_ms()));
            let transfer = rt
                .platform
                .transfer_ms(wire(p.input_bytes) + wire(p.output_bytes));
            let mut t = dispatched;
            let mut resolved: Option<Micros> = None;
            let mut observed_end = dispatched;
            let mut lane_cancelled = false;
            for attempt in 0..lane_attempts {
                // An attempt that would launch at or past the deadline is
                // cancelled — doomed work the master does not perform.
                if deadline.is_some_and(|d| t >= d) {
                    overload.cancelled_attempts += 1;
                    lane_cancelled = true;
                    break;
                }
                let p_site = FaultSite {
                    query: q.id,
                    group: gi as u32,
                    part: part_idx as u32,
                    attempt,
                    lane: 0,
                };
                let primary = rt.sample_lane(p_site, p, attempt == 0, capped(t), t.as_ms(), rng);
                primary.tally(counters);
                if attempt == 0 {
                    counters.first_attempts += 1;
                    if primary.success {
                        counters.first_attempt_successes += 1;
                        // Successful first attempts are the only thing that
                        // earns retry tokens back.
                        if let Some(b) = budget.as_mut() {
                            b.refill();
                        }
                    }
                }
                let acq = fleet.acquire(fname, t)?;
                let work_start = acq.ready_at.max(t + Micros::from_ms(primary.jitter_ms));
                let p_end = work_start + Micros::from_ms(primary.run_ms);
                let p_busy_end = work_start + Micros::from_ms(primary.billed_ms);
                resolved = primary.success.then_some(p_end);
                let mut attempt_end = p_end;
                let mut hedge_won = false;
                let mut hedge_bill: Option<(Micros, Micros)> = None;
                // The first brownout rung turns hedging off: a hedge is pure
                // load amplification when the platform is already unhealthy.
                if rt.policy.hedged() && q.level == BrownoutLevel::Full {
                    let hedge_at = t + Micros::from_ms(rt.policy.hedge_delay_factor * p95);
                    // A hedge is only worth launching before the deadline.
                    if p_end > hedge_at && deadline.is_none_or(|d| hedge_at < d) {
                        // Hedges debit the same token bucket as retries —
                        // both are extra invocations. With recovery on, the
                        // debit is the attempt's marginal share of the plan.
                        if !budget
                            .as_mut()
                            .is_none_or(|b| b.try_spend_cost(rt.retry_unit_cost(p95)))
                        {
                            counters.budget_denied_hedges += 1;
                        } else {
                            let hedge = rt.sample_lane(
                                FaultSite { lane: 1, ..p_site },
                                p,
                                false,
                                capped(hedge_at),
                                hedge_at.as_ms(),
                                rng,
                            );
                            counters.hedges += 1;
                            hedge.tally(counters);
                            let h_acq = fleet.acquire(fname, hedge_at)?;
                            let h_start = h_acq
                                .ready_at
                                .max(hedge_at + Micros::from_ms(hedge.jitter_ms));
                            let h_end = h_start + Micros::from_ms(hedge.run_ms);
                            let h_busy_end = h_start + Micros::from_ms(hedge.billed_ms);
                            if hedge.success && resolved.is_none_or(|r| h_end < r) {
                                hedge_won = true;
                                resolved = Some(h_end);
                            }
                            attempt_end = attempt_end.max(h_end);
                            hedge_bill = Some((h_start, h_busy_end));
                        }
                    }
                }
                if hedge_won {
                    counters.hedge_wins += 1;
                }
                // Billed from payload receipt to response emission; the
                // accepted lane also carries the payload transfer. Abandoned
                // lanes bill their full busy time — the function keeps
                // running.
                let primary_bill = (work_start, p_busy_end, resolved.is_some() && !hedge_won);
                let hedge_bill = hedge_bill.map(|(start, busy_end)| (start, busy_end, hedge_won));
                for (start, busy_end, carries) in std::iter::once(primary_bill).chain(hedge_bill) {
                    let carried = if carries { transfer } else { 0.0 };
                    billing.record((busy_end - start).as_ms() + carried, mem);
                    fleet.release(fname, busy_end)?;
                }
                if let Some(r) = resolved {
                    observed_end = r;
                    break;
                }
                observed_end = attempt_end;
                // Adaptive retry budget: a retry that would actually launch
                // must first debit a token — priced at marginal cost when
                // recovery is on. A dry bucket abandons the lane to local
                // fallback instead of amplifying load.
                if attempt + 1 < lane_attempts {
                    if let Some(b) = budget.as_mut() {
                        if !b.try_spend_cost(rt.retry_unit_cost(p95)) {
                            counters.budget_denied_retries += 1;
                            break;
                        }
                    }
                }
                if attempt + 1 < max_attempts {
                    counters.retries += 1;
                    let unit = rt
                        .injector
                        .as_ref()
                        .map_or(0.5, |inj| inj.backoff_unit(p_site));
                    t = attempt_end + Micros::from_ms(rt.policy.backoff_ms(attempt, unit));
                }
            }
            match resolved {
                Some(r) => {
                    compute_end = compute_end.max(r);
                    if deadline.is_some_and(|d| r > d) {
                        // The reply exists, but the master stopped waiting
                        // at the deadline (cold start or jitter pushed the
                        // lane past it): abandoned in flight.
                        overload.cancelled_attempts += 1;
                        deadline_hit = true;
                    } else if let Some(bank) = breakers.as_deref_mut() {
                        bank[gi][part_idx].record_success(overload);
                    }
                }
                None => {
                    compute_end = compute_end.max(observed_end);
                    if lane_cancelled {
                        // Deadline cancellations say nothing about lane
                        // health — they do not feed the breaker.
                        deadline_hit = true;
                    } else if deadline.is_some_and(|d| observed_end > d) {
                        // The lane's last attempt outlived the deadline: the
                        // master never observed its failure, it just left.
                        overload.cancelled_attempts += 1;
                        deadline_hit = true;
                    } else {
                        exhausted.push(pi);
                        if let Some(bank) = breakers.as_deref_mut() {
                            bank[gi][part_idx].record_failure(observed_end, overload);
                        }
                    }
                }
            }
        }
        if !exhausted.is_empty() {
            if deadline_hit {
                // The query is already doomed: recomputing the exhausted
                // shards would be cancelled work.
                overload.cancelled_attempts += exhausted.len() as u64;
            } else if rt.policy.local_fallback {
                for &pi in &exhausted {
                    // A recompute that cannot start before the deadline is
                    // cancelled, not performed.
                    if deadline.is_some_and(|d| compute_end >= d) {
                        overload.cancelled_attempts += 1;
                        deadline_hit = true;
                        continue;
                    }
                    counters.degraded_shards += 1;
                    status = QueryStatus::Degraded;
                    compute_end += Micros::from_ms(rt.sample_compute_ms(&worker_parts[pi], rng));
                }
            } else {
                let failed = QueryStatus::Failed;
                return Ok(GroupRun::new(
                    begin,
                    dispatched,
                    compute_end,
                    compute_end,
                    failed,
                ));
            }
        }
        if deadline_hit {
            // The master abandons the query at its deadline: an error
            // response, no join. Only its own synchronous shard compute can
            // push the return later.
            let end = master_busy_end.max(deadline.expect("deadline_hit implies a deadline"));
            let missed = QueryStatus::DeadlineExceeded;
            return Ok(GroupRun::new(begin, dispatched, end, end, missed));
        }
        // Join: collection jitter + serialized replies.
        let end = compute_end + Micros::from_ms(rt.sample_transfer_parts(&outs, rng));
        Ok(GroupRun::new(begin, dispatched, compute_end, end, status))
    }

    /// Stores query `qid`'s checkpoint at boundary `gi` (a no-op without a
    /// checkpoint cache).
    fn checkpoint(&mut self, qid: u64, gi: usize, elapsed_ms: f64, degraded: bool, at: Micros) {
        let st = &mut self.st;
        if let Some(cache) = st.checkpoints.as_mut() {
            cache.put(
                qid,
                gi as u32,
                self.rt.weight_token,
                StageCheckpoint {
                    elapsed_ms,
                    degraded,
                    stored_at_ms: at.as_ms(),
                },
                &mut st.recovery,
            );
        }
    }

    /// Samples an orchestrator crash at boundary `gi` of query `qid` at
    /// `now`, as a pure function of `(chaos seed, query, boundary,
    /// incarnation)` that consumes no draw from any RNG stream — so a
    /// crash-free run and a checkpoint-resumed run see identical noise. On
    /// a crash, bumps the incarnation (the replacement orchestrator samples
    /// a fresh draw) and looks up the latest usable checkpoint.
    fn crash_at(
        &mut self,
        qid: u64,
        gi: usize,
        incarnation: &mut u32,
        now: Micros,
    ) -> Option<Crash> {
        let rt = self.rt;
        let inj = rt.injector.as_ref()?;
        if *incarnation >= MAX_ORCH_INCARNATIONS
            || !inj.orchestrator_crash(
                qid,
                gi as u32,
                *incarnation,
                rt.orchestrator_outage_multiplier(now.as_ms()),
            )
        {
            return None;
        }
        *incarnation += 1;
        self.st.recovery.orchestrator_crashes += 1;
        let st = &mut self.st;
        let hit = match (rt.recovery, st.checkpoints.as_mut()) {
            (Some(_), Some(c)) => c.latest_before(
                qid,
                gi as u32,
                rt.weight_token,
                now.as_ms(),
                &mut st.recovery,
            ),
            _ => None,
        };
        Some(Crash {
            hit,
            failover_ms: rt.recovery.map_or(DEFAULT_FAILOVER_MS, |p| p.failover_ms),
        })
    }

    /// Stage-boundary bookkeeping once query `qid` completed group `gi` at
    /// `now`: the checkpoint is durable *before* crash sampling, so a crash
    /// at this boundary always finds its own stage's output (unless
    /// capacity or TTL ate it).
    fn boundary(
        &mut self,
        qid: u64,
        gi: usize,
        elapsed_ms: f64,
        verdict: QueryStatus,
        incarnation: &mut u32,
        now: Micros,
    ) -> Option<Crash> {
        self.checkpoint(qid, gi, elapsed_ms, verdict == QueryStatus::Degraded, now);
        self.crash_at(qid, gi, incarnation, now)
    }

    /// Accounts a crash the query survives: a failover replay
    /// reconstructs in-flight state from the checkpoint (stages `0..=k` are
    /// never re-executed, and the checkpoint's degraded verdict carries
    /// over into `verdict`); without one it is a full restart, which redoes
    /// every completed stage and so resets `verdict` to `Ok` — the
    /// re-executions set their own.
    fn failover(&mut self, crash: &Crash, verdict: &mut QueryStatus) {
        let rec = &mut self.st.recovery;
        match crash.hit {
            Some((k, ck)) => {
                rec.failover_replays += 1;
                rec.stages_saved += u64::from(k) + 1;
                rec.recompute_avoided_ms += ck.elapsed_ms;
                if ck.degraded {
                    *verdict = QueryStatus::Degraded;
                }
            }
            None => {
                rec.full_restarts += 1;
                *verdict = QueryStatus::Ok;
            }
        }
    }

    /// Recovery around group `gi` of the master loop (a no-op without a
    /// [`RecoveryPolicy`]). A failed group retries once from the last
    /// checkpointed boundary: the upstream output is already durable, so
    /// the retry redoes one stage instead of the whole plan — priced at
    /// marginal cost against the retry budget, skipped when the deadline
    /// can no longer be met anyway. A straggling group past `spec_factor` ×
    /// its predicted p95 gets a duplicate seeded from the cached upstream
    /// output; the earlier finisher wins and the loser is cancelled at its
    /// next checkpoint (both billed in full). The duplicate draws from a
    /// dedicated RNG funded by exactly one draw of the main stream, so
    /// firing never shifts later queries' draws.
    fn recover_group(
        &mut self,
        q: &QueryCtx<'_>,
        gi: usize,
        began: Micros,
        mut run: GroupRun,
        spec_used: &mut u32,
        rng: &mut StdRng,
    ) -> Result<GroupRun> {
        let rt = self.rt;
        let Some(pol) = rt.recovery else {
            return Ok(run);
        };
        let unit_cost = rt.retry_unit_cost(q.work.group_p95_ms(gi));
        let spend = |ctx: &mut Self| {
            ctx.st
                .budget
                .as_mut()
                .is_none_or(|b| b.try_spend_cost(unit_cost))
        };
        let upstream_ok =
            |ctx: &Self, at: Micros| {
                gi == 0
                    || ctx.st.checkpoints.as_ref().is_some_and(|c| {
                        c.contains(q.id, gi as u32 - 1, rt.weight_token, at.as_ms())
                    })
            };
        if run.status == QueryStatus::Failed && upstream_ok(self, run.end) {
            let deadline_ok = q
                .deadline
                .is_none_or(|d| run.end + Micros::from_ms(q.work.remaining_p95_ms(gi)) <= d);
            if !deadline_ok {
                self.st.recovery.resume_skipped_deadline += 1;
            } else if spend(self) {
                self.st.recovery.resume_retries += 1;
                run = self.exec_group(&q.salted(RESUME_QUERY_SALT), gi, run.end, rng)?;
                if matches!(run.status, QueryStatus::Ok | QueryStatus::Degraded) {
                    self.st.recovery.resume_retry_wins += 1;
                }
            }
        }
        if matches!(run.status, QueryStatus::Ok | QueryStatus::Degraded)
            && pol.spec_factor.is_finite()
            && q.level == BrownoutLevel::Full
            && *spec_used < pol.max_speculations
        {
            let threshold_ms = pol.spec_factor * q.work.group_p95_ms(gi);
            if (run.end - began).as_ms() > threshold_ms && upstream_ok(self, run.end) && spend(self)
            {
                *spec_used += 1;
                self.st.recovery.speculative_executions += 1;
                let mut spec_rng = StdRng::seed_from_u64(rng.random::<u64>());
                let spec_q = q.salted(SPEC_QUERY_SALT);
                let spec_at = began + Micros::from_ms(threshold_ms);
                let spec = self.exec_group(&spec_q, gi, spec_at, &mut spec_rng)?;
                if matches!(spec.status, QueryStatus::Ok | QueryStatus::Degraded)
                    && spec.end < run.end
                {
                    self.st.recovery.speculation_wins += 1;
                    run = spec;
                } else {
                    self.st.recovery.speculation_cancelled += 1;
                }
            }
        }
        Ok(run)
    }

    /// Executes one query on the monolithic fork-join master starting at
    /// `start`, charging billing, and returns its completion time and
    /// terminal status (also tallied in the resilience counters).
    ///
    /// The query's deadline is its absolute cancellation point: per-attempt
    /// timeouts shrink to the remaining budget, attempts that would launch
    /// past it are cancelled, and once it expires the master abandons
    /// remaining groups instead of completing doomed work. An orchestrator
    /// crash at a group boundary walks the master back to the first group
    /// its checkpoints do not cover.
    fn run_query(
        &mut self,
        q: &QueryCtx<'_>,
        start: Micros,
        rng: &mut StdRng,
    ) -> Result<(Micros, QueryStatus)> {
        let rt = self.rt;
        let master_began = self.fleet.acquire(MASTER_FN, start)?.ready_at;
        let mut now = master_began;
        let mut status = QueryStatus::Ok;
        let n_groups = rt.plan.groups().len();
        if q.level >= BrownoutLevel::LocalOnly {
            // No worker lane is invoked at all: the master computes every
            // partition itself, in plan order.
            for gi in 0..n_groups {
                let run = self.exec_local(q, gi, now, rng);
                now = run.end;
                if run.status == QueryStatus::Degraded {
                    status = QueryStatus::Degraded;
                }
            }
        } else {
            let mut gi = 0usize;
            let mut incarnation = 0u32;
            let mut spec_used = 0u32;
            'groups: while gi < n_groups {
                // Cooperative cancellation checkpoint at every group
                // boundary: an expired deadline cancels all remaining work.
                if q.deadline.is_some_and(|d| now >= d) {
                    self.cancel_from(gi);
                    status = QueryStatus::DeadlineExceeded;
                    break;
                }
                let began = now;
                let run = self.exec_group(q, gi, now, rng)?;
                let run = self.recover_group(q, gi, began, run, &mut spec_used, rng)?;
                now = run.end;
                match run.status {
                    QueryStatus::Ok => {}
                    QueryStatus::Degraded => status = QueryStatus::Degraded,
                    terminal => {
                        // The master gives up mid-plan and emits an error
                        // response: the fork and the waiting are paid, the
                        // join is not. A query abandoned at its deadline
                        // cancels the never-dispatched downstream work too.
                        if terminal == QueryStatus::DeadlineExceeded {
                            self.cancel_from(gi + 1);
                        }
                        status = terminal;
                        break;
                    }
                }
                let elapsed_ms = (now - master_began).as_ms();
                let mut crash = self.boundary(q.id, gi, elapsed_ms, status, &mut incarnation, now);
                while let Some(c) = crash {
                    let resume_from = c.resume_from();
                    if let Some(d) = q.deadline {
                        // A resume (or restart) that can no longer meet the
                        // deadline is not worth paying for: fail fast.
                        let eta = now
                            + Micros::from_ms(c.failover_ms)
                            + Micros::from_ms(q.work.remaining_p95_ms(resume_from));
                        if eta > d {
                            self.st.recovery.resume_skipped_deadline += 1;
                            self.cancel_from(gi + 1);
                            status = QueryStatus::DeadlineExceeded;
                            break 'groups;
                        }
                    }
                    now += Micros::from_ms(c.failover_ms);
                    self.failover(&c, &mut status);
                    if resume_from <= gi {
                        // Walk back and re-execute from the first group the
                        // checkpoints do not cover.
                        gi = resume_from;
                        continue 'groups;
                    }
                    // Full hit at this boundary: nothing to redo; sample
                    // again under the replacement orchestrator's
                    // incarnation — replacements can crash too.
                    crash = self.crash_at(q.id, gi, &mut incarnation, now);
                }
                gi += 1;
            }
            if let Some(c) = self.st.checkpoints.as_mut() {
                // The query is terminal either way: its checkpoints are
                // consumed, not evicted.
                c.retire_query(q.id, rt.weight_token);
            }
        }
        let status = missed_deadline(status, q.deadline, now);
        self.st.billing.record(
            (now - master_began).as_ms(),
            rt.platform.instance_memory_bytes,
        );
        self.fleet.release(MASTER_FN, now)?;
        self.st.resilience.record_status(status);
        Ok((now, status))
    }

    /// Assembles the final report from the recorders, the fleet's cold
    /// starts, and the path-specific counters.
    fn finish(self, batch: BatchCounters, pipeline: PipelineCounters) -> Result<ServingReport> {
        let names = &self.rt.names;
        // Stage orchestrators exist only on the pipelined path, whose
        // counters carry the stage count (zero elsewhere).
        let stages = names.stages.iter().take(pipeline.stages as usize);
        let mut cold_starts = self.fleet.stats(MASTER_FN)?.0;
        for name in names.workers.iter().flatten().chain(stages) {
            cold_starts += self.fleet.stats(name)?.0;
        }
        let st = self.st;
        Ok(ServingReport {
            latency: st.latency,
            by_status: st.by_status,
            billing: st.billing,
            cold_starts,
            resilience: st.resilience,
            overload: st.overload,
            batch,
            brownout: st.brownout.map(|c| c.counters).unwrap_or_default(),
            pipeline,
            recovery: st.recovery,
        })
    }
}

/// Where the sequential master loop's arrivals come from.
enum ArrivalSource {
    /// Closed-loop clients: each issues its next query `think_time` after
    /// its previous response (or after being shed). Query ids count served
    /// queries.
    Closed {
        workload: ClosedLoop,
        ready: EventQueue<usize>,
        served: u64,
    },
    /// Open-loop Poisson arrivals, gaps drawn from the run RNG. Query ids
    /// count arrivals.
    Poisson {
        gaps: PoissonArrivals,
        queries: u64,
        next: u64,
        at: Micros,
    },
}

/// One arrival of an [`ArrivalSource`].
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: Micros,
    id: u64,
    client: usize,
}

impl ArrivalSource {
    fn next(&mut self, rng: &mut StdRng) -> Option<Arrival> {
        match self {
            ArrivalSource::Closed {
                workload,
                ready,
                served,
            } => loop {
                let (at, client) = ready.pop()?;
                if workload.try_issue() {
                    return Some(Arrival {
                        at,
                        id: *served,
                        client,
                    });
                }
            },
            ArrivalSource::Poisson {
                gaps,
                queries,
                next,
                at,
            } => (*next < *queries).then(|| {
                *at += gaps.next_gap(rng);
                *next += 1;
                Arrival {
                    at: *at,
                    id: *next - 1,
                    client: 0,
                }
            }),
        }
    }

    /// Settles arrival `a`: served with its response at `done`, or shed
    /// when `None`. A closed-loop client thinks, then issues again.
    fn settle(&mut self, a: Arrival, done: Option<Micros>) {
        if let ArrivalSource::Closed {
            workload,
            ready,
            served,
        } = self
        {
            *served += u64::from(done.is_some());
            ready.push(done.unwrap_or(a.at) + workload.think_time, a.client);
        }
    }
}

/// `n` masters, all free at time zero, keyed by when each next frees up.
fn idle_masters(n: usize) -> BinaryHeap<Reverse<Micros>> {
    (0..n).map(|_| Reverse(Micros::ZERO)).collect()
}

/// The open loop's bounded-master front door: at most `max_concurrency`
/// queries run at once and excess arrivals wait in a bounded queue.
struct AdmissionQueue {
    ov: OverloadRuntime,
    /// When each master next frees up.
    server_free: BinaryHeap<Reverse<Micros>>,
    /// Start times of admitted queries; monotone (each start is
    /// `max(arrival, earliest free server)` and both are non-decreasing),
    /// so the entries with `start > now` are exactly the queue.
    admitted_starts: VecDeque<Micros>,
}

impl AdmissionQueue {
    fn new(ov: OverloadRuntime) -> Self {
        AdmissionQueue {
            server_free: idle_masters(ov.policy.max_concurrency),
            ov,
            admitted_starts: VecDeque::new(),
        }
    }

    /// Admits or sheds an arrival at `now` with `deadline`, returning the
    /// start time it was admitted at. Shed decisions are pure functions of
    /// queue state — no RNG is consumed, so the admitted queries'
    /// fault/noise draws do not depend on how many arrivals were shed
    /// before them.
    fn admit(
        &mut self,
        now: Micros,
        deadline: Option<Micros>,
        st: &mut ServingState,
    ) -> Option<Micros> {
        while self.admitted_starts.front().is_some_and(|&s| s <= now) {
            self.admitted_starts.pop_front();
        }
        let waiting = self.admitted_starts.len();
        let min_free = self.server_free.peek().expect("max_concurrency >= 1").0;
        let start = now.max(min_free);
        let policy = &self.ov.policy;
        if waiting >= policy.queue_depth {
            st.overload.shed_queue_full += 1;
            st.shed();
            return None;
        }
        if self.ov.predicts_miss(start, deadline) {
            st.overload.shed_predicted_miss += 1;
            st.shed();
            return None;
        }
        let depth_now = waiting + usize::from(start > now);
        st.overload.peak_queue_depth = st.overload.peak_queue_depth.max(depth_now as u64);
        self.server_free.pop();
        Some(start)
    }

    /// The query admitted at `start` finished at `done`.
    fn release(&mut self, start: Micros, done: Micros) {
        self.server_free.push(Reverse(done));
        self.admitted_starts.push_back(start);
    }
}

/// A result that arrives after the deadline is a miss: the client has
/// already timed out. Honest accounting over a pleasant story.
fn missed_deadline(status: QueryStatus, deadline: Option<Micros>, done: Micros) -> QueryStatus {
    let served = matches!(status, QueryStatus::Ok | QueryStatus::Degraded);
    if served && deadline.is_some_and(|d| done > d) {
        QueryStatus::DeadlineExceeded
    } else {
        status
    }
}

/// Decorrelates the pipelined path's per-`(query, stage)` RNG streams from
/// the run seed's arrival stream.
const PIPELINE_RNG_SALT: u64 = 0x7069_7065_6c69_6e65; // "pipeline"

/// Fault-site salt for speculative re-executions: a duplicate that redrew
/// the primary's site-keyed faults would deterministically repeat its
/// straggle.
const SPEC_QUERY_SALT: u64 = 0x5350_4543; // "SPEC"

/// Fault-site salt for checkpoint-resume retries of a failed group: a
/// resumed attempt that redrew the failed attempt's site-keyed faults would
/// deterministically fail again.
const RESUME_QUERY_SALT: u64 = 0x5245_5355; // "RESU"

/// Hard cap on orchestrator crashes handled per query. The crash
/// probability is capped well below 1 ([`FaultInjector::orchestrator_crash`]
/// caps at 0.75) so endless re-fire is astronomically unlikely; the loop
/// bound makes worst-case behavior finite by construction.
const MAX_ORCH_INCARNATIONS: u32 = 16;

/// The batched loop's dispatch side: the run context, the batch-scaled
/// work profiles, the master servers, and the batch counters.
struct BatchSim<'r, 'a, 'p> {
    ctx: RunCtx<'r, 'a>,
    policy: &'p BatchPolicy,
    /// Batch-scaled work profiles for every dispatchable size (index
    /// `n - 2`); size 1 reuses the per-query profile.
    profiles: Vec<WorkProfile>,
    /// When each master next frees up.
    server_free: BinaryHeap<Reverse<Micros>>,
    /// Start times of dispatched members that have not begun service yet —
    /// the batching analogue of the open loop's admission queue. Monotone,
    /// so the entries with `start > now` are exactly the queue.
    admitted_starts: VecDeque<Micros>,
    counters: BatchCounters,
}

impl BatchSim<'_, '_, '_> {
    /// Queries waiting at `now`: members of open windows plus dispatched
    /// members that have not started.
    fn waiting(&mut self, pending: &[(Vec<(Micros, u64)>, Micros)], now: Micros) -> usize {
        while self.admitted_starts.front().is_some_and(|&s| s <= now) {
            self.admitted_starts.pop_front();
        }
        pending.iter().map(|(m, _)| m.len()).sum::<usize>() + self.admitted_starts.len()
    }

    /// Dispatches one formed batch as a single master execution: picks the
    /// batch-1 fast path or the `n`-scaled work profile, runs it through
    /// the master loop (breakers, deadline cancellation), and records every
    /// member's latency from its own arrival.
    fn dispatch(
        &mut self,
        class_idx: usize,
        members: Vec<(Micros, u64)>,
        close_at: Micros,
        size_close: bool,
        level: BrownoutLevel,
        rng: &mut StdRng,
    ) -> Result<()> {
        let rt = self.ctx.rt;
        let n = members.len();
        debug_assert!(n > 0, "a batch has at least one member");
        let batch = &mut self.counters;
        batch.batches += 1;
        batch.largest_batch = batch.largest_batch.max(n as u64);
        if size_close {
            batch.size_closes += 1;
        } else {
            batch.window_closes += 1;
        }
        let work = if n == 1 {
            // Batch-1 fast path: the per-query profile, no widened work.
            batch.batch_one_fast_path += 1;
            &rt.work
        } else {
            batch.batched_queries += n as u64;
            &self.profiles[n - 2]
        };
        // The batch carries the earliest member's deadline into the
        // fork-join cancellation machinery; its first member's index keys
        // fault sampling.
        let (first_arrival, first_q) = members[0];
        let class = &self.policy.classes[class_idx];
        let q = QueryCtx {
            id: first_q,
            deadline: class
                .deadline_ms
                .is_finite()
                .then(|| first_arrival + Micros::from_ms(class.deadline_ms)),
            level,
            work,
        };
        let min_free = self.server_free.pop().expect("max_concurrency >= 1").0;
        let start = close_at.max(min_free);
        self.admitted_starts.extend(std::iter::repeat_n(start, n));
        let window = self.ctx.st.health_window();
        let (done, status) = self.ctx.run_query(&q, start, rng)?;
        let st = &mut self.ctx.st;
        st.observe(window);
        self.server_free.push(Reverse(done));
        // Every member shares the batch's terminal status; latency is
        // measured from each member's own arrival, so window wait counts.
        for (i, &(arrival, _)) in members.iter().enumerate() {
            st.record(arrival, done, status);
            if i > 0 {
                // `run_query` recorded the first member's status.
                st.resilience.record_status(status);
            }
        }
        Ok(())
    }
}

/// Per-query bookkeeping inside the pipelined serving loop.
#[derive(Debug, Clone, Copy)]
struct PipeQuery {
    arrival: Micros,
    deadline: Option<Micros>,
    level: BrownoutLevel,
    /// Non-terminal status accumulated so far (`Ok`, sticky `Degraded`).
    status: QueryStatus,
    /// First-attempt `(count, successes)` produced by this query's stage
    /// executions, scored into the brownout controller at finalization.
    health: (u64, u64),
    /// Orchestrator crashes this query has survived; keys crash sampling so
    /// a replacement orchestrator samples a fresh draw instead of
    /// deterministically re-crashing at the same boundary.
    incarnation: u32,
    /// Cumulative stage execution time in milliseconds — the work a full
    /// restart would redo, recorded in each boundary checkpoint.
    elapsed_ms: f64,
}

impl Default for PipeQuery {
    fn default() -> Self {
        PipeQuery {
            arrival: Micros::ZERO,
            deadline: None,
            level: BrownoutLevel::Full,
            status: QueryStatus::Ok,
            health: (0, 0),
            incarnation: 0,
            elapsed_ms: 0.0,
        }
    }
}

/// The pipelined serving loop's mutable state: the run context, per-stage
/// lanes, bounded dispatch queues, the parking list that implements
/// backpressure, and the completion-event heap. Everything runs
/// sequentially on the caller over a totally ordered event stream — see
/// [`ForkJoinRuntime::serve_open_loop_pipelined`] for the determinism
/// argument.
struct PipelineSim<'r, 'a> {
    ctx: RunCtx<'r, 'a>,
    policy: PipelinePolicy,
    seed: u64,
    stages: usize,
    counters: PipelineCounters,
    /// Free orchestrator lanes per stage.
    free: Vec<usize>,
    /// Bounded per-stage dispatch queues; stage 0's doubles as the
    /// admission queue. Invariant: a stage with a free lane has an empty
    /// queue.
    queues: Vec<VecDeque<u64>>,
    /// `parked[s]`: queries that finished stage `s` but found stage
    /// `s + 1`'s queue full. They hold their stage-`s` lane until a
    /// downstream slot opens — backpressure propagates upstream as lost
    /// lanes, never as dropped queries.
    parked: Vec<VecDeque<u64>>,
    /// Per-query slots, indexed by query id.
    q: Vec<PipeQuery>,
    /// Pending stage completions, totally ordered by
    /// `(virtual time, stage, query)`.
    events: BinaryHeap<Reverse<(Micros, u32, u64)>>,
}

impl<'r> PipelineSim<'r, '_> {
    /// RNG for query `q`'s execution at stage `s`: a pure function of
    /// `(run seed, q, s)`, so event interleaving can never shift which
    /// draws an execution sees.
    fn stage_rng(&self, q: u64, s: usize) -> StdRng {
        StdRng::seed_from_u64(replication_seed(
            self.seed ^ PIPELINE_RNG_SALT,
            q * self.stages as u64 + s as u64,
        ))
    }

    /// Replay analogue of [`Self::stage_rng`] for a replacement
    /// orchestrator's re-executions after crash number `incarnation`: a
    /// decorrelated noise stream, so a restarted stage does not redraw the
    /// exact jitter that accompanied the crash. Faults stay site-keyed by
    /// `(query, group, part, attempt)` and therefore repeat — a stage that
    /// succeeded before the crash succeeds again, which is what makes the
    /// restart converge.
    fn replay_rng(&self, q: u64, s: usize, incarnation: u32) -> StdRng {
        StdRng::seed_from_u64(replication_seed(
            replication_seed(self.seed ^ PIPELINE_RNG_SALT, u64::from(incarnation)),
            q * self.stages as u64 + s as u64,
        ))
    }

    /// Query `qid` as the executor sees it.
    fn query(&self, qid: u64) -> QueryCtx<'r> {
        let rt: &'r ForkJoinRuntime<'_> = self.ctx.rt;
        let slot = &self.q[qid as usize];
        QueryCtx {
            id: qid,
            deadline: slot.deadline,
            level: slot.level,
            work: &rt.work,
        }
    }

    /// Tracks queue-depth peaks after a push to stage `s`'s queue.
    fn note_queue_depth(&mut self, s: usize) {
        let depth = self.queues[s].len() as u64;
        self.counters.peak_stage_queue = self.counters.peak_stage_queue.max(depth);
        if s == 0 {
            let overload = &mut self.ctx.st.overload;
            overload.peak_queue_depth = overload.peak_queue_depth.max(depth);
        }
    }

    /// Records query `qid`'s terminal outcome at `done`: exactly one
    /// latency sample and one status tally per admitted query, plus the
    /// brownout health observation — in finalization (event) order.
    fn finalize(&mut self, qid: u64, done: Micros, status: QueryStatus) {
        let slot = self.q[qid as usize];
        let status = missed_deadline(status, slot.deadline, done);
        let st = &mut self.ctx.st;
        st.record(slot.arrival, done, status);
        st.resilience.record_status(status);
        if let Some(ctl) = st.brownout.as_mut() {
            ctl.observe(slot.health.0, slot.health.1);
        }
    }

    /// Admits, queues, or sheds the arrival of query `qid` at `now`.
    fn arrive(&mut self, qid: u64, now: Micros) -> Result<()> {
        // Brownout front door first, exactly like the other open loops.
        let Some(level) = self.ctx.st.front_door() else {
            return Ok(());
        };
        let overload = self.ctx.rt.overload.as_ref();
        let deadline = overload.and_then(|ov| ov.policy.deadline_at(now));
        // Shed decisions are pure functions of queue state — no RNG is
        // consumed, so admitted queries' draws do not depend on how many
        // arrivals were shed before them.
        if overload.is_some_and(|ov| ov.predicts_miss(now, deadline)) {
            self.ctx.st.overload.shed_predicted_miss += 1;
            self.ctx.st.shed();
            return Ok(());
        }
        if self.free[0] == 0 && self.queues[0].len() >= self.policy.queue_depth {
            self.ctx.st.overload.shed_queue_full += 1;
            self.ctx.st.shed();
            return Ok(());
        }
        self.ctx.st.overload.admitted += 1;
        self.q[qid as usize] = PipeQuery {
            arrival: now,
            deadline,
            level,
            ..PipeQuery::default()
        };
        if self.free[0] > 0 {
            self.start_or_kill(0, qid, now)?;
        } else {
            self.queues[0].push_back(qid);
            self.note_queue_depth(0);
        }
        Ok(())
    }

    /// Dispatch checkpoint: starts query `qid` on stage `s` at `t`, or —
    /// when its deadline already expired while it waited — kills it with an
    /// explicit `DeadlineExceeded` (admitted queries are never silently
    /// dropped). A kill consumes no lane.
    fn start_or_kill(&mut self, s: usize, qid: u64, t: Micros) -> Result<()> {
        if self.q[qid as usize].deadline.is_some_and(|d| t >= d) {
            self.ctx.cancel_from(s);
            self.finalize(qid, t, QueryStatus::DeadlineExceeded);
            return Ok(());
        }
        self.free[s] -= 1;
        self.exec(s, qid, t)
    }

    /// Executes stage `s` for query `qid` starting at `t` on a lane the
    /// caller already reserved: inbound hand-off transfer, then the group
    /// body (the shared fork-join engine, or orchestrator-local compute
    /// below the brownout local-only rung).
    fn exec(&mut self, s: usize, qid: u64, t: Micros) -> Result<()> {
        let rt = self.ctx.rt;
        self.counters.stage_dispatches += 1;
        let q = self.query(qid);
        let mut rng = self.stage_rng(qid, s);
        let fname = rt.names.stages[s].as_str();
        let began = self.ctx.fleet.acquire(fname, t)?.ready_at;
        let mut now = began;
        if s > 0 {
            // Inter-stage hand-off: the upstream stage ships this query's
            // activation before compute starts (stage 0 receives the
            // request payload for free, like the fork-join master).
            let start_layer = rt.plan.groups()[s].start;
            let raw = rt.model.layers()[start_layer].in_bytes();
            let bytes = rt.wire_format(q.level).wire_bytes(raw);
            now += Micros::from_ms(rt.sample_transfer_parts(&[bytes], &mut rng));
            self.counters.handoffs += 1;
        }
        let window = self.ctx.st.health_window();
        let run = if q.level >= BrownoutLevel::LocalOnly {
            self.ctx.exec_local(&q, s, now, &mut rng)
        } else {
            self.ctx.exec_group(&q, s, now, &mut rng)?
        };
        {
            let res = &self.ctx.st.resilience;
            let slot = &mut self.q[qid as usize];
            slot.health.0 += res.first_attempts - window.0;
            slot.health.1 += res.first_attempt_successes - window.1;
            if run.status == QueryStatus::Degraded {
                slot.status = QueryStatus::Degraded;
            }
        }
        let (end, status) = if matches!(run.status, QueryStatus::Ok | QueryStatus::Degraded) {
            self.checkpoint_and_crash(s, qid, began, run.end)?
        } else {
            (run.end, run.status)
        };
        // The orchestrator bills its busy window (failover replays
        // included); worker lanes billed themselves inside the group body.
        self.ctx
            .st
            .billing
            .record((end - began).as_ms(), rt.platform.instance_memory_bytes);
        self.ctx.fleet.release(fname, end)?;
        if matches!(status, QueryStatus::Ok | QueryStatus::Degraded) {
            self.events.push(Reverse((end, s as u32, qid)));
            return Ok(());
        }
        // Terminal mid-pipeline: an error response, downstream stages never
        // see the query.
        if status == QueryStatus::DeadlineExceeded {
            self.ctx.cancel_from(s + 1);
        }
        self.free[s] += 1;
        self.finalize(qid, end, status);
        self.cascade(s, end)
    }

    /// Stage-boundary recovery after query `qid` completed stage `s` at
    /// `end` (see [`RunCtx::boundary`]). A crash with a live checkpoint
    /// failover-replays — the replacement orchestrator pays only the
    /// failover delay and re-executes nothing past the checkpointed
    /// boundary; without one it re-executes the lost stages serially on
    /// this lane (the classic full restart). Returns the stage's final
    /// `(end, status)`.
    fn checkpoint_and_crash(
        &mut self,
        s: usize,
        qid: u64,
        began: Micros,
        mut end: Micros,
    ) -> Result<(Micros, QueryStatus)> {
        let slot = &mut self.q[qid as usize];
        slot.elapsed_ms += (end - began).as_ms();
        let (elapsed_ms, verdict) = (slot.elapsed_ms, slot.status);
        let mut crash = self.ctx.boundary(
            qid,
            s,
            elapsed_ms,
            verdict,
            &mut self.q[qid as usize].incarnation,
            end,
        );
        while let Some(c) = crash {
            end += Micros::from_ms(c.failover_ms);
            self.ctx.failover(&c, &mut self.q[qid as usize].status);
            // Re-execute whatever the checkpoints do not cover, serially on
            // this lane (empty on a full hit at this boundary).
            let incarnation = self.q[qid as usize].incarnation;
            for j in c.resume_from()..=s {
                let mut rng = self.replay_rng(qid, j, incarnation);
                let q = self.query(qid);
                let run = self.ctx.exec_group(&q, j, end, &mut rng)?;
                let slot = &mut self.q[qid as usize];
                match run.status {
                    QueryStatus::Ok => {}
                    QueryStatus::Degraded => slot.status = QueryStatus::Degraded,
                    terminal => return Ok((run.end, terminal)),
                }
                slot.elapsed_ms += (run.end - end).as_ms();
                end = run.end;
                let (elapsed_ms, verdict) = (slot.elapsed_ms, slot.status);
                self.ctx
                    .checkpoint(qid, j, elapsed_ms, verdict == QueryStatus::Degraded, end);
            }
            // Sample this boundary again under the replacement
            // orchestrator's own incarnation — replacements can crash too.
            crash = self
                .ctx
                .crash_at(qid, s, &mut self.q[qid as usize].incarnation, end);
        }
        Ok((end, self.q[qid as usize].status))
    }

    /// Handles the completion of stage `s` for query `qid` at `t`: advance
    /// downstream, queue, or park under backpressure.
    fn complete(&mut self, s: usize, qid: u64, t: Micros) -> Result<()> {
        if s + 1 == self.stages {
            let status = self.q[qid as usize].status;
            self.free[s] += 1;
            self.finalize(qid, t, status);
            return self.cascade(s, t);
        }
        let next = s + 1;
        if self.free[next] > 0 {
            // Invariant: a free lane means an empty queue, so the query
            // starts downstream immediately.
            self.free[s] += 1;
            self.start_or_kill(next, qid, t)?;
            self.cascade(s, t)
        } else if self.queues[next].len() < self.policy.queue_depth {
            self.queues[next].push_back(qid);
            self.note_queue_depth(next);
            self.free[s] += 1;
            self.cascade(s, t)
        } else {
            // Downstream full: park holding the stage-`s` lane.
            self.parked[s].push_back(qid);
            self.counters.backpressure_stalls += 1;
            Ok(())
        }
    }

    /// Drains stage `s`'s queue into its free lanes at `t`. Every pop opens
    /// a queue slot, which promotes the oldest query parked upstream (and
    /// recursively frees *its* lane) — backpressure releases in FIFO order,
    /// upstream-ward.
    fn cascade(&mut self, s: usize, t: Micros) -> Result<()> {
        while self.free[s] > 0 {
            let Some(qid) = self.queues[s].pop_front() else {
                break;
            };
            self.promote_into(s, t)?;
            self.start_or_kill(s, qid, t)?;
        }
        Ok(())
    }

    /// A slot opened in stage `s`'s queue: promote the oldest query parked
    /// at stage `s - 1` into it and release the lane it was holding.
    fn promote_into(&mut self, s: usize, t: Micros) -> Result<()> {
        if s == 0 {
            return Ok(());
        }
        let up = s - 1;
        if let Some(p) = self.parked[up].pop_front() {
            self.queues[s].push_back(p);
            self.note_queue_depth(s);
            self.free[up] += 1;
            self.cascade(up, t)?;
        }
        Ok(())
    }
}

/// The plan executor over the simulated platform.
#[derive(Debug, Clone)]
pub struct ForkJoinRuntime<'a> {
    model: &'a LinearModel,
    plan: &'a ExecutionPlan,
    platform: PlatformProfile,
    /// The per-query work profile of the plan.
    work: WorkProfile,
    /// Function names and worker-part offsets of the deployed plan.
    names: FunctionNames,
    injector: Option<FaultInjector>,
    policy: ResiliencePolicy,
    overload: Option<OverloadRuntime>,
    /// Correlated-outage episodes scaling the injector's failure rates per
    /// fault domain; `None` leaves the per-site sampler untouched.
    outage: Option<OutageModel>,
    /// Retry-budget policy for the fleet serving paths; `None` allows
    /// unbounded retries/hedges (the pre-budget behavior).
    retry_budget: Option<RetryBudgetPolicy>,
    /// Brownout degradation ladder for the serving loops; `None` serves
    /// every arrival at full service.
    brownout: Option<BrownoutPolicy>,
    /// Stage-level checkpointed recovery; `None` disables the checkpoint
    /// cache, resume retries, and speculation — orchestrator crashes (still
    /// sampled by the chaos config) then always restart from stage 0.
    recovery: Option<RecoveryPolicy>,
    /// Weight-identity token keying every checkpoint: a deterministic fold
    /// over the plan's partition shapes and weight bytes, so a redeployed
    /// model or repartitioned plan can never resume from a stale activation.
    weight_token: u64,
    /// Predicted p95 of the whole plan (sum over groups of the slowest
    /// partition's attempt p95) — the denominator that prices a resumed
    /// retry at its stage's share of the plan.
    plan_p95_total_ms: f64,
    /// Wire encoding of fork/join payloads: every sampled transfer maps its
    /// raw f32 activation bytes through this format, mirroring
    /// `PerfModel::wire_bytes` so simulation and prediction price the same
    /// payloads.
    transfer_format: TransferFormat,
}

impl<'a> ForkJoinRuntime<'a> {
    /// Prepares a runtime for a validated plan with the default
    /// [`ResiliencePolicy`]. A nonzero
    /// `PlatformProfile::invocation_failure_rate` is expressed as a
    /// [`ChaosConfig::invoke_only`] injector (fixed seed), so the legacy
    /// knob and explicit chaos configs share one failure model.
    ///
    /// # Errors
    ///
    /// Returns plan-validation errors; the plan must fit the platform's
    /// model memory budget.
    pub fn new(
        model: &'a LinearModel,
        plan: &'a ExecutionPlan,
        platform: PlatformProfile,
    ) -> Result<Self> {
        plan.validate(model, platform.model_memory_budget)?;
        let work = WorkProfile::new(&platform, plan.analyses(model)?);
        let injector = if platform.invocation_failure_rate > 0.0 {
            let rate = platform.invocation_failure_rate.min(1.0);
            Some(ChaosConfig::invoke_only(rate, LEGACY_FAILURE_SEED).build()?)
        } else {
            None
        };
        let plan_p95_total_ms = work.remaining_p95_ms(0);
        let weight_token = weight_identity_token(&work.analyses);
        let names = FunctionNames::new(plan, &work.analyses);
        Ok(ForkJoinRuntime {
            model,
            plan,
            platform,
            work,
            names,
            injector,
            policy: ResiliencePolicy::default(),
            overload: None,
            outage: None,
            retry_budget: None,
            brownout: None,
            recovery: None,
            weight_token,
            plan_p95_total_ms,
            transfer_format: TransferFormat::default(),
        })
    }

    /// Sets the wire encoding of fork/join payloads. Pair with a
    /// [`gillis_perf::PerfModel`] carrying the same format so the planner
    /// optimized for the bytes this runtime actually ships.
    pub fn with_transfer_format(mut self, format: TransferFormat) -> Self {
        self.transfer_format = format;
        self
    }

    /// Wire encoding of payloads served at brownout `level`: from the int8
    /// rung down, payloads ship quantized regardless of the configured
    /// format — a browned-out platform sheds bytes before it sheds queries.
    fn wire_format(&self, level: BrownoutLevel) -> TransferFormat {
        if level >= BrownoutLevel::Int8 {
            TransferFormat::Int8
        } else {
            self.transfer_format
        }
    }

    /// Replaces the fault injector with one built from `config` (overriding
    /// any injector derived from the platform's legacy failure-rate knob).
    ///
    /// # Errors
    ///
    /// Returns the config's validation error.
    pub fn with_chaos(mut self, config: ChaosConfig) -> Result<Self> {
        self.injector = Some(config.build()?);
        Ok(self)
    }

    /// Sets the resilience policy.
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables correlated-outage episodes: Markov on/off windows per fault
    /// domain (platform, worker lane, memory tier) that multiply the
    /// injector's invoke-failure and straggler rates by the configured
    /// severity while active. Episode membership is a pure function of
    /// `(outage seed, domain, virtual-time window)`, so serving stays
    /// bit-identical across thread counts. Without a chaos injector the
    /// model is inert — there are no rates to scale.
    ///
    /// # Errors
    ///
    /// Returns the config's validation error.
    pub fn with_outage(mut self, config: OutageConfig) -> Result<Self> {
        self.outage = Some(config.build().map_err(CoreError::from)?);
        Ok(self)
    }

    /// Enables an adaptive retry budget on the fleet serving paths: a
    /// deterministic token bucket, refilled by successful first attempts,
    /// that every retry and hedge must debit before launching. When the
    /// bucket is dry the lane falls through to local fallback instead of
    /// amplifying load into the outage.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_retry_budget(mut self, policy: RetryBudgetPolicy) -> Result<Self> {
        policy.validate().map_err(CoreError::from)?;
        self.retry_budget = Some(policy);
        Ok(self)
    }

    /// Enables the brownout degradation ladder on the serving loops: a
    /// windowed first-attempt health score steps service down through
    /// full → no-hedging → int8 wire → local-fallback-only → shed, and
    /// back up only after consecutive clean windows (hysteresis).
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_brownout(mut self, policy: BrownoutPolicy) -> Result<Self> {
        policy.validate().map_err(CoreError::from)?;
        self.brownout = Some(policy);
        Ok(self)
    }

    /// Enables stage-level checkpointed recovery on the serving paths:
    /// completed layer groups store deterministic boundary checkpoints so
    /// failed groups retry from the last checkpointed boundary, straggler
    /// groups past `spec_factor` × their predicted p95 get a speculative
    /// duplicate (first result wins), orchestrator crashes failover-replay
    /// instead of restarting from stage 0, and retry-budget debits price
    /// resumed attempts at their marginal cost — the stage's share of the
    /// plan rather than a full token.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Result<Self> {
        policy.validate().map_err(CoreError::from)?;
        self.recovery = Some(policy);
        Ok(self)
    }

    /// Marginal retry-budget cost of re-running one partition whose attempt
    /// p95 is `p95_ms`: with stage-level recovery a retry or hedge redoes
    /// only its own stage, so it debits the stage's share of the plan;
    /// without recovery every retry implicitly restarts the query and costs
    /// a full token — the pre-recovery behavior, unchanged.
    fn retry_unit_cost(&self, p95_ms: f64) -> f64 {
        if self.recovery.is_some() {
            gillis_perf::marginal_retry_cost(p95_ms, self.plan_p95_total_ms)
        } else {
            1.0
        }
    }

    /// Outage rate multiplier for the orchestrator fault domain at virtual
    /// time `now_ms` — scales crash sampling at stage boundaries, `1.0`
    /// without an outage model.
    fn orchestrator_outage_multiplier(&self, now_ms: f64) -> f64 {
        self.outage
            .as_ref()
            .map_or(1.0, |o| o.orchestrator_multiplier(now_ms))
    }

    /// Outage rate multiplier for a lane at virtual time `now_ms`: the
    /// product of every active enabled domain's severity, `1.0` when no
    /// outage model is installed or no episode covers the instant.
    fn outage_multiplier(&self, group: u32, part: u32, now_ms: f64) -> f64 {
        let memory_mb = self.platform.instance_memory_bytes / 1_000_000;
        self.outage
            .as_ref()
            .map_or(1.0, |o| o.multiplier(group, part, memory_mb, now_ms))
    }

    /// Enables overload protection: a bounded admission queue with
    /// deadline-derived shedding in [`Self::serve_open_loop`], deadline
    /// propagation with cooperative cancellation into every fork-join
    /// group, and per-worker-lane circuit breakers. The plan's predicted
    /// warm latency (analytic performance model) feeds the
    /// shed-on-predicted-miss decision; use
    /// [`Self::with_overload_predicted`] to supply a prediction from a
    /// profiled model instead.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error, or prediction errors.
    pub fn with_overload(self, policy: OverloadPolicy) -> Result<Self> {
        let perf = gillis_perf::PerfModel::analytic(&self.platform);
        let predicted_ms = crate::predict::predict_plan(self.model, self.plan, &perf)?.latency_ms;
        self.with_overload_predicted(policy, predicted_ms)
    }

    /// [`Self::with_overload`] with an explicit predicted warm latency for
    /// the plan (e.g. `PlanPrediction::latency_ms` from a profiled
    /// performance model).
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error, or
    /// [`CoreError::InvalidArgument`] for a non-positive prediction.
    pub fn with_overload_predicted(
        mut self,
        policy: OverloadPolicy,
        predicted_ms: f64,
    ) -> Result<Self> {
        policy.validate().map_err(CoreError::from)?;
        // NaN-rejecting: the prediction must be definitely positive.
        if !(predicted_ms.is_finite() && predicted_ms > 0.0) {
            return Err(CoreError::InvalidArgument(format!(
                "predicted latency must be positive and finite: {predicted_ms}"
            )));
        }
        self.overload = Some(OverloadRuntime {
            policy,
            predicted_ms,
        });
        Ok(self)
    }

    /// Fresh per-lane circuit breakers shaped like the plan (one per
    /// partition slot, including master slots for stable indexing), or
    /// `None` when the breaker policy is disabled.
    fn breaker_bank(&self, policy: &OverloadPolicy) -> Option<Vec<Vec<CircuitBreaker>>> {
        policy.breaker.enabled().then(|| {
            self.work
                .analyses
                .iter()
                .map(|a| vec![CircuitBreaker::new(policy.breaker); a.partitions.len()])
                .collect()
        })
    }

    fn sample_compute_ms<R: RngExt + ?Sized>(&self, work: &PartitionWork, rng: &mut R) -> f64 {
        work.flops
            .iter()
            .map(|&(class, flops)| self.platform.compute_ms_noisy(flops, class, rng))
            .sum()
    }

    /// Samples the master-side delay of exchanging one payload per part with
    /// `sizes.len()` functions: payload streams serialize over the master's
    /// egress (one transfer of the total bytes) while the per-invocation
    /// jitters overlap and cost their maximum. This is *the* fork/join
    /// model — [`ForkJoinRuntime::simulate_query`] and the fleet path
    /// ([`ForkJoinRuntime::run_query_at`] / workload serving) both sample
    /// it, so single-query simulation and fleet serving agree by
    /// construction, and both match the order-statistic predictor
    /// (`CommModel::group_transfer_parts_ms`) in expectation.
    fn sample_transfer_parts<R: RngExt + ?Sized>(&self, sizes: &[u64], rng: &mut R) -> f64 {
        let total: u64 = sizes.iter().sum();
        let jitter_max = (0..sizes.len())
            .map(|_| self.platform.invoke_latency_ms.sample(rng))
            .fold(0.0f64, f64::max);
        jitter_max + self.platform.transfer_ms(total)
    }

    /// Samples one worker-lane execution: invocation jitter (unless the fork
    /// transfer covered it), noisy compute, the injected fault at `site`,
    /// and the per-attempt timeout cap. Both simulated serving paths run
    /// every lane through this — the single shared failure model.
    fn sample_lane<R: RngExt + ?Sized>(
        &self,
        site: FaultSite,
        work: &PartitionWork,
        jitter_covered_by_fork: bool,
        timeout_ms: f64,
        now_ms: f64,
        rng: &mut R,
    ) -> LaneExec {
        let jitter_ms = if jitter_covered_by_fork {
            0.0
        } else {
            self.platform.invoke_latency_ms.sample(rng)
        };
        let compute_ms = self.sample_compute_ms(work, rng);
        let mult = self.outage_multiplier(site.group, site.part, now_ms);
        let fault = self
            .injector
            .as_ref()
            .and_then(|inj| inj.fault_scaled(site, mult));
        let (natural_ms, ok) = match fault {
            None => (compute_ms, true),
            // Fails right after the invocation round-trip.
            Some(Fault::InvokeFailure) => (0.0, false),
            Some(Fault::Crash { work_done }) => (work_done * compute_ms, false),
            Some(Fault::Straggler { slowdown }) => (slowdown * compute_ms, true),
            // Full compute, but the master rejects the response at the join.
            Some(Fault::Corrupt) => (compute_ms, false),
        };
        let timed_out = jitter_ms + natural_ms > timeout_ms;
        LaneExec {
            jitter_ms,
            run_ms: if timed_out {
                (timeout_ms - jitter_ms).max(0.0)
            } else {
                natural_ms
            },
            billed_ms: natural_ms,
            success: ok && !timed_out,
            // A corrupted payload only reaches the join if the master
            // actually waited for it.
            corrupt: !timed_out && matches!(fault, Some(Fault::Corrupt)),
            timed_out,
        }
    }

    /// Simulates one query on warm instances, sampling compute noise and
    /// communication jitter. Equivalent to
    /// [`simulate_query_at`](Self::simulate_query_at) with query index 0.
    pub fn simulate_query<R: RngExt + ?Sized>(&self, rng: &mut R) -> QueryOutcome {
        self.simulate_query_at(0, rng)
    }

    /// Simulates warm query number `query`: the index keys fault sampling
    /// ([`FaultSite::query`]), so distinct queries draw independent faults
    /// while the same `(chaos seed, query)` pair always faults identically —
    /// whatever thread runs it.
    ///
    /// Each group runs through the serving paths' own group engine, with
    /// the same retries, hedges, timeouts and local fallback, on a fleet
    /// whose instances start instantly; the query starts at virtual time
    /// zero and has no deadline, breakers, retry budget, or brownout.
    pub fn simulate_query_at<R: RngExt + ?Sized>(&self, query: u64, rng: &mut R) -> QueryOutcome {
        self.simulate_on(self.warm_fleet(), query, rng)
    }

    /// The simulator's fleet: every worker function on this platform with
    /// instant instance starts, so a simulated warm query never pays a cold
    /// start.
    fn warm_fleet(&self) -> Fleet {
        let mut platform = self.platform.clone();
        platform.cold_start_ms = 0.0;
        platform.storage_latency_ms = 0.0;
        let mut fleet = Fleet::new(platform);
        for name in self.names.workers.iter().flatten() {
            fleet
                .deploy(FunctionSpec {
                    name: name.clone(),
                    memory_bytes: self.platform.instance_memory_bytes,
                    package_bytes: 0,
                })
                .expect("worker functions fit their own platform");
        }
        fleet
    }

    /// [`Self::simulate_query_at`] on a given warm fleet.
    fn simulate_on<R: RngExt + ?Sized>(
        &self,
        fleet: Fleet,
        query: u64,
        rng: &mut R,
    ) -> QueryOutcome {
        let mut ctx = RunCtx {
            rt: self,
            fleet,
            st: ServingState {
                budget: None,
                brownout: None,
                checkpoints: None,
                ..ServingState::new(self)
            },
            breakers: None,
        };
        let q = QueryCtx {
            id: query,
            deadline: None,
            level: BrownoutLevel::Full,
            work: &self.work,
        };
        let mut now = Micros::ZERO;
        let mut group_ms = Vec::with_capacity(self.work.analyses.len());
        let mut status = QueryStatus::Ok;
        for gi in 0..self.work.analyses.len() {
            let run = ctx
                .exec_group(&q, gi, now, rng)
                .expect("the warm fleet deploys every worker function");
            now = run.end;
            group_ms.push(run.split_ms);
            match run.status {
                QueryStatus::Ok => {}
                QueryStatus::Degraded => status = QueryStatus::Degraded,
                // The master gives up mid-plan and emits an error response.
                _ => {
                    status = QueryStatus::Failed;
                    break;
                }
            }
        }
        QueryOutcome {
            latency_ms: now.as_ms(),
            group_ms,
            status,
            resilience: ctx.st.resilience,
        }
    }

    /// Mean latency over `n` simulated warm queries.
    ///
    /// Replications are independent Monte-Carlo draws, each seeded with
    /// [`replication_seed`]`(seed, i)` and evaluated on the shared
    /// [`gillis_pool::Pool`]; the sum reduces sequentially in replication
    /// order, so the result is bit-identical for any `GILLIS_THREADS`.
    pub fn mean_latency_ms(&self, n: usize, seed: u64) -> f64 {
        self.mean_latency_ms_with_threads(n, seed, gillis_pool::gillis_threads())
    }

    /// [`mean_latency_ms`](Self::mean_latency_ms) with an explicit thread
    /// count (`threads <= 1` runs inline on the caller).
    pub fn mean_latency_ms_with_threads(&self, n: usize, seed: u64, threads: usize) -> f64 {
        self.simulate_many_with_threads(n, seed, threads)
            .latency
            .mean()
    }

    /// Simulates `n` independent warm queries and aggregates their latency
    /// distribution and resilience counters. Query `i` uses RNG seed
    /// [`replication_seed`]`(seed, i)` and fault-site query index `i`.
    pub fn simulate_many(&self, n: usize, seed: u64) -> SimulationReport {
        self.simulate_many_with_threads(n, seed, gillis_pool::gillis_threads())
    }

    /// [`simulate_many`](Self::simulate_many) with an explicit thread count.
    ///
    /// Replications run on the shared pool but reduce sequentially in
    /// replication order on the caller, so the report — latencies,
    /// percentiles, and every counter — is bit-identical for any
    /// `GILLIS_THREADS`.
    pub fn simulate_many_with_threads(
        &self,
        n: usize,
        seed: u64,
        threads: usize,
    ) -> SimulationReport {
        let n = n.max(1);
        let fleet = self.warm_fleet();
        let run_one = |i: usize| {
            let mut rng = StdRng::seed_from_u64(replication_seed(seed, i as u64));
            let q = self.simulate_on(fleet.clone(), i as u64, &mut rng);
            (q.latency_ms, q.status, q.resilience)
        };
        let outcomes: Vec<(f64, QueryStatus, ResilienceCounters)> = if threads <= 1 || n == 1 {
            (0..n).map(run_one).collect()
        } else {
            gillis_pool::Pool::global().run(n, run_one)
        };
        let mut latency = LatencyStats::new();
        let mut resilience = ResilienceCounters::default();
        for (ms, status, c) in outcomes {
            latency.record(ms);
            resilience.absorb(&c);
            resilience.record_status(status);
        }
        SimulationReport {
            latency,
            resilience,
        }
    }

    /// Deploys the plan's functions into a fleet: one master (holding the
    /// partitions it computes) and one function per worker partition.
    ///
    /// # Errors
    ///
    /// Propagates deployment errors (e.g. out-of-memory specs).
    pub fn deploy(&self, fleet: &mut Fleet) -> Result<()> {
        let memory_bytes = self.platform.instance_memory_bytes;
        fleet.deploy(FunctionSpec {
            name: MASTER_FN.into(),
            memory_bytes,
            package_bytes: self.plan.master_weight_bytes(self.model)?,
        })?;
        for (gi, a) in self.work.analyses.iter().enumerate() {
            let parts = &a.partitions[self.names.worker_offset[gi]..];
            for (name, p) in self.names.workers[gi].iter().zip(parts) {
                fleet.deploy(FunctionSpec {
                    name: name.clone(),
                    memory_bytes,
                    package_bytes: p.weight_bytes,
                })?;
            }
        }
        Ok(())
    }

    /// Pre-warms `count` instances of the master and of every worker
    /// function (Gillis's concurrent warm-up pings, §III-A).
    ///
    /// # Errors
    ///
    /// Propagates fleet errors.
    pub fn prewarm(&self, fleet: &mut Fleet, count: usize) -> Result<()> {
        fleet.prewarm(MASTER_FN, count, Micros::ZERO)?;
        for name in self.names.workers.iter().flatten() {
            fleet.prewarm(name, count, Micros::ZERO)?;
        }
        Ok(())
    }

    /// A fresh serving run: a deployed fleet pre-warmed with `prewarm`
    /// instances per function, fresh serving state, and the breaker bank.
    fn run_ctx(&self, prewarm: usize) -> Result<RunCtx<'_, 'a>> {
        let mut fleet = Fleet::new(self.platform.clone());
        self.deploy(&mut fleet)?;
        self.prewarm(&mut fleet, prewarm)?;
        Ok(RunCtx {
            rt: self,
            fleet,
            st: ServingState::new(self),
            breakers: self
                .overload
                .as_ref()
                .and_then(|ov| self.breaker_bank(&ov.policy)),
        })
    }

    /// Serves a closed-loop workload end to end: warm pools, cold starts,
    /// and per-function billing. Clients issue their first queries at time
    /// zero and re-issue upon response.
    ///
    /// Functions are pre-warmed with one instance per client before the
    /// first query, mirroring Gillis's periodic warm-up pings (§III-A): the
    /// paper amortizes cold starts across "numerous inference queries" and
    /// measures warm behaviour. Closed-loop clients self-limit, so there is
    /// no admission queue; deadlines and breakers still apply, and a client
    /// shed by the brownout ladder thinks and retries later.
    ///
    /// # Errors
    ///
    /// Propagates deployment and fleet errors.
    pub fn serve_workload(&self, workload: ClosedLoop, seed: u64) -> Result<ServingReport> {
        let prewarm = workload.clients;
        let mut ready = EventQueue::new();
        for client in 0..workload.clients {
            ready.push(Micros::ZERO, client);
        }
        let source = ArrivalSource::Closed {
            workload,
            ready,
            served: 0,
        };
        self.serve_sequential(source, None, prewarm, seed)
    }

    /// Serves an open-loop Poisson arrival stream of `queries` queries at
    /// `rate_per_sec`, against pre-warmed pools sized for `prewarm_clients`
    /// concurrent queries. Unlike the closed loop, arrivals do not wait for
    /// responses.
    ///
    /// Without an [`OverloadPolicy`] (see [`Self::with_overload`]), every
    /// arrival is served immediately — overload shows up as cold-start
    /// scale-out beyond the pre-warmed pool (the §II-A motivation for
    /// serverless burst capacity). With a policy, the master front door is
    /// modelled honestly: at most `max_concurrency` queries run at once,
    /// excess arrivals wait in a bounded queue (pre-warmed to at least the
    /// concurrency so capacity never pays cold starts), and arrivals are
    /// shed — counted, never silently dropped — when the queue is full or
    /// when predicted wait plus predicted plan latency already exceeds the
    /// deadline. Admitted queries carry their deadline into the fork-join
    /// groups (shrinking per-attempt timeouts and cancelling doomed work).
    ///
    /// The arrival process, every shed decision, and every query outcome
    /// are pure functions of `seed` and the query index — the loop is
    /// sequential, so reports are bit-identical for any `GILLIS_THREADS`.
    ///
    /// # Errors
    ///
    /// Propagates deployment and fleet errors, and rejects non-positive
    /// rates.
    pub fn serve_open_loop(
        &self,
        rate_per_sec: f64,
        queries: usize,
        prewarm_clients: usize,
        seed: u64,
    ) -> Result<ServingReport> {
        let source = ArrivalSource::Poisson {
            gaps: PoissonArrivals::new(rate_per_sec)?,
            queries: queries as u64,
            next: 0,
            at: Micros::ZERO,
        };
        // Warm the whole admission capacity: a policy bounds concurrency at
        // `max_concurrency`, so warming less would just shift early admitted
        // queries onto cold starts.
        let prewarm = self.overload.as_ref().map_or(prewarm_clients, |ov| {
            prewarm_clients.max(ov.policy.max_concurrency)
        });
        let admission = self.overload.clone().map(AdmissionQueue::new);
        self.serve_sequential(source, admission, prewarm, seed)
    }

    /// The sequential master loop behind [`Self::serve_workload`] and
    /// [`Self::serve_open_loop`]: each arrival passes the brownout front
    /// door and the optional admission queue, then runs to completion on
    /// the fork-join master, drawing from the run RNG seeded by `seed`.
    fn serve_sequential(
        &self,
        mut source: ArrivalSource,
        mut admission: Option<AdmissionQueue>,
        prewarm: usize,
        seed: u64,
    ) -> Result<ServingReport> {
        let mut ctx = self.run_ctx(prewarm)?;
        let mut rng = StdRng::seed_from_u64(seed);
        while let Some(a) = source.next(&mut rng) {
            // The ladder classifies before any other admission decision.
            let Some(level) = ctx.st.front_door() else {
                source.settle(a, None);
                continue;
            };
            let deadline = self
                .overload
                .as_ref()
                .and_then(|ov| ov.policy.deadline_at(a.at));
            let start = match admission.as_mut() {
                Some(queue) => match queue.admit(a.at, deadline, &mut ctx.st) {
                    Some(start) => start,
                    None => {
                        source.settle(a, None);
                        continue;
                    }
                },
                None => a.at,
            };
            if self.overload.is_some() {
                ctx.st.overload.admitted += 1;
            }
            let q = QueryCtx {
                id: a.id,
                deadline,
                level,
                work: &self.work,
            };
            let window = ctx.st.health_window();
            let (done, status) = ctx.run_query(&q, start, &mut rng)?;
            ctx.st.observe(window);
            if let Some(queue) = admission.as_mut() {
                queue.release(start, done);
            }
            // Latency is measured from *arrival*: queue wait counts.
            ctx.st.record(a.at, done, status);
            source.settle(a, Some(done));
        }
        ctx.finish(BatchCounters::default(), PipelineCounters::default())
    }

    /// Serves an open-loop Poisson stream with adaptive multi-SLO batching:
    /// arrivals are assigned an SLO class (a pure hash of `(seed, query)`
    /// weighted by the class shares), accumulate per class up to the
    /// schedule's deadline-derived window, and dispatch as one batched
    /// master execution that shares a single fork-join invocation wave.
    ///
    /// Batch formation is a pure function of the virtual arrival times and
    /// `seed`: windows close lazily at the next arrival (nothing else
    /// advances virtual time), classes flush in `(close time, class index)`
    /// order, and no decision consults the thread pool — reports are
    /// bit-identical for any `GILLIS_THREADS`.
    ///
    /// The overload machinery composes: when the runtime carries an
    /// [`OverloadPolicy`] its concurrency bounds the master servers, its
    /// queue depth bounds the total members waiting in windows, and its
    /// breaker bank routes around sick lanes. Independent of that policy, a
    /// query whose class deadline is finite is shed on arrival when the
    /// predicted batch completion (window close, server wait, and the
    /// schedule's predicted batched latency) already misses its deadline —
    /// a query is never batched past its shed threshold. Each batch carries
    /// the *first* member's deadline (the earliest) into the fork-join
    /// cancellation machinery.
    ///
    /// A window that closes with a single member takes the batch-1 fast
    /// path: the unscaled per-query work profile, counted in
    /// [`BatchCounters::batch_one_fast_path`].
    ///
    /// The runtime must be built on the platform the schedule was planned
    /// for (`platform.with_memory_bytes(schedule.memory_bytes)`).
    ///
    /// # Errors
    ///
    /// Propagates deployment and fleet errors; rejects invalid policies,
    /// mismatched schedules, and non-positive rates.
    pub fn serve_open_loop_batched(
        &self,
        policy: &BatchPolicy,
        schedule: &BatchSchedule,
        rate_per_sec: f64,
        queries: usize,
        prewarm_clients: usize,
        seed: u64,
    ) -> Result<ServingReport> {
        policy.validate().map_err(CoreError::from)?;
        if schedule.classes.len() != policy.classes.len() {
            return Err(CoreError::InvalidArgument(format!(
                "schedule has {} classes but the policy has {}",
                schedule.classes.len(),
                policy.classes.len()
            )));
        }
        if schedule.memory_bytes != self.platform.instance_memory_bytes {
            return Err(CoreError::InvalidArgument(format!(
                "schedule was planned for {} B instances but the runtime platform has {} B; \
                 build the runtime on platform.with_memory_bytes(schedule.memory_bytes)",
                schedule.memory_bytes, self.platform.instance_memory_bytes
            )));
        }
        let arrivals = PoissonArrivals::new(rate_per_sec)?;
        let (max_concurrency, queue_depth) = match &self.overload {
            Some(ov) => (ov.policy.max_concurrency, ov.policy.queue_depth),
            None => (prewarm_clients.max(1), usize::MAX),
        };
        let max_n = schedule.classes.iter().map(|c| c.batch).max().unwrap_or(1);
        let profiles = (2..=max_n)
            .map(|n| {
                let scaled = self
                    .work
                    .analyses
                    .iter()
                    .map(|a| {
                        crate::predict::scale_analysis_for_batch(a, n, policy.amortized_fraction)
                    })
                    .collect();
                WorkProfile::new(&self.platform, scaled)
            })
            .collect();
        let mut sim = BatchSim {
            ctx: self.run_ctx(prewarm_clients.max(max_concurrency))?,
            policy,
            profiles,
            server_free: idle_masters(max_concurrency),
            admitted_starts: VecDeque::new(),
            counters: BatchCounters::default(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        // Per-class accumulation windows.
        let mut pending: Vec<(Vec<(Micros, u64)>, Micros)> = policy
            .classes
            .iter()
            .map(|_| (Vec::new(), Micros::ZERO))
            .collect();
        // The earliest non-empty window by (close time, class index), or
        // `None` — batches flush in this deterministic order.
        fn due(pending: &[(Vec<(Micros, u64)>, Micros)]) -> Option<usize> {
            pending
                .iter()
                .enumerate()
                .filter(|(_, (members, _))| !members.is_empty())
                .min_by_key(|&(ci, &(_, close_at))| (close_at, ci))
                .map(|(ci, _)| ci)
        }
        // Batched dispatches serve at the ladder level current when the
        // window closes, capped at the int8 rung: members below it never
        // reach a window (they dispatch solo at arrival).
        fn batch_dispatch_level(brownout: Option<&BrownoutController>) -> BrownoutLevel {
            brownout.map_or(BrownoutLevel::Full, |c| c.level().min(BrownoutLevel::Int8))
        }
        let mut now = Micros::ZERO;
        for q in 0..queries {
            now += arrivals.next_gap(&mut rng);
            // Close every window that expired before this arrival. Nothing
            // else advances virtual time, so lazy closing is exact.
            while let Some(ci) = due(&pending).filter(|&ci| pending[ci].1 <= now) {
                let members = std::mem::take(&mut pending[ci].0);
                let level = batch_dispatch_level(sim.ctx.st.brownout.as_ref());
                sim.dispatch(ci, members, pending[ci].1, false, level, &mut rng)?;
            }
            // Shed decisions are pure functions of window and queue state —
            // no RNG is consumed, so the admitted queries' draws do not
            // depend on how many arrivals were shed before them.
            let waiting = sim.waiting(&pending, now);
            let st = &mut sim.ctx.st;
            // Brownout front door: below the int8 rung the ladder bypasses
            // batching entirely — windows add latency a browned-out platform
            // cannot afford, and local-fallback members cannot share a
            // fork-join wave with normal ones — so those arrivals dispatch
            // solo below.
            let Some(level) = st.front_door() else {
                continue;
            };
            let solo = st
                .brownout
                .as_ref()
                .is_some_and(|c| c.level() >= BrownoutLevel::LocalOnly);
            let ci = policy.class_of(seed, q as u64);
            let class = &policy.classes[ci];
            let cs = &schedule.classes[ci];
            if waiting >= queue_depth {
                st.overload.shed_queue_full += 1;
                st.shed();
                continue;
            }
            if solo {
                st.overload.admitted += 1;
                sim.dispatch(ci, vec![(now, q as u64)], now, false, level, &mut rng)?;
                continue;
            }
            if class.deadline_ms.is_finite() {
                // Never batch a query past its shed threshold: if the
                // predicted completion of the batch it would join already
                // misses its deadline, shed now instead of queueing doomed
                // work.
                let est_close = if pending[ci].0.is_empty() {
                    now + Micros::from_ms(cs.window_ms)
                } else {
                    pending[ci].1
                };
                let min_free = sim.server_free.peek().expect("max_concurrency >= 1").0;
                let est_done = est_close.max(min_free) + Micros::from_ms(cs.predicted_ms);
                if est_done > now + Micros::from_ms(class.deadline_ms) {
                    st.overload.shed_predicted_miss += 1;
                    st.shed();
                    continue;
                }
            }
            st.overload.admitted += 1;
            if pending[ci].0.is_empty() {
                pending[ci].1 = now + Micros::from_ms(cs.window_ms);
            }
            pending[ci].0.push((now, q as u64));
            if pending[ci].0.len() >= cs.batch {
                let members = std::mem::take(&mut pending[ci].0);
                let level = batch_dispatch_level(st.brownout.as_ref());
                sim.dispatch(ci, members, now, true, level, &mut rng)?;
            }
            // Queries waiting after any flush — in open windows or
            // dispatched but not yet started — are the queue depth.
            let depth = sim.waiting(&pending, now) as u64;
            let overload = &mut sim.ctx.st.overload;
            overload.peak_queue_depth = overload.peak_queue_depth.max(depth);
        }
        // Drain remaining windows at their scheduled close times.
        while let Some(ci) = due(&pending) {
            let members = std::mem::take(&mut pending[ci].0);
            let level = batch_dispatch_level(sim.ctx.st.brownout.as_ref());
            sim.dispatch(ci, members, pending[ci].1, false, level, &mut rng)?;
        }
        sim.ctx.finish(sim.counters, PipelineCounters::default())
    }

    /// Serves an open-loop Poisson stream with pipeline parallelism across
    /// layer groups: each group becomes a *stage* with its own pool of
    /// `policy.lanes` orchestrator lanes (functions `"s0"`, `"s1"`, …,
    /// packaged like per-stage masters) and a bounded queue in front of it.
    /// Queries stream through stages concurrently on the virtual clock, so
    /// steady-state throughput is bounded by the slowest stage — the
    /// `t_pipeline` bottleneck — rather than by end-to-end latency, at the
    /// price of pipeline-fill latency and one activation hand-off per stage
    /// boundary.
    ///
    /// Backpressure is explicit and lossless past admission: a query that
    /// finishes stage `s` while stage `s + 1`'s queue is full *parks*,
    /// holding its stage-`s` lane, until a downstream slot opens; only the
    /// admission front door (brownout ladder, bounded stage-0 queue,
    /// predicted-miss shedding) ever sheds, and every admitted query is
    /// recorded exactly once — deadline kills at dispatch checkpoints are
    /// explicit `DeadlineExceeded` outcomes with their undone work counted
    /// as cancelled attempts.
    ///
    /// Determinism: the loop is sequential on the caller over a totally
    /// ordered event stream — completions and arrivals merge by virtual
    /// time (completions first on ties), completion ties break by
    /// `(stage, query)` — arrival times are precomputed from the run RNG
    /// before any execution draw, and each `(query, stage)` execution draws
    /// from its own RNG derived via [`replication_seed`]. Reports are
    /// therefore bit-identical for any `GILLIS_THREADS` and independent of
    /// event interleaving. Single-group plans have nothing to pipeline and
    /// delegate to [`Self::serve_open_loop`] unchanged.
    ///
    /// The overload policy composes as the admission front door (deadlines,
    /// predicted-miss shedding, breaker bank — note `max_concurrency` is
    /// superseded by per-stage lanes); chaos/outage faults, retry budgets,
    /// and the brownout ladder all apply per stage execution. Batching does
    /// not compose: the pipelined path serves per-query.
    ///
    /// # Errors
    ///
    /// Rejects invalid policies and non-positive rates; propagates fleet
    /// errors.
    pub fn serve_open_loop_pipelined(
        &self,
        policy: &PipelinePolicy,
        rate_per_sec: f64,
        queries: usize,
        prewarm_clients: usize,
        seed: u64,
    ) -> Result<ServingReport> {
        policy.validate()?;
        let stages = self.plan.groups().len();
        if stages <= 1 {
            // Nothing to overlap: serve on the plain open loop so
            // pipeline-disabled (single-stage) deployments are
            // bit-identical to the fork-join path.
            return self.serve_open_loop(rate_per_sec, queries, prewarm_clients, seed);
        }
        let arrivals = PoissonArrivals::new(rate_per_sec)?;
        let mut ctx = self.run_ctx(prewarm_clients.max(policy.lanes))?;
        // Stage orchestrators: one function per layer group, packaged with
        // the group's master-resident weights (nothing for worker-only
        // groups), warmed to the lane count.
        for (gi, name) in self.names.stages.iter().enumerate() {
            let package_bytes = if self.names.worker_offset[gi] == 0 {
                0
            } else {
                self.work.analyses[gi].partitions[0].weight_bytes
            };
            ctx.fleet.deploy(FunctionSpec {
                name: name.clone(),
                memory_bytes: self.platform.instance_memory_bytes,
                package_bytes,
            })?;
            ctx.fleet.prewarm(name, policy.lanes, Micros::ZERO)?;
        }
        // Arrival times come out of the run RNG before any execution draw,
        // so the arrival process is independent of execution interleaving.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Micros::ZERO;
        let arrival_times: Vec<Micros> = (0..queries)
            .map(|_| {
                t += arrivals.next_gap(&mut rng);
                t
            })
            .collect();
        let mut sim = PipelineSim {
            ctx,
            policy: *policy,
            seed,
            stages,
            counters: PipelineCounters {
                stages: stages as u64,
                ..PipelineCounters::default()
            },
            free: vec![policy.lanes; stages],
            queues: vec![VecDeque::new(); stages],
            parked: vec![VecDeque::new(); stages],
            q: vec![PipeQuery::default(); queries],
            events: BinaryHeap::new(),
        };
        let mut next_arrival = 0usize;
        loop {
            let arrival = arrival_times.get(next_arrival).copied();
            let completion = sim.events.peek().map(|Reverse((t, _, _))| *t);
            match (arrival, completion) {
                (Some(a), c) if c.is_none_or(|c| c > a) => {
                    sim.arrive(next_arrival as u64, a)?;
                    next_arrival += 1;
                }
                (_, Some(_)) => {
                    let Reverse((t, s, qid)) = sim.events.pop().expect("peeked");
                    sim.complete(s as usize, qid, t)?;
                }
                _ => break,
            }
        }
        sim.ctx.finish(BatchCounters::default(), sim.counters)
    }

    /// Executes one query against an externally-managed fleet starting at
    /// `start`, charging `billing`, and returns its completion time. `query`
    /// keys fault sampling; `counters` accumulates resilience accounting
    /// (including this query's terminal status). Public for cold-start
    /// studies that need control over pre-warming; workload serving should
    /// use [`ForkJoinRuntime::serve_workload`].
    ///
    /// # Errors
    ///
    /// Propagates fleet errors (e.g. undeployed functions).
    pub fn run_query_at(
        &self,
        fleet: &mut Fleet,
        billing: &mut BillingMeter,
        start: Micros,
        rng: &mut StdRng,
        query: u64,
        counters: &mut ResilienceCounters,
    ) -> Result<Micros> {
        // A one-query run over the caller's fleet, meter, and counters: no
        // deadline, breakers, budget, brownout, or checkpoint cache.
        let mut ctx = RunCtx {
            rt: self,
            fleet: std::mem::replace(fleet, Fleet::new(self.platform.clone())),
            st: ServingState {
                billing: std::mem::take(billing),
                resilience: std::mem::take(counters),
                budget: None,
                brownout: None,
                checkpoints: None,
                ..ServingState::new(self)
            },
            breakers: None,
        };
        let q = QueryCtx {
            id: query,
            deadline: None,
            level: BrownoutLevel::Full,
            work: &self.work,
        };
        let outcome = ctx.run_query(&q, start, rng);
        *fleet = ctx.fleet;
        *billing = ctx.st.billing;
        *counters = ctx.st.resilience;
        outcome.map(|(done, _)| done)
    }
}

/// Weight-identity token for checkpoint keying: a splitmix64 fold over the
/// plan's partition shapes and weight bytes. Two runtimes can resume from
/// each other's checkpoints only when their deployed weights and
/// partitioning agree exactly.
fn weight_identity_token(analyses: &[GroupAnalysis]) -> u64 {
    let mut h = 0x6769_6c6c_6973_2d77; // "gillis-w"
    for (gi, a) in analyses.iter().enumerate() {
        h = replication_seed(h, gi as u64);
        for p in &a.partitions {
            h = replication_seed(h, p.weight_bytes);
            h = replication_seed(h, p.input_bytes);
            h = replication_seed(h, p.output_bytes);
        }
    }
    h
}

/// Derives the RNG seed for Monte-Carlo replication `index` of a run keyed
/// by `seed` (splitmix64 finalizer). Replications get decorrelated streams
/// that depend only on `(seed, index)` — never on which thread runs them —
/// so parallel simulation and training stay bit-identical at any pool width.
#[must_use]
pub fn replication_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Marker payload of a fault-injected worker crash in the tensor path; a
/// panic with any other payload is a genuine executor bug.
struct InjectedCrash;

/// How one injected-fault piece execution failed (real model errors abort
/// the query instead of retrying — they are deterministic).
enum PieceFault {
    Injected(&'static str),
    Exec(gillis_model::ModelError),
}

/// Executes a plan with real tensor math: for each group, slices the input
/// according to the partition option (halo rows for spatial splits, whole
/// input for weight splits), runs every partition through the reference
/// executor, and stitches the outputs back together. The result must equal
/// the unpartitioned forward pass — Gillis's no-accuracy-loss property.
///
/// Partitions within a [`PartitionOption::Split`] group are independent (they
/// read the shared group input and each produces a disjoint output slice), so
/// they run concurrently on the shared [`gillis_pool::Pool`]; pieces are
/// collected and concatenated in range order, making the output bit-identical
/// to the sequential path.
///
/// Faults can be injected from the environment (`GILLIS_CHAOS_RATE` /
/// `GILLIS_CHAOS_SEED`, see [`gillis_faas::chaos::ChaosConfig::from_env`]);
/// the default [`ResiliencePolicy`] retries and locally recomputes exhausted
/// shards, so the output stays exactly correct under injected faults.
///
/// # Errors
///
/// Propagates executor errors; returns [`crate::CoreError::InvalidPlan`] if the
/// plan does not validate against the model.
pub fn execute_plan_tensors(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
) -> Result<Tensor> {
    execute_plan_tensors_with_threads(model, plan, weights, input, gillis_pool::gillis_threads())
}

/// [`execute_plan_tensors`] with an explicit thread count (`threads <= 1`
/// runs every partition inline on the caller).
///
/// # Errors
///
/// Propagates executor errors; returns [`crate::CoreError::InvalidPlan`] if the
/// plan does not validate against the model.
pub fn execute_plan_tensors_with_threads(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
    threads: usize,
) -> Result<Tensor> {
    let (out, _) = execute_plan_tensors_resilient(
        model,
        plan,
        weights,
        input,
        gillis_faas::chaos::env_injector(),
        &ResiliencePolicy::default(),
        threads,
    )?;
    Ok(out)
}

/// [`execute_plan_tensors`] with explicit fault injection and resilience:
/// each piece execution of each group consults `injector` (keyed by
/// [`FaultSite`] with query index 0) — an injected crash panics the worker
/// closure and is captured at the join ([`gillis_pool::Pool::try_run`]), an
/// injected invocation failure or transfer corruption fails the piece
/// without a result, and a straggler is a timing-only fault with no effect
/// on real execution. Failed pieces are retried up to
/// `policy.max_attempts`; pieces that exhaust the budget are recomputed
/// inline by the master when `policy.local_fallback` is set (counted as
/// degraded shards) or abort with [`CoreError::WorkerFailed`] otherwise.
///
/// The returned counters account one query. The output tensor is
/// bit-identical to the fault-free run whenever a result is returned — the
/// process never panics on injected crashes, at any thread count.
///
/// # Errors
///
/// Propagates executor errors; [`CoreError::WorkerFailed`] on budget
/// exhaustion without fallback; [`CoreError::WorkerPanic`] if a worker
/// panic was not an injected fault.
pub fn execute_plan_tensors_resilient(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
    injector: Option<&FaultInjector>,
    policy: &ResiliencePolicy,
    threads: usize,
) -> Result<(Tensor, ResilienceCounters)> {
    // A fresh manual token never fires, so the resilient path is the
    // cancellable path that nobody cancels.
    execute_plan_tensors_cancellable(
        model,
        plan,
        weights,
        input,
        injector,
        policy,
        threads,
        &CancelToken::new(),
    )
}

/// [`execute_plan_tensors_resilient`] with cooperative cancellation: the
/// master consumes one [`CancelToken::checkpoint`] before each plan group
/// and before each retry round, and aborts with [`CoreError::Cancelled`]
/// when the token has fired — outstanding work is abandoned instead of
/// completed. Checkpoints happen only on the (sequential) master path,
/// never inside worker closures, so for a token built with
/// [`CancelToken::after_checkpoints`] the cancellation point — and the
/// entire outcome — is bit-identical at any thread count.
///
/// # Errors
///
/// [`CoreError::Cancelled`] when the token fires; otherwise as
/// [`execute_plan_tensors_resilient`].
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_tensors_cancellable(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
    injector: Option<&FaultInjector>,
    policy: &ResiliencePolicy,
    threads: usize,
    cancel: &CancelToken,
) -> Result<(Tensor, ResilienceCounters)> {
    plan.validate(model, u64::MAX)?;
    let exec = Executor::new(model.graph(), weights);
    let mut counters = ResilienceCounters::default();
    let max_attempts = policy.max_attempts.max(1);
    // A width-1 pool runs batches inline on the caller while still capturing
    // per-piece panics, so fault semantics do not depend on the thread count.
    let inline_pool;
    let pool: &gillis_pool::Pool = if threads <= 1 {
        inline_pool = gillis_pool::Pool::new(1);
        &inline_pool
    } else {
        gillis_pool::Pool::global()
    };
    let mut cur = input.clone();
    for (gi, g) in plan.groups().iter().enumerate() {
        // Group-boundary cancellation checkpoint (master-side only).
        if cancel.checkpoint() {
            return Err(CoreError::Cancelled { group: gi });
        }
        let layers = &model.layers()[g.start..g.end];
        cur = match g.option {
            PartitionOption::Single => exec.run_segment(layers, &cur)?,
            PartitionOption::Split { dim, parts } => {
                let axis = match dim {
                    PartDim::Height => 1usize,
                    PartDim::Width => 2,
                    PartDim::Channel => 0,
                };
                let total = layers[layers.len() - 1].out_shape.dims()[axis];
                let ranges = balanced_ranges(total, parts);
                let run_piece = |r: std::ops::Range<usize>| match dim {
                    PartDim::Height => exec.run_segment_rows(layers, &cur, r),
                    PartDim::Width => exec.run_segment_cols(layers, &cur, r),
                    PartDim::Channel => exec.run_segment_channels(layers, &cur, r),
                };
                let mut pieces: Vec<Option<Tensor>> = (0..ranges.len()).map(|_| None).collect();
                let mut last_fault: Vec<&'static str> = vec!["no fault"; ranges.len()];
                let mut pending: Vec<usize> = (0..ranges.len()).collect();
                let mut attempt = 0u32;
                while !pending.is_empty() && attempt < max_attempts {
                    // Retry-round cancellation checkpoint: a deadline that
                    // expires mid-group abandons the remaining retries.
                    if attempt > 0 && cancel.checkpoint() {
                        return Err(CoreError::Cancelled { group: gi });
                    }
                    let worker = |k: usize| -> std::result::Result<(Tensor, u64), PieceFault> {
                        let j = pending[k];
                        let piece = ranges[j].clone();
                        let site = FaultSite {
                            query: 0,
                            group: gi as u32,
                            part: j as u32,
                            attempt,
                            lane: 0,
                        };
                        match injector.and_then(|inj| inj.fault(site)) {
                            Some(Fault::InvokeFailure) => {
                                return Err(PieceFault::Injected("invocation failure"))
                            }
                            Some(Fault::Crash { .. }) => {
                                std::panic::panic_any(InjectedCrash);
                            }
                            Some(Fault::Corrupt) => {
                                // The worker computes correctly and stamps
                                // the honest checksum, but the payload is
                                // corrupted in transfer: one element's sign
                                // bit flips (index drawn from the checksum,
                                // so the flip is deterministic). The join's
                                // verification rejects the piece.
                                let mut t = run_piece(piece).map_err(PieceFault::Exec)?;
                                let sum = wire_checksum(t.data());
                                let data = t.data_mut();
                                if data.is_empty() {
                                    return Err(PieceFault::Injected("corrupted response"));
                                }
                                let idx = (sum as usize) % data.len();
                                data[idx] = f32::from_bits(data[idx].to_bits() ^ 0x8000_0000);
                                return Ok((t, sum));
                            }
                            // Stragglers only affect timing, which the real
                            // path does not model.
                            Some(Fault::Straggler { .. }) | None => {}
                        }
                        run_piece(piece)
                            .map(|t| {
                                let sum = wire_checksum(t.data());
                                (t, sum)
                            })
                            .map_err(PieceFault::Exec)
                    };
                    let results = pool.try_run(pending.len(), worker);
                    let mut still: Vec<usize> = Vec::new();
                    for (k, res) in results.into_iter().enumerate() {
                        let j = pending[k];
                        match res {
                            // Every accepted payload must re-verify against
                            // the checksum stamped at the worker: transfer
                            // corruption is *detected*, never silently
                            // concatenated into the output.
                            Ok(Ok((t, sum))) => {
                                if wire_checksum(t.data()) == sum {
                                    pieces[j] = Some(t);
                                } else {
                                    counters.corruptions_detected += 1;
                                    last_fault[j] = "corrupted response (checksum mismatch)";
                                    still.push(j);
                                }
                            }
                            // Deterministic model errors are not retryable.
                            Ok(Err(PieceFault::Exec(e))) => return Err(e.into()),
                            Ok(Err(PieceFault::Injected(reason))) => {
                                last_fault[j] = reason;
                                still.push(j);
                            }
                            Err(payload) => {
                                if payload.downcast_ref::<InjectedCrash>().is_some() {
                                    last_fault[j] = "worker crash";
                                    still.push(j);
                                } else {
                                    let message = payload
                                        .downcast_ref::<&str>()
                                        .map(|s| (*s).to_string())
                                        .or_else(|| payload.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "non-string panic payload".into());
                                    return Err(CoreError::WorkerPanic {
                                        group: gi,
                                        part: j,
                                        message,
                                    });
                                }
                            }
                        }
                    }
                    attempt += 1;
                    if !still.is_empty() && attempt < max_attempts {
                        counters.retries += still.len() as u64;
                    }
                    pending = still;
                }
                for &j in &pending {
                    if !policy.local_fallback {
                        return Err(CoreError::WorkerFailed {
                            group: gi,
                            part: j,
                            attempts: max_attempts,
                            reason: format!("retry budget exhausted (last: {})", last_fault[j]),
                        });
                    }
                    // Graceful degradation: the master recomputes the shard
                    // itself, with no fault injection — the master is
                    // reliable by assumption.
                    counters.degraded_shards += 1;
                    pieces[j] = Some(run_piece(ranges[j].clone())?);
                }
                let pieces: Vec<Tensor> = pieces
                    .into_iter()
                    .map(|p| p.expect("every piece resolved or degraded"))
                    .collect();
                Tensor::concat(&pieces, axis).map_err(gillis_model::ModelError::from)?
            }
        };
    }
    counters.record_status(if counters.degraded_shards > 0 {
        QueryStatus::Degraded
    } else {
        QueryStatus::Ok
    });
    Ok((cur, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{DpPartitioner, PartitionerConfig};
    use crate::predict::predict_plan;
    use gillis_faas::overload::BreakerPolicy;
    use gillis_model::weights::init_weights;
    use gillis_model::zoo;
    use gillis_perf::PerfModel;

    #[test]
    fn simulated_latency_matches_prediction() {
        // Fig 15 (bottom): end-to-end prediction error within ~6%.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg16();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let predicted = predict_plan(&vgg, &plan, &perf).unwrap().latency_ms;
        let runtime = ForkJoinRuntime::new(&vgg, &plan, platform).unwrap();
        let actual = runtime.mean_latency_ms(50, 7);
        let rel = (predicted - actual).abs() / actual;
        assert!(rel < 0.06, "predicted {predicted:.1}, actual {actual:.1}");
    }

    #[test]
    fn int8_wire_cuts_simulated_transfer_time() {
        // The simulator and the predictor must agree on the int8 wire: a
        // communication-heavy forced-parallel plan gets faster under the
        // quantized format, and the simulated mean still tracks the
        // prediction from an int8-format perf model.
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny);
        let platform = PlatformProfile::aws_lambda();
        let f32_rt = ForkJoinRuntime::new(&tiny, &plan, platform.clone()).unwrap();
        let int8_rt = ForkJoinRuntime::new(&tiny, &plan, platform.clone())
            .unwrap()
            .with_transfer_format(TransferFormat::Int8);
        let f32_ms = f32_rt.mean_latency_ms(200, 5);
        let int8_ms = int8_rt.mean_latency_ms(200, 5);
        assert!(
            int8_ms < f32_ms,
            "int8 wire {int8_ms:.2}ms not below f32 {f32_ms:.2}ms"
        );
        let perf = PerfModel::analytic(&platform).with_transfer_format(TransferFormat::Int8);
        let predicted = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;
        let rel = (predicted - int8_ms).abs() / int8_ms;
        assert!(
            rel < 0.06,
            "predicted {predicted:.2}, simulated {int8_ms:.2}"
        );
    }

    #[test]
    fn plan_execution_preserves_semantics() {
        // The headline property: a partitioned plan computes exactly the
        // same logits as the unpartitioned model.
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 77).unwrap();
        let exec = Executor::new(tiny.graph(), &weights);
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
            ((i % 17) as f32 - 8.0) / 8.0
        });
        let full = exec.forward(&tiny, &input).unwrap();

        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let config = PartitionerConfig {
            degrees: vec![2, 4],
            ..PartitionerConfig::default()
        };
        let plan = DpPartitioner::new(config).partition(&tiny, &perf).unwrap();
        let out = execute_plan_tensors(&tiny, &plan, &weights, &input).unwrap();
        assert!(full.max_abs_diff(&out).unwrap() < 1e-4);
    }

    #[test]
    fn forced_parallel_plan_execution_preserves_semantics() {
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 78).unwrap();
        let exec = Executor::new(tiny.graph(), &weights);
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| (i as f32 * 0.37).sin());
        let full = exec.forward(&tiny, &input).unwrap();

        let plan = forced_split_plan(&tiny);
        let out = execute_plan_tensors(&tiny, &plan, &weights, &input).unwrap();
        assert!(full.max_abs_diff(&out).unwrap() < 1e-4);
    }

    /// Hand-built aggressive plan for `tiny_vgg`: convs split 4-way
    /// spatially, channel-splittable layers 2-way — guaranteeing worker
    /// partitions (the DP planner keeps a model this small unsplit).
    fn forced_split_plan(tiny: &LinearModel) -> ExecutionPlan {
        use crate::plan::PlannedGroup;
        let mut groups = Vec::new();
        for i in 0..tiny.layers().len() {
            let layer = &tiny.layers()[i];
            let option = if layer.class.supports_spatial() && layer.out_shape.dims()[1] >= 4 {
                PartitionOption::Split {
                    dim: PartDim::Height,
                    parts: 4,
                }
            } else if layer.class.channel_splittable() && layer.out_shape.dims()[0] >= 2 {
                PartitionOption::Split {
                    dim: PartDim::Channel,
                    parts: 2,
                }
            } else {
                PartitionOption::Single
            };
            groups.push(PlannedGroup {
                start: i,
                end: i + 1,
                option,
                placement: if option == PartitionOption::Single {
                    Placement::Master
                } else {
                    Placement::Workers
                },
            });
        }
        ExecutionPlan::new(groups)
    }

    /// A chaos config exercising every fault kind at once.
    fn stress_chaos(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            invoke_failure_rate: 0.08,
            crash_rate: 0.08,
            straggler_rate: 0.08,
            straggler_slowdown: 6.0,
            corrupt_rate: 0.06,
            orchestrator_crash_rate: 0.0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Tentpole determinism contract: the pooled tensor path produces
        /// *bit-identical* floats to the sequential path for any thread
        /// count, because partitions own disjoint output slices and are
        /// concatenated in range order.
        #[test]
        fn plan_execution_is_bit_identical_across_thread_counts(
            (weight_seed, input_scale) in (0u64..1000, 1usize..5),
        ) {
            let tiny = zoo::tiny_vgg();
            let weights = init_weights(tiny.graph(), weight_seed).unwrap();
            let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
                ((i % (7 * input_scale)) as f32 - 3.0) / (4.0 * input_scale as f32)
            });
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let config = PartitionerConfig {
                degrees: vec![2, 4],
                ..PartitionerConfig::default()
            };
            let plan = DpPartitioner::new(config).partition(&tiny, &perf).unwrap();
            let seq = execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, 1).unwrap();
            for threads in [2usize, 8] {
                let par =
                    execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, threads)
                        .unwrap();
                proptest::prop_assert_eq!(seq.data().len(), par.data().len());
                for (a, b) in seq.data().iter().zip(par.data()) {
                    proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// Monte-Carlo replications are seeded per index, so the simulated
        /// mean is bit-identical for any thread count.
        #[test]
        fn mean_latency_is_bit_identical_across_thread_counts(
            (seed, n) in (0u64..1000, 1usize..60),
        ) {
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let vgg = zoo::vgg11();
            let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
            let runtime = ForkJoinRuntime::new(&vgg, &plan, platform).unwrap();
            let seq = runtime.mean_latency_ms_with_threads(n, seed, 1);
            for threads in [2usize, 8] {
                let par = runtime.mean_latency_ms_with_threads(n, seed, threads);
                proptest::prop_assert_eq!(seq.to_bits(), par.to_bits());
            }
        }

        /// Acceptance criterion: with a fixed chaos seed, serving results —
        /// latency stats and every retry/hedge/timeout/degradation counter —
        /// are bit-identical for any thread count, because faults are a pure
        /// function of `(seed, FaultSite)` and never of scheduling.
        #[test]
        fn chaos_serving_is_bit_identical_across_thread_counts(
            (chaos_seed, run_seed, n) in (0u64..1000, 0u64..1000, 10usize..50),
        ) {
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let vgg = zoo::vgg11();
            let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
            let runtime = ForkJoinRuntime::new(&vgg, &plan, platform)
                .unwrap()
                .with_chaos(stress_chaos(chaos_seed))
                .unwrap()
                .with_policy(ResiliencePolicy::backoff_hedged());
            let seq = runtime.simulate_many_with_threads(n, run_seed, 1);
            for threads in [2usize, 8] {
                let par = runtime.simulate_many_with_threads(n, run_seed, threads);
                proptest::prop_assert_eq!(
                    seq.latency.mean().to_bits(),
                    par.latency.mean().to_bits()
                );
                proptest::prop_assert_eq!(
                    seq.latency.percentile(99.0).to_bits(),
                    par.latency.percentile(99.0).to_bits()
                );
                proptest::prop_assert_eq!(&seq.resilience, &par.resilience);
            }
        }
    }

    #[test]
    fn workload_serving_reports_latency_and_cost() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let runtime = ForkJoinRuntime::new(&vgg, &plan, platform).unwrap();
        let workload = ClosedLoop::new(8, 40, Micros::ZERO).unwrap();
        let report = runtime.serve_workload(workload, 3).unwrap();
        assert_eq!(report.latency.count(), 40);
        assert!(report.billing.billed_ms_total() > 0);
        assert!(report.billing.invocations() >= 40);
        // Pre-warming (paper §III-A) eliminates cold starts entirely.
        assert_eq!(report.cold_starts, 0);
        // A healthy platform serves every query cleanly.
        assert_eq!(report.resilience.ok_queries, 40);
        assert_eq!(report.resilience.retries, 0);
        assert_eq!(report.resilience.degraded_queries, 0);
        // The workload mean matches the warm single-query mean.
        let mean = report.latency.mean();
        let warm = runtime.mean_latency_ms(40, 5);
        assert!(
            (mean - warm).abs() / warm < 0.25,
            "workload mean {mean} vs warm mean {warm}"
        );
    }

    #[test]
    fn failure_injection_adds_retries_and_latency() {
        let mut platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();

        // Healthy platform: zero retries.
        let healthy = ForkJoinRuntime::new(&vgg, &plan, platform.clone()).unwrap();
        let h = healthy.simulate_many(50, 31);
        assert_eq!(h.resilience.retries, 0);
        assert_eq!(h.resilience.ok_queries, 50);

        // 15% of worker invocations fail: queries still complete, retries
        // appear, and the mean latency rises.
        platform.invocation_failure_rate = 0.15;
        let flaky = ForkJoinRuntime::new(&vgg, &plan, platform.clone()).unwrap();
        let f = flaky.simulate_many(50, 31);
        assert!(
            f.resilience.retries > 0,
            "expected some retries at 15% failure rate"
        );
        assert_eq!(f.resilience.failed_queries, 0, "local fallback never fails");
        assert!(
            f.latency.mean() > h.latency.mean(),
            "flaky {} vs healthy {}",
            f.latency.mean(),
            h.latency.mean()
        );

        // Workload serving also completes and reports the retries.
        let report = flaky
            .serve_workload(ClosedLoop::new(4, 40, Micros::ZERO).unwrap(), 7)
            .unwrap();
        assert_eq!(report.latency.count(), 40);
        assert!(report.resilience.retries > 0);
        assert_eq!(report.resilience.queries(), 40);
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        // At an absurd failure rate, the "final attempt always succeeds"
        // fiction is gone: budgets exhaust, and the master recomputes the
        // lost shards locally — queries complete, honestly marked Degraded.
        let mut platform = PlatformProfile::aws_lambda();
        platform.invocation_failure_rate = 0.95;
        let perf = PerfModel::analytic(&PlatformProfile::aws_lambda());
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let rt = ForkJoinRuntime::new(&vgg, &plan, platform).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let q = rt.simulate_query(&mut rng);
        let invocations: usize = rt.plan.groups().iter().map(|g| g.worker_count()).sum();
        let max_attempts = rt.policy.max_attempts as u64;
        assert!(q.latency_ms.is_finite());
        assert!(q.resilience.retries <= (invocations as u64) * (max_attempts - 1));
        assert_eq!(q.status, QueryStatus::Degraded);
        assert!(q.resilience.degraded_shards > 0);

        // Without local fallback the same query honestly fails.
        let rt = rt.with_policy(ResiliencePolicy {
            local_fallback: false,
            ..ResiliencePolicy::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let q = rt.simulate_query(&mut rng);
        assert_eq!(q.status, QueryStatus::Failed);
        assert!(q.latency_ms.is_finite());

        // Fleet serving counts the degraded/failed queries the same way.
        let rt = rt.with_policy(ResiliencePolicy::default());
        let report = rt
            .serve_workload(ClosedLoop::new(2, 10, Micros::ZERO).unwrap(), 5)
            .unwrap();
        assert_eq!(report.resilience.queries(), 10);
        assert!(report.resilience.degraded_queries > 0);
        assert_eq!(report.resilience.failed_queries, 0);
    }

    #[test]
    fn hedging_reduces_tail_latency_under_stragglers() {
        // The HydraServe-style motivation: speculative duplicates convert
        // straggler tail latency into a second chance at the median.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let chaos = ChaosConfig {
            seed: 42,
            invoke_failure_rate: 0.05,
            crash_rate: 0.0,
            straggler_rate: 0.15,
            straggler_slowdown: 8.0,
            corrupt_rate: 0.0,
            orchestrator_crash_rate: 0.0,
        };
        let naive = ForkJoinRuntime::new(&vgg, &plan, platform.clone())
            .unwrap()
            .with_chaos(chaos)
            .unwrap()
            .with_policy(ResiliencePolicy::naive_retry());
        let hedged = ForkJoinRuntime::new(&vgg, &plan, platform)
            .unwrap()
            .with_chaos(chaos)
            .unwrap()
            .with_policy(ResiliencePolicy::backoff_hedged());
        let n = naive.simulate_many(200, 9);
        let h = hedged.simulate_many(200, 9);
        assert!(h.resilience.hedges > 0);
        assert!(h.resilience.hedge_wins > 0);
        assert!(
            h.latency.percentile(99.0) < n.latency.percentile(99.0),
            "hedged p99 {} vs naive p99 {}",
            h.latency.percentile(99.0),
            n.latency.percentile(99.0)
        );
    }

    #[test]
    fn timeouts_abandon_extreme_stragglers() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let chaos = ChaosConfig {
            seed: 7,
            straggler_rate: 0.2,
            straggler_slowdown: 50.0,
            ..ChaosConfig::default()
        };
        let rt = ForkJoinRuntime::new(&vgg, &plan, platform)
            .unwrap()
            .with_chaos(chaos)
            .unwrap()
            .with_policy(ResiliencePolicy {
                attempt_timeout_factor: 2.0,
                ..ResiliencePolicy::backoff()
            });
        let report = rt.simulate_many(50, 3);
        assert!(report.resilience.timeouts > 0, "{:?}", report.resilience);
        // Every query still completes (retry or local fallback).
        assert_eq!(report.resilience.queries(), 50);
        assert_eq!(report.resilience.failed_queries, 0);
        assert!(report.latency.max().is_finite());
    }

    #[test]
    fn crash_recovery_returns_exact_tensor() {
        // Acceptance criterion: under injected worker crashes (panics
        // captured at the join), retries/local fallback still produce the
        // exact fault-free output, and the process never panics.
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 91).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
            ((i % 13) as f32 - 6.0) / 6.0
        });
        let plan = forced_split_plan(&tiny);
        let clean = execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, 1).unwrap();

        let injector = ChaosConfig {
            seed: 1234,
            invoke_failure_rate: 0.15,
            crash_rate: 0.25,
            corrupt_rate: 0.1,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        let mut any_faults = false;
        for threads in [1usize, 4] {
            let (out, counters) = execute_plan_tensors_resilient(
                &tiny,
                &plan,
                &weights,
                &input,
                Some(&injector),
                &ResiliencePolicy::default(),
                threads,
            )
            .unwrap();
            assert_eq!(clean.data().len(), out.data().len());
            for (a, b) in clean.data().iter().zip(out.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            any_faults |= counters.retries > 0 || counters.degraded_shards > 0;
        }
        assert!(any_faults, "chaos config injected no faults at all");
    }

    #[test]
    fn exhausted_tensor_budget_degrades_or_fails() {
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 92).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| (i as f32 * 0.11).cos());
        let plan = forced_split_plan(&tiny);
        let clean = execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, 1).unwrap();

        // Every invocation fails: all split pieces exhaust their budget.
        let always_fail = ChaosConfig::invoke_only(1.0, 5).build().unwrap();
        let (out, counters) = execute_plan_tensors_resilient(
            &tiny,
            &plan,
            &weights,
            &input,
            Some(&always_fail),
            &ResiliencePolicy::default(),
            2,
        )
        .unwrap();
        assert_eq!(clean.max_abs_diff(&out).unwrap(), 0.0);
        assert!(counters.degraded_shards > 0);
        assert_eq!(counters.degraded_queries, 1);

        // Without fallback, exhaustion is an honest error, not a panic.
        let err = execute_plan_tensors_resilient(
            &tiny,
            &plan,
            &weights,
            &input,
            Some(&always_fail),
            &ResiliencePolicy {
                local_fallback: false,
                ..ResiliencePolicy::default()
            },
            2,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::WorkerFailed { .. }), "{err}");
    }

    #[test]
    fn cold_first_wave_is_slower_without_prewarm() {
        // Serve the same workload with a manual (non-prewarmed) fleet: the
        // first wave pays cold starts, later queries reuse warm instances.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let runtime = ForkJoinRuntime::new(&vgg, &plan, platform.clone()).unwrap();

        let mut fleet = Fleet::new(platform);
        runtime.deploy(&mut fleet).unwrap();
        let mut billing = BillingMeter::new(1, 0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        // Query 1: all-cold. Query 2 (starting after 1 finished): all-warm.
        let mut counters = ResilienceCounters::default();
        let done_first = runtime
            .run_query_at(
                &mut fleet,
                &mut billing,
                Micros::ZERO,
                &mut rng,
                0,
                &mut counters,
            )
            .unwrap();
        let start_later = done_first;
        let done_later = runtime
            .run_query_at(
                &mut fleet,
                &mut billing,
                start_later,
                &mut rng,
                1,
                &mut counters,
            )
            .unwrap();
        let first = done_first.as_ms();
        let later = (done_later - start_later).as_ms();
        assert!(
            first > later * 1.5,
            "cold first query {first} vs warm later {later}"
        );
    }

    /// VGG-11 runtime plus its analytically predicted plan latency — the
    /// shared fixture for the overload tests.
    fn overload_fixture() -> (ForkJoinRuntime<'static>, f64) {
        use std::sync::OnceLock;
        static MODEL: OnceLock<LinearModel> = OnceLock::new();
        static PLAN: OnceLock<ExecutionPlan> = OnceLock::new();
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = MODEL.get_or_init(zoo::vgg11);
        let plan = PLAN.get_or_init(|| DpPartitioner::default().partition(vgg, &perf).unwrap());
        let predicted = predict_plan(vgg, plan, &perf).unwrap().latency_ms;
        let runtime = ForkJoinRuntime::new(vgg, plan, platform).unwrap();
        (runtime, predicted)
    }

    #[test]
    fn shedding_bounds_admitted_tail_latency_at_overload() {
        // The tentpole acceptance criterion: at 2x the no-shed saturation
        // rate, the protected deployment keeps the p99 of admitted queries
        // near the SLO by shedding honestly, while the unprotected bounded
        // front door lets the queue (and every admitted latency) grow
        // without bound.
        let (runtime, predicted) = overload_fixture();
        let concurrency = 4;
        let slo_ms = 2.0 * predicted;
        let saturation_qps = 1000.0 * concurrency as f64 / predicted;
        let rate = 2.0 * saturation_qps;
        let queries = 400;

        let unprotected = runtime
            .clone()
            .with_overload(OverloadPolicy::unprotected(concurrency))
            .unwrap()
            .serve_open_loop(rate, queries, concurrency, 11)
            .unwrap();
        let protected = runtime
            .clone()
            .with_overload(OverloadPolicy::for_slo(slo_ms, concurrency))
            .unwrap()
            .serve_open_loop(rate, queries, concurrency, 11)
            .unwrap();

        assert_eq!(unprotected.overload.shed(), 0);
        assert!(
            protected.overload.shed() > 0,
            "2x saturation must shed: {:?}",
            protected.overload
        );
        assert_eq!(
            protected.overload.admitted + protected.overload.shed(),
            queries as u64,
            "every arrival is admitted or shed, never lost"
        );
        let protected_p99 = protected.latency.percentile(99.0);
        let unprotected_p99 = unprotected.latency.percentile(99.0);
        assert!(
            protected_p99 <= 1.5 * slo_ms,
            "admitted p99 {protected_p99:.1} ms vs SLO {slo_ms:.1} ms"
        );
        assert!(
            unprotected_p99 > 3.0 * slo_ms,
            "unprotected front door should collapse: p99 {unprotected_p99:.1} ms"
        );
        // Shed queries never run: they appear in resilience accounting but
        // not in any latency series.
        assert_eq!(protected.resilience.shed_queries, protected.overload.shed());
        assert_eq!(
            protected.latency.count() as u64,
            protected.overload.admitted
        );
    }

    #[test]
    fn deadline_cancellation_abandons_doomed_work() {
        // A deadline far below the plan latency (with predictive shedding
        // off, so queries are admitted anyway) must cancel mid-plan: the
        // master abandons the remaining groups and their would-be worker
        // attempts are counted, not completed.
        let (runtime, predicted) = overload_fixture();
        let policy = OverloadPolicy {
            shed_on_predicted_miss: false,
            ..OverloadPolicy::for_slo(0.3 * predicted, 2)
        };
        let report = runtime
            .clone()
            .with_overload(policy)
            .unwrap()
            // Sub-saturation rate: no queueing, so recorded latencies are
            // pure service times.
            .serve_open_loop(2.0, 40, 2, 5)
            .unwrap();
        assert_eq!(report.overload.shed(), 0, "predictive shedding disabled");
        assert!(
            report.resilience.deadline_exceeded_queries > 0,
            "{:?}",
            report.resilience
        );
        assert!(
            report.overload.cancelled_attempts > 0,
            "cancellation must abandon outstanding attempts: {:?}",
            report.overload
        );
        assert_eq!(
            report.by_status.deadline_exceeded.count() as u64,
            report.resilience.deadline_exceeded_queries
        );
        // Deadline-expired queries still return (an error response) early:
        // the master abandons at the next group boundary instead of running
        // the plan to completion.
        let max_ms = report.latency.percentile(100.0);
        assert!(
            max_ms < predicted,
            "max {max_ms:.1} ms vs plan {predicted:.1} ms"
        );
    }

    #[test]
    fn breakers_route_around_dead_lanes_before_retry_budget() {
        // With every invocation failing, a breaker-enabled deployment stops
        // burning the retry budget on known-bad lanes: after
        // `failure_threshold` consecutive failures the lane short-circuits
        // straight to master-local degraded execution.
        let (runtime, _) = overload_fixture();
        let chaos = ChaosConfig::invoke_only(1.0, 77);
        let workload = || ClosedLoop::new(2, 30, Micros::ZERO).unwrap();

        let without = runtime
            .clone()
            .with_chaos(chaos)
            .unwrap()
            .serve_workload(workload(), 3)
            .unwrap();
        let with_breaker = runtime
            .clone()
            .with_chaos(chaos)
            .unwrap()
            .with_overload(OverloadPolicy {
                breaker: BreakerPolicy::standard(),
                ..OverloadPolicy::unprotected(2)
            })
            .unwrap()
            .serve_workload(workload(), 3)
            .unwrap();

        assert!(with_breaker.overload.breaker_opens > 0);
        assert!(
            with_breaker.overload.breaker_short_circuits > 0,
            "{:?}",
            with_breaker.overload
        );
        assert!(
            with_breaker.resilience.retries < without.resilience.retries,
            "breaker {} retries vs unguarded {}",
            with_breaker.resilience.retries,
            without.resilience.retries
        );
        // Every query still completes (degraded), so protection does not
        // trade availability for the saved retries.
        assert_eq!(
            with_breaker.resilience.degraded_queries + with_breaker.resilience.ok_queries,
            30
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Overload decisions are pure functions of seed and query identity:
        /// the full report — shed set, admission counters, breaker
        /// transitions, every latency — is bit-identical run to run, and
        /// the accounting never loses an arrival.
        #[test]
        fn overload_serving_is_deterministic_and_accounts_for_every_arrival(
            (seed, rate_scale, queries) in (0u64..1000, 1u32..5, 20usize..60),
        ) {
            let (runtime, predicted) = overload_fixture();
            let concurrency = 2;
            let rate = rate_scale as f64 * 500.0 * concurrency as f64 / predicted;
            let runtime = runtime
                .with_overload(OverloadPolicy::for_slo(2.0 * predicted, concurrency))
                .unwrap();
            let a = runtime.serve_open_loop(rate, queries, concurrency, seed).unwrap();
            let b = runtime.serve_open_loop(rate, queries, concurrency, seed).unwrap();
            proptest::prop_assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
            proptest::prop_assert_eq!(
                a.latency.percentile(99.0).to_bits(),
                b.latency.percentile(99.0).to_bits()
            );
            proptest::prop_assert_eq!(&a.resilience, &b.resilience);
            proptest::prop_assert_eq!(&a.overload, &b.overload);
            proptest::prop_assert_eq!(
                a.overload.admitted + a.overload.shed(),
                queries as u64
            );
            proptest::prop_assert_eq!(a.latency.count() as u64, a.overload.admitted);
            proptest::prop_assert_eq!(a.by_status.count(), a.latency.count());
        }

        /// Cooperative cancellation is deterministic at any thread count:
        /// checkpoints are consumed only on the sequential master path, so a
        /// token that fires after `k` checkpoints cancels at the same group
        /// — or lets the query finish with bit-identical output — whether
        /// pieces run inline or on 8 pool threads.
        #[test]
        fn cancellation_is_bit_identical_across_thread_counts(
            (weight_seed, chaos_seed, k) in (0u64..500, 0u64..500, 0u64..8),
        ) {
            let tiny = zoo::tiny_vgg();
            let weights = init_weights(tiny.graph(), weight_seed).unwrap();
            let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
                ((i % 13) as f32 - 6.0) / 7.0
            });
            let plan = forced_split_plan(&tiny);
            let injector = stress_chaos(chaos_seed).build().unwrap();
            let policy = ResiliencePolicy::default();
            let run = |threads: usize| {
                execute_plan_tensors_cancellable(
                    &tiny,
                    &plan,
                    &weights,
                    &input,
                    Some(&injector),
                    &policy,
                    threads,
                    &CancelToken::after_checkpoints(k),
                )
            };
            let seq = run(1);
            for threads in [2usize, 8] {
                let par = run(threads);
                match (&seq, &par) {
                    (Ok((st, sc)), Ok((pt, pc))) => {
                        proptest::prop_assert_eq!(st.data().len(), pt.data().len());
                        for (a, b) in st.data().iter().zip(pt.data()) {
                            proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                        }
                        proptest::prop_assert_eq!(sc, pc);
                    }
                    (
                        Err(CoreError::Cancelled { group: sg }),
                        Err(CoreError::Cancelled { group: pg }),
                    ) => proptest::prop_assert_eq!(sg, pg),
                    (s, p) => proptest::prop_assert!(
                        false,
                        "divergent outcomes: seq {s:?} vs {threads}-thread {p:?}"
                    ),
                }
            }
        }
    }

    use gillis_faas::batch::{BatchPolicy, SloClass};

    /// VGG-11 model, plan, analytic batch-1 prediction, and the Lambda
    /// platform — the shared fixture for the batched-serving tests.
    fn batch_fixture() -> (
        &'static LinearModel,
        &'static ExecutionPlan,
        PlatformProfile,
        crate::predict::PlanPrediction,
    ) {
        use std::sync::OnceLock;
        static MODEL: OnceLock<LinearModel> = OnceLock::new();
        static PLAN: OnceLock<ExecutionPlan> = OnceLock::new();
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = MODEL.get_or_init(zoo::vgg11);
        let plan = PLAN.get_or_init(|| DpPartitioner::default().partition(vgg, &perf).unwrap());
        let prediction = crate::predict::predict_plan(vgg, plan, &perf).unwrap();
        (vgg, plan, platform, prediction)
    }

    #[test]
    fn batch_schedule_picks_cost_optimal_sizes_per_class_and_rate() {
        // The configurator trades window wait against per-query cost: a
        // high-rate class with a loose deadline gets a real batch, a
        // too-tight deadline is infeasible, and a starved class falls back
        // to small batches because windows would close underfilled.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let mut policy = BatchPolicy::single(20.0 * pred1.latency_ms, 8);
        policy.max_window_ms = 10.0 * pred1.latency_ms;
        let busy = plan_batch_schedule(
            vgg,
            plan,
            &platform,
            TransferFormat::F32,
            &policy,
            // ~20 arrivals per plan latency: windows fill fast.
            20_000.0 / pred1.latency_ms,
        )
        .unwrap();
        assert_eq!(busy.memory_bytes, platform.instance_memory_bytes);
        assert!(busy.classes[0].batch > 1, "{:?}", busy.classes[0]);
        assert!(
            busy.classes[0].usd_per_query < pred1.usd,
            "batched {:.9} $/q vs batch-1 {:.9}",
            busy.classes[0].usd_per_query,
            pred1.usd
        );
        assert!(busy.classes[0].window_ms > 0.0);
        assert!(
            busy.classes[0].predicted_ms + policy.window_margin_ms <= policy.classes[0].deadline_ms
        );

        // A trickle of arrivals cannot fill large windows: the chosen batch
        // shrinks even though the deadline would allow more.
        let starved = plan_batch_schedule(
            vgg,
            plan,
            &platform,
            TransferFormat::F32,
            &policy,
            0.05 / pred1.latency_ms * 1000.0,
        )
        .unwrap();
        assert!(
            starved.classes[0].batch < busy.classes[0].batch,
            "starved {:?} vs busy {:?}",
            starved.classes[0],
            busy.classes[0]
        );

        // A deadline below the batch-1 latency is infeasible outright.
        let tight = BatchPolicy::single(0.5 * pred1.latency_ms, 4);
        let err = plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &tight, 100.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn batch_schedule_joint_memory_pick_weighs_spend_rate() {
        // Memory candidates scale compute speed and price together; the
        // configurator must reject sizes the plan no longer fits and pick
        // the cheapest feasible spend rate among the rest.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let base_mb = platform.instance_memory_bytes / 1_000_000;
        let mut policy = BatchPolicy::single(20.0 * pred1.latency_ms, 4);
        policy.memory_mb = vec![base_mb / 64, base_mb, 2 * base_mb];
        let schedule = plan_batch_schedule(
            vgg,
            plan,
            &platform,
            TransferFormat::F32,
            &policy,
            10_000.0 / pred1.latency_ms,
        )
        .unwrap();
        // The tiny candidate cannot hold VGG-11's weights; the big one is
        // faster but proportionally pricier per second, so the billed cost
        // per query never improves enough to beat the base size.
        assert_ne!(schedule.memory_bytes, (base_mb / 64) * 1_000_000);
        assert!(
            schedule.classes[0].usd_per_query <= pred1.usd,
            "{:?}",
            schedule.classes[0]
        );
        // Only listed candidates are eligible.
        assert!(policy
            .memory_mb
            .iter()
            .any(|&mb| mb * 1_000_000 == schedule.memory_bytes));
    }

    #[test]
    fn batch_one_serving_is_bit_identical_to_unbatched() {
        // The serving-level batch-1 fast path: a schedule that never forms
        // a batch must reproduce serve_open_loop exactly — same RNG
        // consumption, same starts, same latency series, same billing.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let policy = BatchPolicy::batch_one();
        let rate = 500.0 / pred1.latency_ms; // sub-saturation
        let schedule =
            plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &policy, rate).unwrap();
        assert_eq!(schedule.classes[0].batch, 1);
        let runtime = ForkJoinRuntime::new(vgg, plan, platform.clone())
            .unwrap()
            .with_overload(OverloadPolicy::unprotected(2))
            .unwrap();
        let plain = runtime.serve_open_loop(rate, 60, 2, 21).unwrap();
        let batched = runtime
            .serve_open_loop_batched(&policy, &schedule, rate, 60, 2, 21)
            .unwrap();
        assert_eq!(batched.batch.batches, 60);
        assert_eq!(batched.batch.batch_one_fast_path, 60);
        assert_eq!(batched.batch.batched_queries, 0);
        assert_eq!(
            batched.latency.mean().to_bits(),
            plain.latency.mean().to_bits()
        );
        assert_eq!(
            batched.latency.percentile(99.0).to_bits(),
            plain.latency.percentile(99.0).to_bits()
        );
        assert_eq!(
            batched.billing.usd_total().to_bits(),
            plain.billing.usd_total().to_bits()
        );
        assert_eq!(batched.resilience, plain.resilience);
        assert_eq!(batched.overload, plain.overload);
        assert_eq!(batched.cold_starts, plain.cold_starts);
    }

    #[test]
    fn batched_serving_amortizes_cost_under_load() {
        // Two SLO classes at a rate that fills windows: real batches form,
        // the fork wave is shared, and the billed cost per admitted query
        // drops below the batch-1 baseline.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let policy = BatchPolicy {
            classes: vec![
                SloClass {
                    deadline_ms: 12.0 * pred1.latency_ms,
                    weight: 3.0,
                },
                SloClass {
                    deadline_ms: f64::INFINITY,
                    weight: 1.0,
                },
            ],
            max_batch: 8,
            max_window_ms: 6.0 * pred1.latency_ms,
            window_margin_ms: 1.0,
            amortized_fraction: 0.25,
            memory_mb: Vec::new(),
        };
        let rate = 8_000.0 / pred1.latency_ms;
        let queries = 160;
        let schedule =
            plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &policy, rate).unwrap();
        assert!(schedule.classes.iter().any(|c| c.batch > 1));
        let runtime = ForkJoinRuntime::new(vgg, plan, platform.clone()).unwrap();
        let batched = runtime
            .serve_open_loop_batched(&policy, &schedule, rate, queries, 4, 3)
            .unwrap();
        let baseline = runtime
            .clone()
            .with_overload_predicted(OverloadPolicy::unprotected(4), pred1.latency_ms)
            .unwrap()
            .serve_open_loop(rate, queries, 4, 3)
            .unwrap();

        // Accounting: every arrival admitted or shed; every admitted query
        // is a member of exactly one dispatched batch.
        assert_eq!(
            batched.overload.admitted + batched.overload.shed(),
            queries as u64
        );
        assert_eq!(
            batched.batch.batched_queries + batched.batch.batch_one_fast_path,
            batched.overload.admitted
        );
        assert_eq!(batched.latency.count() as u64, batched.overload.admitted);
        assert!(
            batched.batch.batches < batched.overload.admitted,
            "{:?}",
            batched.batch
        );
        assert!(batched.batch.mean_batch() > 1.2, "{:?}", batched.batch);

        // The economics: fewer invocation waves, cheaper per query.
        let batched_usd = batched.billing.usd_total() / batched.overload.admitted as f64;
        let baseline_usd = baseline.billing.usd_total() / baseline.overload.admitted as f64;
        assert!(
            batched_usd < 0.8 * baseline_usd,
            "batched {batched_usd:.9} $/q vs baseline {baseline_usd:.9} $/q"
        );
    }

    #[test]
    fn batched_serving_is_deterministic_and_composes_with_chaos_and_overload() {
        // The full stack at once — fault injection, admission control with
        // breakers, and batch windows: two identical runs are bit-identical
        // and the accounting still never loses an arrival.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let policy = BatchPolicy {
            classes: vec![
                SloClass {
                    deadline_ms: 10.0 * pred1.latency_ms,
                    weight: 1.0,
                },
                SloClass {
                    deadline_ms: f64::INFINITY,
                    weight: 1.0,
                },
            ],
            max_batch: 4,
            max_window_ms: 4.0 * pred1.latency_ms,
            window_margin_ms: 1.0,
            amortized_fraction: 0.25,
            memory_mb: Vec::new(),
        };
        let rate = 6_000.0 / pred1.latency_ms;
        let schedule =
            plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &policy, rate).unwrap();
        let runtime = ForkJoinRuntime::new(vgg, plan, platform.clone())
            .unwrap()
            .with_chaos(ChaosConfig::invoke_only(0.05, 99))
            .unwrap()
            .with_overload(OverloadPolicy {
                breaker: BreakerPolicy::standard(),
                ..OverloadPolicy::for_slo(10.0 * pred1.latency_ms, 3)
            })
            .unwrap();
        let run = || {
            runtime
                .serve_open_loop_batched(&policy, &schedule, rate, 120, 3, 17)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        assert_eq!(
            a.latency.percentile(99.0).to_bits(),
            b.latency.percentile(99.0).to_bits()
        );
        assert_eq!(
            a.billing.usd_total().to_bits(),
            b.billing.usd_total().to_bits()
        );
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.overload, b.overload);
        assert_eq!(a.batch, b.batch);
        assert_eq!(a.overload.admitted + a.overload.shed(), 120);
        assert_eq!(
            a.batch.batched_queries + a.batch.batch_one_fast_path,
            a.overload.admitted
        );
        assert!(a.batch.batches > 0);
        // Chaos actually fired somewhere in the run.
        assert!(
            a.resilience.retries + a.resilience.degraded_queries + a.resilience.hedges > 0,
            "{:?}",
            a.resilience
        );
    }

    #[test]
    fn batched_serving_rejects_mismatched_schedules() {
        let (vgg, plan, platform, pred1) = batch_fixture();
        let policy = BatchPolicy::single(20.0 * pred1.latency_ms, 4);
        let schedule =
            plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &policy, 100.0).unwrap();
        let runtime = ForkJoinRuntime::new(vgg, plan, platform).unwrap();
        // Wrong memory: the schedule insists on the platform it was
        // planned for.
        let mut wrong = schedule.clone();
        wrong.memory_bytes += 1;
        let err = runtime
            .serve_open_loop_batched(&policy, &wrong, 100.0, 10, 2, 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
        // Wrong class count.
        let mut short = schedule.clone();
        short.classes.clear();
        let err = runtime
            .serve_open_loop_batched(&policy, &short, 100.0, 10, 2, 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    }

    /// Chaos with a baseline failure rate that a severity-8 outage episode
    /// pushes deep into correlated-failure territory.
    fn outage_chaos(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            invoke_failure_rate: 0.04,
            crash_rate: 0.0,
            straggler_rate: 0.02,
            straggler_slowdown: 4.0,
            corrupt_rate: 0.0,
            orchestrator_crash_rate: 0.0,
        }
    }

    #[test]
    fn outage_episodes_scale_failures_and_stay_deterministic() {
        // During severe platform episodes the invoke-failure rate multiplies
        // by the severity: serving with the outage enabled must retry and
        // degrade more than the same run without it, and two identical runs
        // must agree bit-for-bit.
        let (runtime, predicted) = overload_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        let calm = runtime
            .clone()
            .with_chaos(outage_chaos(7))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff())
            .serve_open_loop(rate, 200, 4, 11)
            .unwrap();
        let run = || {
            runtime
                .clone()
                .with_chaos(outage_chaos(7))
                .unwrap()
                .with_policy(ResiliencePolicy::backoff())
                .with_outage(OutageConfig::severe(8.0, 21))
                .unwrap()
                .serve_open_loop(rate, 200, 4, 11)
                .unwrap()
        };
        let stormy = run();
        let again = run();
        assert_eq!(stormy.resilience, again.resilience);
        assert_eq!(
            stormy.latency.mean().to_bits(),
            again.latency.mean().to_bits()
        );
        assert!(
            stormy.resilience.retries > calm.resilience.retries,
            "outage should force extra retries: {} vs {}",
            stormy.resilience.retries,
            calm.resilience.retries
        );
        assert!(stormy.retry_amplification() > calm.retry_amplification());
        // First-attempt accounting is self-consistent: one per worker lane
        // per served query.
        let lanes: u64 = runtime
            .plan
            .groups()
            .iter()
            .map(|g| g.worker_count() as u64)
            .sum();
        assert_eq!(calm.resilience.first_attempts, 200 * lanes);
    }

    #[test]
    fn retry_budget_collapses_amplification_under_outage() {
        // The tentpole acceptance criterion: under a severe correlated
        // outage, naive retries amplify every admitted query into ~2x+
        // worker invocations, while the token bucket caps the amplification
        // and converts the excess into (honest) local-fallback degradation.
        let (runtime, predicted) = overload_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        let stormy = |rt: ForkJoinRuntime<'static>| {
            rt.with_chaos(ChaosConfig::invoke_only(0.35, 7))
                .unwrap()
                .serve_open_loop(rate, 300, 4, 11)
                .unwrap()
        };
        let naive = stormy(runtime.clone().with_policy(ResiliencePolicy::naive_retry()));
        let budgeted = stormy(
            runtime
                .clone()
                .with_policy(ResiliencePolicy::naive_retry())
                .with_retry_budget(RetryBudgetPolicy {
                    max_tokens: 16.0,
                    initial_tokens: 16.0,
                    refill_per_success: 0.05,
                })
                .unwrap(),
        );
        assert!(
            naive.retry_amplification() >= 1.4,
            "naive amplification {:.2}",
            naive.retry_amplification()
        );
        assert!(
            budgeted.retry_amplification() <= 1.2,
            "budgeted amplification {:.2}",
            budgeted.retry_amplification()
        );
        assert!(budgeted.resilience.budget_denied_retries > 0);
        // Denied retries become local fallbacks, not failures.
        assert_eq!(budgeted.resilience.failed_queries, 0);
        assert!(budgeted.resilience.degraded_queries > 0);
    }

    #[test]
    fn brownout_ladder_steps_down_under_outage_and_recovers() {
        // A long stream with episodic outages: the ladder must step down
        // during episodes (degraded arrivals appear below Full) and step
        // back up in the clean stretches (step_ups > 0), never ending the
        // run stuck when health has recovered.
        let (runtime, predicted) = overload_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        // Sparse but devastating episodes: long clean stretches between
        // them give the probe-driven recovery something to observe.
        let outage = OutageConfig {
            seed: 3,
            window_ms: 200.0,
            start_prob: 0.01,
            min_windows: 10,
            max_windows: 25,
            severity: 60.0,
            platform: true,
            lanes: false,
            memory_tiers: false,
            orchestrators: false,
        };
        let brownout_policy = BrownoutPolicy {
            window_lanes: 16,
            probe_interval: 2,
            ..BrownoutPolicy::default()
        };
        let report = runtime
            .clone()
            .with_chaos(outage_chaos(7))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff())
            .with_outage(outage)
            .unwrap()
            .with_brownout(brownout_policy)
            .unwrap()
            .serve_open_loop(rate, 600, 4, 11)
            .unwrap();
        assert!(
            report.brownout.step_downs > 0,
            "episodes must trip the ladder: {:?}",
            report.brownout
        );
        assert!(
            report.brownout.step_ups > 0,
            "clean windows must recover: {:?}",
            report.brownout
        );
        assert!(report.brownout.degraded_arrivals() > 0);
        // Every arrival is accounted at exactly one ladder level.
        assert_eq!(report.brownout.arrivals(), 600);
        // Identical runs agree bit-for-bit, counters included.
        let again = runtime
            .clone()
            .with_chaos(outage_chaos(7))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff())
            .with_outage(outage)
            .unwrap()
            .with_brownout(brownout_policy)
            .unwrap()
            .serve_open_loop(rate, 600, 4, 11)
            .unwrap();
        assert_eq!(report.brownout, again.brownout);
        assert_eq!(report.resilience, again.resilience);
    }

    #[test]
    fn healthy_platform_is_bit_identical_with_budget_and_brownout_installed() {
        // On a healthy platform the resilience additions are pure
        // observers: the bucket never runs dry, the ladder never leaves
        // Full, and the serving report matches the plain runtime
        // bit-for-bit (latency, billing, and all pre-existing counters).
        let (runtime, predicted) = overload_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        let plain = runtime.clone().serve_open_loop(rate, 200, 4, 13).unwrap();
        let guarded = runtime
            .clone()
            .with_retry_budget(RetryBudgetPolicy::default())
            .unwrap()
            .with_brownout(BrownoutPolicy::default())
            .unwrap()
            .serve_open_loop(rate, 200, 4, 13)
            .unwrap();
        assert_eq!(
            plain.latency.mean().to_bits(),
            guarded.latency.mean().to_bits()
        );
        assert_eq!(
            plain.billing.usd_total().to_bits(),
            guarded.billing.usd_total().to_bits()
        );
        assert_eq!(plain.resilience, guarded.resilience);
        assert_eq!(guarded.brownout.queries_at_level[0], 200);
        assert_eq!(guarded.brownout.step_downs, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Outage acceptance criterion: episode membership is a pure
        /// function of `(outage seed, domain, window)`, so chaotic serving
        /// under correlated outages — every counter included — is
        /// bit-identical for any `GILLIS_THREADS`.
        #[test]
        fn outage_simulation_is_bit_identical_across_thread_counts(
            (chaos_seed, outage_seed, n) in (0u64..1000, 0u64..1000, 10usize..40),
        ) {
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let vgg = zoo::vgg11();
            let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
            let runtime = ForkJoinRuntime::new(&vgg, &plan, platform)
                .unwrap()
                .with_chaos(stress_chaos(chaos_seed))
                .unwrap()
                .with_policy(ResiliencePolicy::backoff_hedged())
                .with_outage(OutageConfig::severe(8.0, outage_seed))
                .unwrap();
            let seq = runtime.simulate_many_with_threads(n, 5, 1);
            for threads in [2usize, 8] {
                let par = runtime.simulate_many_with_threads(n, 5, threads);
                proptest::prop_assert_eq!(
                    seq.latency.mean().to_bits(),
                    par.latency.mean().to_bits()
                );
                proptest::prop_assert_eq!(&seq.resilience, &par.resilience);
            }
        }

        /// Corruption is detected, never silent: under transfer corruption
        /// the tensor path's checksum verification rejects every corrupted
        /// payload, so any returned output is bit-identical to the
        /// fault-free run — and the detections are counted.
        #[test]
        fn corruption_never_reaches_an_ok_query(
            (weight_seed, chaos_seed) in (0u64..500, 0u64..500),
        ) {
            let tiny = zoo::tiny_vgg();
            let weights = init_weights(tiny.graph(), weight_seed).unwrap();
            let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
                ((i % 13) as f32 - 6.0) / 7.0
            });
            let plan = forced_split_plan(&tiny);
            let clean = execute_plan_tensors_resilient(
                &tiny, &plan, &weights, &input, None, &ResiliencePolicy::default(), 1,
            )
            .unwrap()
            .0;
            let injector = ChaosConfig {
                seed: chaos_seed,
                corrupt_rate: 0.3,
                ..ChaosConfig::default()
            }
            .build()
            .unwrap();
            for threads in [1usize, 4] {
                let (out, counters) = execute_plan_tensors_resilient(
                    &tiny, &plan, &weights, &input,
                    Some(&injector), &ResiliencePolicy::default(), threads,
                )
                .unwrap();
                for (a, b) in clean.data().iter().zip(out.data()) {
                    proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                // At a 30% corrupt rate over dozens of pieces, at least one
                // corruption fires and every one is detected at the join.
                proptest::prop_assert!(counters.corruptions_detected > 0);
            }
        }
    }

    // ──────────────────────── pipelined serving ────────────────────────

    #[test]
    fn pipelined_single_group_delegates_to_fork_join() {
        // A single-group plan has nothing to overlap: the pipelined entry
        // point must produce a bit-identical report to the plain open loop
        // (same RNG stream, same recorders), with zero pipeline accounting.
        let tiny = zoo::tiny_vgg();
        let plan = ExecutionPlan::single_function(&tiny);
        let platform = PlatformProfile::aws_lambda();
        let runtime = ForkJoinRuntime::new(&tiny, &plan, platform).unwrap();
        let plain = runtime.serve_open_loop(40.0, 60, 2, 9).unwrap();
        let piped = runtime
            .serve_open_loop_pipelined(&PipelinePolicy::with_lanes(4), 40.0, 60, 2, 9)
            .unwrap();
        assert_eq!(plain.latency.count(), piped.latency.count());
        assert_eq!(
            plain.latency.mean().to_bits(),
            piped.latency.mean().to_bits()
        );
        assert_eq!(plain.resilience, piped.resilience);
        assert_eq!(plain.cold_starts, piped.cold_starts);
        assert_eq!(piped.pipeline, PipelineCounters::default());
    }

    #[test]
    fn pipelined_serving_is_deterministic_with_backpressure_and_chaos() {
        // The full stack at once — multi-stage plan, faults, hedged
        // retries, single-lane stages with depth-1 queues at ~3x the
        // bottleneck rate — must (a) replay bit-identically from the seed
        // (the loop is sequential over a totally ordered event stream, so
        // `GILLIS_THREADS` cannot influence it), and (b) park upstream
        // completions instead of dropping them when downstream queues fill.
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny);
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let predicted = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;
        let runtime = ForkJoinRuntime::new(&tiny, &plan, platform)
            .unwrap()
            .with_chaos(stress_chaos(7))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff_hedged());
        let policy = PipelinePolicy {
            lanes: 1,
            queue_depth: 1,
        };
        // Single-lane saturation is 1000/bottleneck >= stages/predicted
        // queries per ms; 3x the upper bound overloads every stage.
        let stages = plan.groups().len();
        let rate = 3.0 * stages as f64 * 1000.0 / predicted;
        let queries = 150;
        let run = || -> ServingReport {
            runtime
                .serve_open_loop_pipelined(&policy, rate, queries, 1, 21)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.latency.count(), b.latency.count());
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        assert_eq!(
            a.latency.percentile(99.0).to_bits(),
            b.latency.percentile(99.0).to_bits()
        );
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.overload, b.overload);
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(
            a.billing.usd_total().to_bits(),
            b.billing.usd_total().to_bits()
        );
        assert_eq!(a.billing.invocations(), b.billing.invocations());

        assert_eq!(a.pipeline.stages, stages as u64);
        assert!(
            a.pipeline.backpressure_stalls > 0,
            "depth-1 queues at 3x saturation must park: {:?}",
            a.pipeline
        );
        assert!(
            a.pipeline.peak_stage_queue <= policy.queue_depth as u64,
            "queues are bounded: {:?}",
            a.pipeline
        );
        assert!(a.pipeline.handoffs > 0);
        // Sheds happen (bounded admission), and no admitted query is lost.
        assert!(a.overload.shed_queue_full > 0);
        assert_eq!(a.overload.admitted + a.overload.shed(), queries as u64);
        assert_eq!(a.latency.count() as u64, a.overload.admitted);
    }

    #[test]
    fn pipelining_beats_fork_join_goodput_at_saturation() {
        // The tentpole claim in miniature: with per-stage lane pools equal
        // to the fork-join concurrency, streaming queries through stages
        // admits and completes substantially more of an overloaded arrival
        // stream, because throughput is bounded by the slowest stage rather
        // than the end-to-end latency.
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny);
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let predicted = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;
        let runtime = ForkJoinRuntime::new(&tiny, &plan, platform).unwrap();
        let concurrency = 2;
        let slo_ms = 4.0 * predicted;
        let rate = 2.0 * 1000.0 * concurrency as f64 / predicted;
        let queries = 300;
        let forkjoin = runtime
            .clone()
            .with_overload(OverloadPolicy::for_slo(slo_ms, concurrency))
            .unwrap()
            .serve_open_loop(rate, queries, concurrency, 11)
            .unwrap();
        let pipelined = runtime
            .clone()
            .with_overload(OverloadPolicy::for_slo(slo_ms, concurrency))
            .unwrap()
            .serve_open_loop_pipelined(
                &PipelinePolicy::with_lanes(concurrency),
                rate,
                queries,
                concurrency,
                11,
            )
            .unwrap();
        assert!(
            pipelined.overload.admitted > forkjoin.overload.admitted,
            "pipeline {} vs fork-join {} admitted",
            pipelined.overload.admitted,
            forkjoin.overload.admitted
        );
        let fj_ok = forkjoin.by_status.ok.count() + forkjoin.by_status.degraded.count();
        let pp_ok = pipelined.by_status.ok.count() + pipelined.by_status.degraded.count();
        assert!(
            pp_ok as f64 >= 1.3 * fj_ok as f64,
            "goodput: pipeline {pp_ok} vs fork-join {fj_ok}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Backpressure never loses a query: for any seed, rate, and lane
        /// count — with chaos, retries, deadlines, and bounded stage queues
        /// all active — every arrival is either shed at admission or
        /// recorded with a terminal status, and stage queues never exceed
        /// the policy depth.
        #[test]
        fn pipelined_serving_never_loses_a_query(
            (seed, rate_scale, lanes) in (0u64..1000, 1u32..6, 1usize..4),
        ) {
            let tiny = zoo::tiny_vgg();
            let plan = forced_split_plan(&tiny);
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let predicted = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;
            let stages = plan.groups().len();
            let runtime = ForkJoinRuntime::new(&tiny, &plan, platform)
                .unwrap()
                .with_chaos(stress_chaos(seed ^ 0xabc))
                .unwrap()
                .with_policy(ResiliencePolicy::backoff_hedged())
                .with_overload(OverloadPolicy::for_slo(3.0 * predicted, lanes))
                .unwrap();
            let rate = rate_scale as f64 * stages as f64 * 1000.0 / predicted;
            let queries = 120usize;
            let policy = PipelinePolicy { lanes, queue_depth: 2 };
            let report = runtime
                .serve_open_loop_pipelined(&policy, rate, queries, lanes, seed)
                .unwrap();
            proptest::prop_assert_eq!(
                report.overload.admitted + report.overload.shed(),
                queries as u64
            );
            proptest::prop_assert_eq!(report.latency.count() as u64, report.overload.admitted);
            proptest::prop_assert_eq!(report.resilience.shed_queries, report.overload.shed());
            proptest::prop_assert!(
                report.pipeline.peak_stage_queue <= policy.queue_depth as u64
            );
            proptest::prop_assert!(report.pipeline.handoffs <= report.pipeline.stage_dispatches);
        }
    }

    /// Chaos that only crashes orchestrators: worker lanes stay perfectly
    /// healthy, so any behavioral difference is the recovery machinery's.
    fn orchestrator_chaos(rate: f64, seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            orchestrator_crash_rate: rate,
            ..ChaosConfig::default()
        }
    }

    /// Runs `queries` back-to-back queries through the fleet path with the
    /// runtime's own checkpoint cache, returning total service latency (ms)
    /// plus the resilience and recovery counters.
    fn drain_queries(
        rt: &ForkJoinRuntime<'_>,
        queries: u64,
        seed: u64,
        deadline_ms: Option<f64>,
    ) -> (f64, ResilienceCounters, RecoveryCounters) {
        let mut ctx = rt.run_ctx(0).unwrap();
        ctx.st.budget = None;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = Micros::ZERO;
        let mut total_ms = 0.0;
        for id in 0..queries {
            let q = QueryCtx {
                id,
                deadline: deadline_ms.map(|d| now + Micros::from_ms(d)),
                level: BrownoutLevel::Full,
                work: &rt.work,
            };
            let (done, _status) = ctx.run_query(&q, now, &mut rng).unwrap();
            total_ms += (done - now).as_ms();
            now = done;
        }
        (total_ms, ctx.st.resilience, ctx.st.recovery)
    }

    /// Shared fixture for the recovery tests: a multi-group tiny-VGG plan
    /// (stage boundaries are where checkpoints live).
    fn recovery_fixture() -> (ForkJoinRuntime<'static>, f64) {
        use std::sync::OnceLock;
        static MODEL: OnceLock<LinearModel> = OnceLock::new();
        static PLAN: OnceLock<ExecutionPlan> = OnceLock::new();
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = MODEL.get_or_init(zoo::tiny_vgg);
        let plan = PLAN.get_or_init(|| forced_split_plan(tiny));
        let predicted = predict_plan(tiny, plan, &perf).unwrap().latency_ms;
        assert!(plan.groups().len() >= 2, "fixture needs stage boundaries");
        (
            ForkJoinRuntime::new(tiny, plan, platform).unwrap(),
            predicted,
        )
    }

    #[test]
    fn failover_replays_resume_without_reexecuting_stages() {
        // The tentpole identity: with a capacious cache every orchestrator
        // crash finds its own boundary's checkpoint, so the replacement
        // re-executes *nothing* — worker invocations match the crash-free
        // run exactly, and total latency grows by exactly one failover per
        // crash. That equality is also the no-double-billing statement:
        // every worker-side stage execution is billed once.
        let (runtime, _) = recovery_fixture();
        let base = runtime
            .clone()
            .with_chaos(orchestrator_chaos(0.0, 5))
            .unwrap();
        let crashy = runtime
            .clone()
            .with_chaos(orchestrator_chaos(0.35, 5))
            .unwrap()
            .with_recovery(RecoveryPolicy::default())
            .unwrap();
        let (base_ms, base_res, base_rec) = drain_queries(&base, 40, 9, None);
        let (ms, res, rec) = drain_queries(&crashy, 40, 9, None);
        assert_eq!(base_rec.orchestrator_crashes, 0);
        assert!(rec.orchestrator_crashes > 0, "chaos must actually crash");
        assert_eq!(rec.failover_replays, rec.orchestrator_crashes);
        assert_eq!(rec.full_restarts, 0, "capacious cache never misses");
        assert!(rec.stages_saved >= rec.failover_replays);
        assert!(rec.recompute_avoided_ms > 0.0);
        assert_eq!(res.worker_invocations, base_res.worker_invocations);
        let expect =
            base_ms + rec.orchestrator_crashes as f64 * RecoveryPolicy::default().failover_ms;
        assert!(
            (ms - expect).abs() < 1e-6,
            "latency {ms:.3} vs base + crashes x failover {expect:.3}"
        );
    }

    #[test]
    fn crashes_without_checkpoints_pay_full_restarts() {
        // The baseline arm the bench compares against: same crashes, no
        // recovery policy — every crash redoes every completed stage.
        let (runtime, _) = recovery_fixture();
        let base = runtime
            .clone()
            .with_chaos(orchestrator_chaos(0.0, 5))
            .unwrap();
        let restart = runtime
            .clone()
            .with_chaos(orchestrator_chaos(0.35, 5))
            .unwrap();
        let (base_ms, base_res, _) = drain_queries(&base, 40, 9, None);
        let (ms, res, rec) = drain_queries(&restart, 40, 9, None);
        assert!(rec.orchestrator_crashes > 0);
        assert_eq!(rec.failover_replays, 0);
        assert_eq!(rec.full_restarts, rec.orchestrator_crashes);
        assert_eq!(rec.checkpoints_stored, 0, "no policy, no cache");
        assert!(
            res.worker_invocations > base_res.worker_invocations,
            "restarts re-execute stages: {} vs {}",
            res.worker_invocations,
            base_res.worker_invocations
        );
        assert!(ms > base_ms + rec.orchestrator_crashes as f64 * DEFAULT_FAILOVER_MS);
    }

    #[test]
    fn failed_groups_resume_retry_from_checkpoints() {
        // Worker lanes that exhaust a single attempt fail the group when
        // local fallback is off; with recovery on, the master retries the
        // group once from the checkpointed upstream boundary and turns some
        // of those failures into successes.
        let (runtime, _) = recovery_fixture();
        let fragile = ResiliencePolicy {
            max_attempts: 1,
            local_fallback: false,
            ..ResiliencePolicy::default()
        };
        let chaos = ChaosConfig {
            seed: 11,
            invoke_failure_rate: 0.25,
            ..ChaosConfig::default()
        };
        let bare = runtime
            .clone()
            .with_chaos(chaos)
            .unwrap()
            .with_policy(fragile);
        let resumed = bare
            .clone()
            .with_recovery(RecoveryPolicy::default())
            .unwrap();
        let (_, res0, rec0) = drain_queries(&bare, 60, 3, None);
        let (_, res1, rec1) = drain_queries(&resumed, 60, 3, None);
        assert!(res0.failed_queries > 0, "fixture must actually fail");
        assert_eq!(rec0.resume_retries, 0);
        assert!(rec1.resume_retries > 0);
        assert!(rec1.resume_retry_wins > 0);
        assert!(
            res1.failed_queries < res0.failed_queries,
            "resume retries should rescue failures: {} vs {}",
            res1.failed_queries,
            res0.failed_queries
        );
    }

    #[test]
    fn straggler_speculation_wins_races_from_checkpoints() {
        // Heavy stragglers: a stage past spec_factor x its p95 races a
        // duplicate execution seeded from the cached upstream output, and
        // the earlier finisher wins.
        let (runtime, _) = recovery_fixture();
        let chaos = ChaosConfig {
            seed: 13,
            straggler_rate: 0.3,
            straggler_slowdown: 25.0,
            ..ChaosConfig::default()
        };
        let slow = runtime.clone().with_chaos(chaos).unwrap();
        let spec = slow
            .clone()
            .with_recovery(RecoveryPolicy {
                spec_factor: 1.5,
                max_speculations: 4,
                ..RecoveryPolicy::default()
            })
            .unwrap();
        let (slow_ms, _, _) = drain_queries(&slow, 60, 3, None);
        let (spec_ms, _, rec) = drain_queries(&spec, 60, 3, None);
        assert!(rec.speculative_executions > 0);
        assert_eq!(
            rec.speculation_wins + rec.speculation_cancelled,
            rec.speculative_executions,
            "every speculation is resolved"
        );
        assert!(rec.speculation_wins > 0);
        assert!(
            spec_ms < slow_ms,
            "speculation should cut straggler latency: {spec_ms:.1} vs {slow_ms:.1}"
        );
    }

    #[test]
    fn doomed_resumes_are_skipped_at_the_deadline() {
        // A deadline with less slack than one failover + the remaining
        // stages: a crash fails the query fast instead of paying for a
        // resume that cannot finish in time.
        let (runtime, predicted) = recovery_fixture();
        let crashy = runtime
            .clone()
            .with_chaos(orchestrator_chaos(1.0, 3))
            .unwrap()
            .with_recovery(RecoveryPolicy::default())
            .unwrap();
        let (_, res, rec) = drain_queries(&crashy, 30, 7, Some(1.05 * predicted));
        assert!(rec.orchestrator_crashes > 0);
        assert!(
            rec.resume_skipped_deadline > 0,
            "tight deadline must skip some resumes: {rec:?}"
        );
        assert!(res.deadline_exceeded_queries > 0);
    }

    #[test]
    fn recovery_prices_retries_at_marginal_cost() {
        // Same worker chaos, same tiny token bucket: with recovery on, each
        // retry debits only its stage's share of the plan, so the bucket
        // funds strictly more retries before denying.
        let (runtime, _) = recovery_fixture();
        let bp = RetryBudgetPolicy {
            max_tokens: 4.0,
            initial_tokens: 4.0,
            refill_per_success: 0.0,
        };
        let flat = runtime
            .clone()
            .with_chaos(ChaosConfig::invoke_only(0.3, 7))
            .unwrap()
            .with_policy(ResiliencePolicy::naive_retry())
            .with_retry_budget(bp)
            .unwrap();
        let marginal = flat
            .clone()
            .with_recovery(RecoveryPolicy::default())
            .unwrap();
        let flat_r = flat.serve_open_loop(20.0, 200, 4, 11).unwrap();
        let marg_r = marginal.serve_open_loop(20.0, 200, 4, 11).unwrap();
        assert!(flat_r.resilience.budget_denied_retries > 0);
        assert!(
            marg_r.resilience.retries > flat_r.resilience.retries,
            "marginal pricing funds more retries: {} vs {}",
            marg_r.resilience.retries,
            flat_r.resilience.retries
        );
    }

    #[test]
    fn recovered_serving_is_deterministic() {
        // End-to-end: crashes + recovery through the public serving loop,
        // twice, bit-identical — the CI smoke contract in miniature.
        let (runtime, predicted) = recovery_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        let chaos = ChaosConfig {
            seed: 7,
            invoke_failure_rate: 0.05,
            orchestrator_crash_rate: 0.2,
            ..ChaosConfig::default()
        };
        let run = || {
            runtime
                .clone()
                .with_chaos(chaos)
                .unwrap()
                .with_policy(ResiliencePolicy::backoff())
                .with_recovery(RecoveryPolicy::default())
                .unwrap()
                .serve_open_loop(rate, 150, 4, 11)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        assert!(a.recovery.orchestrator_crashes > 0);
        assert!(a.recovery.checkpoints_stored > 0);
    }

    #[test]
    fn pipelined_full_restart_clears_a_stale_degraded_verdict() {
        // Recovery off, so every orchestrator crash is a full restart that
        // re-executes every stage up to the crash boundary on healthy
        // workers. A degraded verdict left by the lost executions must not
        // survive the clean re-execution — the plain master resets it too.
        let (base, _) = recovery_fixture();
        let rt = base.with_chaos(orchestrator_chaos(0.75, 3)).unwrap();
        let stages = rt.plan.groups().len();
        let mut sim = PipelineSim {
            ctx: rt.run_ctx(1).unwrap(),
            policy: PipelinePolicy::with_lanes(1),
            seed: 5,
            stages,
            counters: PipelineCounters::default(),
            free: vec![1; stages],
            queues: vec![VecDeque::new(); stages],
            parked: vec![VecDeque::new(); stages],
            q: vec![PipeQuery::default()],
            events: BinaryHeap::new(),
        };
        // Stage 0 degraded; stage 1 then completes and the orchestrator
        // crashes at its boundary.
        sim.q[0].status = QueryStatus::Degraded;
        let (_, status) = sim
            .checkpoint_and_crash(1, 0, Micros::ZERO, Micros::from_ms(50.0))
            .unwrap();
        let rec = &sim.ctx.st.recovery;
        assert!(rec.full_restarts > 0, "the seed must crash at boundary 1");
        assert_eq!(rec.failover_replays, 0);
        assert_eq!(sim.ctx.st.resilience.degraded_shards, 0);
        assert_eq!(status, QueryStatus::Ok);
        assert_eq!(sim.q[0].status, QueryStatus::Ok);
    }

    #[test]
    fn pipelined_serving_recovers_from_crashes_deterministically() {
        // The pipeline path has its own orchestrators (one per stage lane):
        // crashes there also replay from checkpoints, and downstream stages
        // stay bit-identical because normal execution never re-keys its RNG.
        let (runtime, predicted) = recovery_fixture();
        let lanes = 2;
        let rate = 0.5 * 1000.0 * lanes as f64 / predicted;
        let run = || {
            runtime
                .clone()
                .with_chaos(orchestrator_chaos(0.25, 9))
                .unwrap()
                .with_recovery(RecoveryPolicy::default())
                .unwrap()
                .with_overload(OverloadPolicy::for_slo(6.0 * predicted, lanes))
                .unwrap()
                .serve_open_loop_pipelined(&PipelinePolicy::with_lanes(lanes), rate, 150, lanes, 7)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        assert!(a.recovery.orchestrator_crashes > 0);
        assert!(a.recovery.failover_replays > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Resume bit-identity and billing, over seeds and crash rates:
        /// with a capacious cache, a crashing run re-executes no stage
        /// (worker invocations equal the crash-free run — no double
        /// billing) and its latency is exactly crashes x failover_ms more.
        #[test]
        fn failover_cost_is_exactly_crashes_times_failover(
            (seed, rate_centi) in (0u64..500, 5u32..40),
        ) {
            let (runtime, _) = recovery_fixture();
            let base = runtime
                .clone()
                .with_chaos(orchestrator_chaos(0.0, seed))
                .unwrap();
            let crashy = runtime
                .clone()
                .with_chaos(orchestrator_chaos(rate_centi as f64 / 100.0, seed))
                .unwrap()
                .with_recovery(RecoveryPolicy::default())
                .unwrap();
            let (base_ms, base_res, _) = drain_queries(&base, 25, seed ^ 0xd15, None);
            let (ms, res, rec) = drain_queries(&crashy, 25, seed ^ 0xd15, None);
            proptest::prop_assert_eq!(rec.full_restarts, 0);
            proptest::prop_assert_eq!(res.worker_invocations, base_res.worker_invocations);
            let expect = base_ms
                + rec.orchestrator_crashes as f64 * RecoveryPolicy::default().failover_ms;
            proptest::prop_assert!(
                (ms - expect).abs() < 1e-6,
                "latency {} vs base + crashes x failover {}", ms, expect
            );
        }
    }
}
