//! Latency-optimal partitioning by dynamic programming (paper §IV-B).
//!
//! The recursion is the paper's `L(i, j, m)` specialized to prefixes:
//! `L(j, m)` is the optimal latency of serving merged layers `0..j` with
//! master memory budget `m`; the last group `i..j` is parallelized with the
//! best option Algorithm 1 finds, either worker-only (consuming no master
//! budget) or with master participation (consuming the master partition's
//! weight bytes from the budget).
//!
//! The master budget is discretized on a configurable grid (the paper leaves
//! this implementation detail open); optimality holds up to one grid step of
//! memory-allocation granularity.

use std::sync::Arc;

use gillis_model::LinearModel;
use gillis_perf::PerfModel;

use crate::cache::EvalCache;
use crate::error::CoreError;
use crate::partition::{
    analyze_group_with, group_options, GroupAnalysis, ModelFlops, PartitionOption,
};
use crate::plan::{ExecutionPlan, Placement, PlannedGroup};
use crate::predict::predict_group;
use crate::Result;

/// What a plan search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanObjective {
    /// Minimize single-query end-to-end latency: the sum of group latencies
    /// (the paper's objective).
    #[default]
    Latency,
    /// Minimize the pipeline bottleneck — the maximum *stage time* (inbound
    /// activation hand-off plus group latency) over the plan's groups,
    /// FuncPipe's non-uniform stage balancing. Steady-state pipeline
    /// throughput is `1000 / bottleneck_ms`, so this mode maximizes it;
    /// ties break toward the smaller pipeline-fill latency (the sum of
    /// stage times).
    PipelineBottleneck,
}

/// Configuration of the latency-optimal partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionerConfig {
    /// Parallelism degrees to consider for split options.
    pub degrees: Vec<usize>,
    /// Master-memory discretization step in bytes.
    pub mem_grid_bytes: u64,
    /// Per-function memory budget; `None` uses the platform's model budget
    /// (the paper's `M`).
    pub budget_bytes: Option<u64>,
    /// Optional cap on group length (layers per group), to bound search.
    /// `Some(1)` disables grouping entirely — the layer-wise ablation.
    pub max_group_len: Option<usize>,
    /// Whether the master may compute partitions (§III-B). Disabling this
    /// forces worker-only placements — the master-participation ablation.
    pub allow_master_participation: bool,
    /// What the search minimizes: single-query latency (default) or the
    /// pipeline-stage bottleneck.
    pub objective: PlanObjective,
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        PartitionerConfig {
            degrees: vec![2, 3, 4, 6, 8, 12, 16],
            mem_grid_bytes: 16 * 1024 * 1024,
            budget_bytes: None,
            max_group_len: None,
            allow_master_participation: true,
            objective: PlanObjective::default(),
        }
    }
}

/// The latency-optimal dynamic-programming partitioner.
#[derive(Debug, Clone, Default)]
pub struct DpPartitioner {
    config: PartitionerConfig,
    /// Shared memoization layer for group analyses and Algorithm 1 results.
    cache: Option<Arc<EvalCache>>,
    /// Thread-count override for per-group option evaluation; `None` follows
    /// `GILLIS_THREADS` / the machine parallelism.
    eval_threads: Option<usize>,
}

/// Result of Algorithm 1 for one (group, budget-threshold) pair: the best
/// evaluated latency with the option and placement achieving it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEval {
    /// Predicted end-to-end latency of the group under this choice.
    pub latency_ms: f64,
    /// The winning parallelization option.
    pub option: PartitionOption,
    /// Where the partitions run.
    pub placement: Placement,
    /// Grid steps of master budget this choice consumes.
    pub budget_steps: usize,
}

/// Per-option outcome of Algorithm 1's inner evaluation: `None` when some
/// partition exceeds the per-function budget, otherwise the worker-only
/// evaluation plus (when master participation is allowed) the
/// master-participating one.
type OptionOutcome = Option<(GroupEval, Option<GroupEval>)>;

impl DpPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: PartitionerConfig) -> Self {
        DpPartitioner {
            config,
            cache: None,
            eval_threads: None,
        }
    }

    /// Attaches a shared [`EvalCache`]: group analyses and Algorithm 1
    /// results are looked up before computing and stored after, so repeated
    /// `partition` calls (and other planners sharing the cache) skip
    /// re-evaluating identical cells. Plans are identical with or without a
    /// cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the number of threads used to evaluate a group's option set
    /// (default: `GILLIS_THREADS` or the machine parallelism). Results are
    /// bit-identical for any thread count; this exists for tests and for
    /// callers embedding the partitioner in an already-parallel context.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.eval_threads = Some(threads.max(1));
        self
    }

    /// Overrides the planning objective (see [`PlanObjective`]).
    #[must_use]
    pub fn with_objective(mut self, objective: PlanObjective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Fingerprint of the configuration knobs that shape Algorithm 1's
    /// per-cell result (the memory grid changes `budget_steps`, the degree
    /// set and master flag change the candidate space, and the objective
    /// changes what a cell's `latency_ms` *means*: group latency under
    /// [`PlanObjective::Latency`], stage time — hand-off included — under
    /// [`PlanObjective::PipelineBottleneck`]). Omitting the objective here
    /// would let one mode serve poisoned cells to the other through a
    /// shared [`EvalCache`].
    fn config_tag(&self) -> Vec<u64> {
        let mut tag: Vec<u64> = self.config.degrees.iter().map(|&d| d as u64).collect();
        tag.push(u64::from(self.config.allow_master_participation));
        tag.push(self.config.mem_grid_bytes.max(1));
        tag.push(self.config.objective as u64);
        tag
    }

    /// Finds the latency-optimal plan for `model` on the platform behind
    /// `perf`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when no plan fits the memory
    /// budget (a layer too large for any partitioning option), and
    /// propagates analysis errors.
    pub fn partition(&self, model: &LinearModel, perf: &PerfModel) -> Result<ExecutionPlan> {
        let n = model.layers().len();
        if n == 0 {
            return Ok(ExecutionPlan::new(Vec::new()));
        }
        let budget = self
            .config
            .budget_bytes
            .unwrap_or(perf.platform.model_memory_budget);
        let grid = self.config.mem_grid_bytes.max(1);
        let steps = (budget / grid) as usize;

        // Hoist the per-layer FLOPs tables: every group analysis below reads
        // them, and recomputing per (group, option) pair dominates the run.
        let flops = match &self.cache {
            Some(cache) => cache.flops(model),
            None => Arc::new(ModelFlops::new(model)),
        };
        let eval_key = self
            .cache
            .as_ref()
            .map(|_| EvalCache::eval_key(model, perf, &self.config_tag()));

        // candidates[i][j - i - 1]: best worker-only and master-participating
        // choices (Algorithm 1) for group i..j.
        let mut candidates: Vec<Vec<(Option<GroupEval>, Option<GroupEval>)>> = vec![Vec::new(); n];
        for (i, row) in candidates.iter_mut().enumerate() {
            let max_j = self
                .config
                .max_group_len
                .map(|l| (i + l).min(n))
                .unwrap_or(n);
            for j in i + 1..=max_j {
                row.push(self.find_opt_latency(model, perf, &flops, eval_key, i, j, budget, grid)?);
            }
        }

        // L[j][m]: best score for layers 0..j with m grid steps of master
        // budget; back[j][m] records the chosen group. A score is the
        // lexicographic pair (Σ group latency, 0) under the latency
        // objective and (max stage time, Σ stage time) under the pipeline
        // objective — the second component breaks bottleneck ties toward
        // the smaller pipeline-fill latency.
        const INF: f64 = f64::INFINITY;
        let objective = self.config.objective;
        let combine = |prev: (f64, f64), cell_ms: f64| -> (f64, f64) {
            match objective {
                PlanObjective::Latency => (prev.0 + cell_ms, 0.0),
                PlanObjective::PipelineBottleneck => (prev.0.max(cell_ms), prev.1 + cell_ms),
            }
        };
        let mut best = vec![vec![(INF, INF); steps + 1]; n + 1];
        let mut back: Vec<Vec<Option<(usize, GroupEval)>>> = vec![vec![None; steps + 1]; n + 1];
        best[0].fill((0.0, 0.0));
        for j in 1..=n {
            for m in 0..=steps {
                for i in 0..j {
                    let Some(&(worker_only, with_master)) = candidates[i].get(j - i - 1) else {
                        continue;
                    };
                    if let Some(c) = worker_only {
                        let prev = best[i][m];
                        if prev.0.is_finite() {
                            let cand = combine(prev, c.latency_ms);
                            if cand < best[j][m] {
                                best[j][m] = cand;
                                back[j][m] = Some((i, c));
                            }
                        }
                    }
                    if let Some(c) = with_master {
                        if m >= c.budget_steps {
                            let prev = best[i][m - c.budget_steps];
                            if prev.0.is_finite() {
                                let cand = combine(prev, c.latency_ms);
                                if cand < best[j][m] {
                                    best[j][m] = cand;
                                    back[j][m] = Some((i, c));
                                }
                            }
                        }
                    }
                }
            }
        }

        if !best[n][steps].0.is_finite() {
            return Err(CoreError::Infeasible(format!(
                "no partitioning of {} fits the {budget}-byte budget",
                model.name()
            )));
        }

        // Reconstruct.
        let mut groups = Vec::new();
        let (mut j, mut m) = (n, steps);
        while j > 0 {
            let (i, choice) =
                back[j][m].ok_or_else(|| CoreError::Infeasible("broken backpointer".into()))?;
            groups.push(PlannedGroup {
                start: i,
                end: j,
                option: choice.option,
                placement: choice.placement,
            });
            m -= choice.budget_steps;
            j = i;
        }
        groups.reverse();
        // Under the latency objective, adjacent master-resident groups are
        // an artifact of the recursion boundaries, not a serving decision:
        // coalesce them. Under the pipeline objective they are deliberate
        // stage boundaries (merging would grow the bottleneck), so keep
        // them.
        let plan = match objective {
            PlanObjective::Latency => ExecutionPlan::new(groups).coalesce_master_runs(),
            PlanObjective::PipelineBottleneck => ExecutionPlan::new(groups),
        };
        plan.validate(model, budget)?;
        Ok(plan)
    }

    /// Algorithm 1: search the group's parallelization options and return
    /// the best worker-only choice and the best master-participating choice
    /// (whose budget requirement is the master partition's weight bytes).
    ///
    /// Options are evaluated in parallel; the winner is reduced sequentially
    /// in option order afterwards, so the result — including first-wins
    /// tie-breaking — is bit-identical for every thread count.
    #[allow(clippy::too_many_arguments)]
    fn find_opt_latency(
        &self,
        model: &LinearModel,
        perf: &PerfModel,
        flops: &ModelFlops,
        eval_key: Option<u64>,
        i: usize,
        j: usize,
        budget: u64,
        grid: u64,
    ) -> Result<(Option<GroupEval>, Option<GroupEval>)> {
        if let (Some(cache), Some(key)) = (&self.cache, eval_key) {
            if let Some(pair) = cache.choice(key, i, j, budget) {
                return Ok(pair);
            }
        }

        let options = group_options(model, i, j, &self.config.degrees);
        let outcomes = self.evaluate_options(model, perf, flops, i, j, budget, grid, &options);

        // Sequential reduction in option order: first strictly-better latency
        // wins the worker-only slot; the master slot additionally prefers
        // fewer budget steps at equal latency.
        let mut best_worker_only: Option<GroupEval> = None;
        let mut best_with_master: Option<GroupEval> = None;
        for outcome in outcomes {
            let Some((wo, mp)) = outcome? else {
                continue;
            };
            if best_worker_only
                .map(|b| wo.latency_ms < b.latency_ms)
                .unwrap_or(true)
            {
                best_worker_only = Some(wo);
            }
            if let Some(mp) = mp {
                if best_with_master
                    .map(|b| {
                        mp.latency_ms < b.latency_ms
                            || (mp.latency_ms == b.latency_ms && mp.budget_steps < b.budget_steps)
                    })
                    .unwrap_or(true)
                {
                    best_with_master = Some(mp);
                }
            }
        }

        let pair = (best_worker_only, best_with_master);
        if let (Some(cache), Some(key)) = (&self.cache, eval_key) {
            cache.store_choice(key, i, j, budget, pair);
        }
        Ok(pair)
    }

    /// Evaluates every option of one group, returning outcomes index-aligned
    /// with `options`. Options are evaluated as independent tasks on the
    /// shared persistent pool; each slot is written by exactly one task, so
    /// the returned order (and hence the caller's reduction) is independent
    /// of the thread count.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_options(
        &self,
        model: &LinearModel,
        perf: &PerfModel,
        flops: &ModelFlops,
        i: usize,
        j: usize,
        budget: u64,
        grid: u64,
        options: &[PartitionOption],
    ) -> Vec<Result<OptionOutcome>> {
        // Under the pipeline objective a cell's value is the *stage time*:
        // group latency plus the inbound activation hand-off the stage pays
        // to receive its input from the upstream stage (zero for the first
        // stage, which is fed by the client).
        let handoff_ms = match self.config.objective {
            PlanObjective::Latency => 0.0,
            PlanObjective::PipelineBottleneck if i == 0 => 0.0,
            PlanObjective::PipelineBottleneck => perf.handoff_ms(model.layers()[i].in_bytes()),
        };
        let evaluate = |option: PartitionOption| -> Result<OptionOutcome> {
            let cached;
            let owned;
            let analysis: &GroupAnalysis = match &self.cache {
                Some(cache) => {
                    cached = cache.analysis(model, i, j, option)?;
                    &cached
                }
                None => {
                    owned = analyze_group_with(model, flops, i, j, option)?;
                    &owned
                }
            };
            // Partition too large to fit into any function: skip option.
            if analysis.partitions.iter().any(|p| p.mem_bytes() > budget) {
                return Ok(None);
            }

            // Worker-only placement: every partition on a worker.
            let wo = predict_group(perf, analysis, Placement::Workers);
            let worker_only = GroupEval {
                latency_ms: handoff_ms + wo.latency_ms(),
                option,
                placement: Placement::Workers,
                budget_steps: 0,
            };

            let with_master = self.config.allow_master_participation.then(|| {
                // Master-participating placement: partition 0 in the master.
                let placement = if option.parts() == 1 {
                    Placement::Master
                } else {
                    Placement::MasterAndWorkers
                };
                let mp = predict_group(perf, analysis, placement);
                let w0 = analysis.partitions[0].weight_bytes;
                GroupEval {
                    latency_ms: handoff_ms + mp.latency_ms(),
                    option,
                    placement,
                    budget_steps: w0.div_ceil(grid) as usize,
                }
            });
            Ok(Some((worker_only, with_master)))
        };

        let threads = self
            .eval_threads
            .unwrap_or_else(gillis_pool::gillis_threads)
            .clamp(1, options.len().max(1));
        if threads <= 1 {
            return options.iter().map(|&o| evaluate(o)).collect();
        }

        // Index-ordered slots on the shared pool: slot `i` is written only by
        // task `i`, so the returned order is independent of scheduling.
        gillis_pool::Pool::global().run(options.len(), |i| evaluate(options[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::predict_plan;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;
    use proptest::prelude::*;

    fn perf(platform: &PlatformProfile) -> PerfModel {
        PerfModel::analytic(platform)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn dp_plans_invariant_to_threads_and_cache(
            (model_idx, grid_shift, degree_mask) in (0usize..4, 0u32..3, 1usize..8),
        ) {
            let model = match model_idx {
                0 => zoo::tiny_vgg(),
                1 => zoo::vgg11(),
                2 => zoo::rnn(6),
                _ => zoo::mobilenet(),
            };
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let base = [2usize, 4, 8];
            let degrees: Vec<usize> = base
                .iter()
                .enumerate()
                .filter(|(i, _)| degree_mask & (1 << i) != 0)
                .map(|(_, &d)| d)
                .collect();
            let config = PartitionerConfig {
                degrees,
                mem_grid_bytes: (16u64 * 1024 * 1024) << grid_shift,
                ..PartitionerConfig::default()
            };
            let serial = DpPartitioner::new(config.clone())
                .with_threads(1)
                .partition(&model, &perf)
                .unwrap();
            let threaded = DpPartitioner::new(config.clone())
                .with_threads(8)
                .partition(&model, &perf)
                .unwrap();
            prop_assert_eq!(&serial, &threaded);

            let cache = Arc::new(EvalCache::new());
            let cold = DpPartitioner::new(config.clone())
                .with_cache(Arc::clone(&cache))
                .partition(&model, &perf)
                .unwrap();
            prop_assert_eq!(&serial, &cold);
            // Warm cache (and a different thread count): identical plan, and
            // every DP cell answers from the cache.
            let warm = DpPartitioner::new(config)
                .with_cache(Arc::clone(&cache))
                .with_threads(8)
                .partition(&model, &perf)
                .unwrap();
            prop_assert_eq!(&serial, &warm);
            prop_assert!(cache.stats().hits > 0);
        }
    }

    #[test]
    fn dp_beats_single_function_on_vgg() {
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let vgg = zoo::vgg16();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let dp_pred = predict_plan(&vgg, &plan, &perf).unwrap();
        let single = predict_plan(&vgg, &ExecutionPlan::single_function(&vgg), &perf).unwrap();
        let speedup = single.latency_ms / dp_pred.latency_ms;
        // Paper Fig 9: 1.9x speedup for VGG-16 on Lambda.
        assert!(speedup > 1.3, "speedup only {speedup:.2}");
        assert!(speedup < 4.0, "speedup implausibly high: {speedup:.2}");
    }

    #[test]
    fn dp_handles_models_too_large_for_one_function() {
        // WRN-50-4 exceeds the 1.4 GB budget: Default OOMs, the DP must
        // still find a plan (paper Fig 11).
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let wrn = zoo::wrn50(4);
        assert!(wrn.weight_bytes() > platform.model_memory_budget);
        let plan = DpPartitioner::default().partition(&wrn, &perf).unwrap();
        plan.validate(&wrn, platform.model_memory_budget).unwrap();
        // Some group must be split or offloaded to workers.
        assert!(plan.groups().iter().any(|g| g.worker_count() > 0));
    }

    #[test]
    fn dp_respects_master_budget() {
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let wrn = zoo::wrn34(5);
        let plan = DpPartitioner::default().partition(&wrn, &perf).unwrap();
        let master = plan.master_weight_bytes(&wrn).unwrap();
        assert!(master <= platform.model_memory_budget);
    }

    #[test]
    fn rnn_plan_places_layers_without_parallelism() {
        // RNN layers cannot be parallelized (paper §V-B): the DP must
        // produce Single groups only, offloading layers to workers once the
        // master is full.
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let rnn = zoo::rnn(12); // too big for one function
        let plan = DpPartitioner::default().partition(&rnn, &perf).unwrap();
        assert!(plan
            .groups()
            .iter()
            .all(|g| g.option == PartitionOption::Single));
        plan.validate(&rnn, platform.model_memory_budget).unwrap();
        assert!(plan.groups().iter().any(|g| g.worker_count() > 0));
    }

    #[test]
    fn small_rnn_stays_in_master() {
        // RNN-3 fits in one function; parallelization cannot help (§V-B), so
        // the optimal plan is master-only with no communication.
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let rnn = zoo::rnn(3);
        let plan = DpPartitioner::default().partition(&rnn, &perf).unwrap();
        assert!(plan.groups().iter().all(|g| g.worker_count() == 0));
        let pred = predict_plan(&rnn, &plan, &perf).unwrap();
        let single = predict_plan(&rnn, &ExecutionPlan::single_function(&rnn), &perf).unwrap();
        assert!((pred.latency_ms - single.latency_ms).abs() / single.latency_ms < 0.05);
    }

    #[test]
    fn dp_matches_exhaustive_search_on_tiny_model() {
        // Brute-force all (grouping, option, placement) plans of a tiny model
        // and check the DP is no worse.
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let tiny = zoo::tiny_vgg();
        let config = PartitionerConfig {
            degrees: vec![2, 4],
            ..PartitionerConfig::default()
        };
        let plan = DpPartitioner::new(config.clone())
            .partition(&tiny, &perf)
            .unwrap();
        let dp_latency = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;

        let budget = platform.model_memory_budget;
        // Best latency over all segmentations of layers `start..` (n is
        // small), given the master memory and latency used so far.
        fn enumerate(
            model: &LinearModel,
            perf: &PerfModel,
            config: &PartitionerConfig,
            budget: u64,
            start: usize,
            master_used: u64,
            latency: f64,
        ) -> f64 {
            let n = model.layers().len();
            if start == n {
                return latency;
            }
            let mut best = f64::INFINITY;
            for end in start + 1..=n {
                for option in group_options(model, start, end, &config.degrees) {
                    let analysis =
                        crate::partition::analyze_group(model, start, end, option).unwrap();
                    if analysis.partitions.iter().any(|p| p.mem_bytes() > budget) {
                        continue;
                    }
                    for placement in [
                        Placement::Workers,
                        if option.parts() == 1 {
                            Placement::Master
                        } else {
                            Placement::MasterAndWorkers
                        },
                    ] {
                        let used = if placement == Placement::Workers {
                            0
                        } else {
                            analysis.partitions[0].weight_bytes
                        };
                        if master_used + used > budget {
                            continue;
                        }
                        let g = predict_group(perf, &analysis, placement);
                        best = best.min(enumerate(
                            model,
                            perf,
                            config,
                            budget,
                            end,
                            master_used + used,
                            latency + g.latency_ms(),
                        ));
                    }
                }
            }
            best
        }
        let best = enumerate(&tiny, &perf, &config, budget, 0, 0, 0.0);
        assert!(best.is_finite());
        assert!(
            dp_latency <= best * 1.0001,
            "dp {dp_latency} vs brute force {best}"
        );
    }

    #[test]
    fn objectives_share_a_cache_without_poisoning_each_other() {
        // Regression: the eval-cache choice key must include the planning
        // objective. Pipeline-mode cells store *stage times* (inbound
        // hand-off included), so a mode-blind key would let one objective
        // answer the other's DP cells with the wrong quantity.
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let vgg = zoo::vgg11();
        let latency_cfg = PartitionerConfig::default();
        let pipeline_cfg = PartitionerConfig {
            objective: PlanObjective::PipelineBottleneck,
            ..PartitionerConfig::default()
        };
        let lat_plain = DpPartitioner::new(latency_cfg.clone())
            .partition(&vgg, &perf)
            .unwrap();
        let pipe_plain = DpPartitioner::new(pipeline_cfg.clone())
            .partition(&vgg, &perf)
            .unwrap();
        assert_ne!(lat_plain, pipe_plain, "objectives must differ on VGG-11");
        // Both run orders through one shared cache must reproduce the
        // uncached plans exactly.
        for latency_first in [true, false] {
            let cache = Arc::new(EvalCache::new());
            let run = |cfg: &PartitionerConfig| {
                DpPartitioner::new(cfg.clone())
                    .with_cache(Arc::clone(&cache))
                    .partition(&vgg, &perf)
                    .unwrap()
            };
            let (lat, pipe) = if latency_first {
                let l = run(&latency_cfg);
                (l, run(&pipeline_cfg))
            } else {
                let p = run(&pipeline_cfg);
                (run(&latency_cfg), p)
            };
            assert_eq!(lat, lat_plain, "latency_first={latency_first}");
            assert_eq!(pipe, pipe_plain, "latency_first={latency_first}");
        }
    }

    #[test]
    fn pipeline_objective_cuts_the_bottleneck() {
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let vgg = zoo::vgg11();
        let latency_plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let pipe_plan = DpPartitioner::default()
            .with_objective(PlanObjective::PipelineBottleneck)
            .partition(&vgg, &perf)
            .unwrap();
        let t_lat = crate::predict::t_pipeline(&vgg, &latency_plan, &perf).unwrap();
        let t_pipe = crate::predict::t_pipeline(&vgg, &pipe_plan, &perf).unwrap();
        assert!(
            t_pipe < t_lat,
            "stage balancing should beat the latency plan: {t_pipe} vs {t_lat}"
        );
        // Balancing needs more, smaller stages than the latency plan.
        assert!(pipe_plan.groups().len() >= latency_plan.groups().len());
        pipe_plan
            .validate(&vgg, platform.model_memory_budget)
            .unwrap();
    }

    #[test]
    fn infeasible_when_budget_is_absurdly_small() {
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let config = PartitionerConfig {
            budget_bytes: Some(1024), // 1 KB: nothing fits
            ..PartitionerConfig::default()
        };
        let err = DpPartitioner::new(config).partition(&zoo::tiny_vgg(), &perf);
        assert!(matches!(err, Err(CoreError::Infeasible(_))));
    }

    #[test]
    fn empty_model_produces_empty_plan() {
        use gillis_model::{Graph, LayerOp};
        use gillis_tensor::Shape;
        let mut g = Graph::new();
        g.add(
            "input",
            LayerOp::Input {
                shape: Shape::new(vec![1]),
            },
            &[],
        )
        .unwrap();
        let model = gillis_model::merge::merge_graph("empty", g).unwrap();
        let platform = PlatformProfile::aws_lambda();
        let plan = DpPartitioner::default()
            .partition(&model, &perf(&platform))
            .unwrap();
        assert!(plan.groups().is_empty());
    }
}
