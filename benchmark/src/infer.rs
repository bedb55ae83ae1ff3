//! The `infer-vgg11` workload: real tensors through `Deployment::infer` in
//! a closed loop with one caller, checked bit for bit against the
//! unpartitioned forward pass. Its traced run also times the uncompiled
//! partitioned executor on ResNet-34, the path branching models take.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use gillis::core::{
    analyze_group, execute_plan_tensors_with_threads, CompiledPlanExec, PartitionOption,
    PlanObjective,
};
use gillis::faas::PlatformProfile;
use gillis::model::compiled::{CompiledSegment, PanelCache, PieceSpec};
use gillis::model::exec::Executor;
use gillis::model::weights::{init_weights, ModelWeights};
use gillis::model::{zoo, LayerClass, LinearModel, MergedLayer};
use gillis::serving::{Gillis, Mode};
use gillis::tensor::Tensor;

use crate::report::{self, median, ratio, Outcome, Phase, Values};
use crate::serve::{self, Driver};
use crate::trace::Tracer;
use crate::{repeat_setup, seed_for, Args};

/// Counts heap allocations so the traced run can report allocations per
/// query of the executors. Counting is off until [`count_allocations`]
/// turns it on, so untraced runs pay one relaxed load per allocation and
/// share no written cache line between threads.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Starts counting allocations (the traced run only).
fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged; the counters are relaxed atomics that allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A query tensor drawn from `seed` (xorshift64, values in [-1, 1)).
fn query(model: &LinearModel, seed: u64) -> Tensor {
    let mut x = seed | 1;
    Tensor::from_fn(model.input_shape().clone(), |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    })
}

fn check_same(what: &str, got: &[f32], want: &Tensor) -> Result<(), String> {
    if got.len() != want.data().len() {
        return Err(format!(
            "{what}: {} outputs, expected {}",
            got.len(),
            want.data().len()
        ));
    }
    match got
        .iter()
        .zip(want.data())
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => Err(format!(
            "{what}: output {i} is {} but the unpartitioned forward pass gives {}",
            got[i],
            want.data()[i]
        )),
        None => Ok(()),
    }
}

/// The per-layer span category of a merged layer.
fn kernel_cat(layer: &MergedLayer) -> &'static str {
    match layer.class {
        LayerClass::DenseLike => "tensor.dense",
        LayerClass::ConvLike { .. } if layer.weight_bytes > 0 => "tensor.conv",
        _ => "tensor.other",
    }
}

/// Deploys `model` on the Lambda profile with the latency-optimal DP plan.
fn deploy(model: &LinearModel) -> Result<gillis::serving::Deployment, String> {
    Gillis::new(model.clone())
        .platform(PlatformProfile::aws_lambda())
        .mode(Mode::LatencyOptimal)
        .seed(serve::PLAN_SEED)
        .deploy()
        .map_err(|e| format!("deploy: {e}"))
}

/// Runs every merged layer of `model` once through its own compiled
/// segment, each in its own span, feeding each layer the previous one's
/// output; returns the final output.
fn run_layers(
    model: &LinearModel,
    segs: &mut [CompiledSegment],
    weights: &ModelWeights,
    input: &Tensor,
    tracer: &mut Tracer,
    req: u64,
) -> Result<Vec<f32>, String> {
    let mut cur = input.data().to_vec();
    for (layer, seg) in model.layers().iter().zip(segs.iter_mut()) {
        let out = tracer
            .span(kernel_cat(layer), &layer.name, req, |_| {
                seg.run(weights, &cur)
            })
            .map_err(|e| format!("{}: {e}", layer.name))?;
        cur = out.to_vec();
    }
    Ok(cur)
}

/// The `infer-vgg11` workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let model = zoo::vgg11();
    let weights =
        init_weights(model.graph(), seed_for(args.seed, 1)).map_err(|e| format!("weights: {e}"))?;
    let input = query(&model, seed_for(args.seed, 2));
    let reference = Executor::new(model.graph(), &weights)
        .forward(&model, &input)
        .map_err(|e| format!("forward: {e}"))?;
    let mut v = Values::new();

    // Set-up: deploy (profile, plan, validate) plus the first query, which
    // compiles the plan.
    let (setup_s, d) = repeat_setup(5, 10, 1.0, |i| {
        let req = i as u64;
        tracer.span("setup", "set-up", req, |t| {
            let d = t.span("facade.deploy", "Gillis::deploy", req, |_| deploy(&model))?;
            let out = t
                .span("facade.first_query", "Deployment::infer", req, |_| {
                    d.infer(&weights, &input)
                })
                .map_err(|e| format!("first query: {e}"))?;
            check_same("first query", out.data(), &reference)?;
            Ok(d)
        })
    })?;
    println!(
        "set-up: {} deploys + first queries, median {:.4} s; plan predicted {:.1} ms\n{}",
        setup_s.len(),
        median(&setup_s),
        d.predicted().latency_ms,
        d.describe().map_err(|e| e.to_string())?
    );
    v.insert("setup_s", median(&setup_s));
    let setup_queries = setup_s.len() as u64;

    let queries = if tracer.enabled() {
        // Half the time for the compiled path, half for the partitioned
        // executor on ResNet-34.
        let half = args.seconds / 2.0;
        let queries = trace_layers(
            &model, &d, &weights, &input, &reference, half, tracer, &mut v,
        )?;
        queries + trace_partition(args.seed, half, tracer, &mut v)?
    } else {
        let mut lat = Vec::new();
        let start = Instant::now();
        while lat.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let t0 = Instant::now();
            let out = d
                .infer(&weights, &input)
                .map_err(|e| format!("query: {e}"))?;
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            check_same("query", out.data(), &reference)?;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let t = report::tail(&lat);
        println!(
            "call_tail_ms: p{:.1} of {} queries ({} beyond)",
            t.percentile, t.samples, t.beyond
        );
        v.insert("call_p50_ms", median(&lat));
        v.insert("call_tail_ms", t.value);
        v.insert("ops_per_s", lat.len() as f64 / elapsed);
        lat.len() as u64
    };
    // Peak memory of the real-tensor phases, before the DES phase runs.
    v.insert("peak_rss_mb", report::peak_rss_mb()?);
    Phase {
        name: "setup".into(),
        sent: setup_queries,
        ok: setup_queries,
        failed: 0,
        detail: "(first queries, bit-identical)".into(),
    }
    .print();
    Phase {
        name: "measure".into(),
        sent: queries,
        ok: queries,
        failed: 0,
        detail: "(queries, bit-identical)".into(),
    }
    .print();

    // Modelled serving of the same plan: one DES pass, after and apart
    // from everything timed above.
    let sd = serve::serving_builder(
        model.clone(),
        Mode::LatencyOptimal,
        Driver::ForkJoin,
        seed_for(args.seed, 3),
    )
    .deploy()
    .map_err(|e| format!("serving deploy: {e}"))?;
    let pass = serve::run_pass(&sd, Driver::ForkJoin, seed_for(args.seed, 4), tracer, 0)?;
    for p in pass.phases() {
        p.print();
    }
    pass.model_metrics(&mut v);
    pass.layer_metrics(sd.predicted().latency_ms, &mut v);
    v.insert(
        "des.us_per_arrival",
        pass.wall_s * 1e6 / pass.arrivals as f64,
    );
    Ok(Outcome {
        attempted: setup_queries + queries,
        failed: 0,
        metrics: v,
    })
}

/// Fewest requests of each half of a traced run, so each per-request
/// median has a few samples even where one request takes seconds.
const MIN_TRACED_REQUESTS: u64 = 3;

/// The compiled half of the traced run: each request calls
/// `Deployment::infer`, then `CompiledPlanExec::run` underneath it, then
/// every merged layer on its own, twice. Every output is checked. Returns
/// the number of requests.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    model: &LinearModel,
    d: &gillis::serving::Deployment,
    weights: &ModelWeights,
    input: &Tensor,
    reference: &Tensor,
    seconds: f64,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Result<u64, String> {
    serve::trace_planner(tracer, model, PlanObjective::Latency, false, v)?;
    let plan = d.plan();
    let mut exec = tracer
        .span("exec.compile", "CompiledPlanExec::compile", 0, |_| {
            CompiledPlanExec::compile(model, plan, weights)
        })
        .map_err(|e| format!("compile: {e}"))?;
    v.insert("exec.panel_mb", exec.panel_bytes() as f64 / 1e6);
    let (mut split, mut whole) = (0u64, 0u64);
    for g in plan.groups() {
        let flops = |o| analyze_group(model, g.start, g.end, o).map(|a| a.total_flops());
        split += flops(g.option).map_err(|e| e.to_string())?;
        whole += flops(PartitionOption::Single).map_err(|e| e.to_string())?;
    }
    v.insert("exec.halo_ratio", ratio(split as f64, whole as f64));
    let mut cache = PanelCache::new();
    let layers = model.layers();
    let mut segs = (0..layers.len())
        .map(|i| {
            CompiledSegment::compile(
                model.graph(),
                weights,
                &layers[i..i + 1],
                &PieceSpec::Full,
                &mut cache,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("compile layer: {e}"))?;

    // Per request: the facade call and the plan execution under it, and
    // the layer chain run once with every span recorded and once with none.
    let (mut infer_ms, mut inner_ms) = (Vec::new(), Vec::new());
    let (mut chain_traced, mut chain_untraced) = (Vec::new(), Vec::new());
    let mut inner_allocs = Vec::new();
    count_allocations();
    let mut req = 0u64;
    let start = Instant::now();
    while req < MIN_TRACED_REQUESTS || start.elapsed().as_secs_f64() < seconds {
        req += 1;
        tracer.span("query", "query", req, |t| -> Result<(), String> {
            let t0 = Instant::now();
            let out = t
                .span("facade.infer", "Deployment::infer", req, |_| {
                    d.infer(weights, input)
                })
                .map_err(|e| format!("query: {e}"))?;
            infer_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            check_same("query", out.data(), reference)?;

            let a0 = allocs();
            let t0 = Instant::now();
            let out = t
                .span("exec.run", "CompiledPlanExec::run", req, |_| {
                    exec.run(weights, input)
                })
                .map_err(|e| format!("plan execution: {e}"))?;
            inner_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            inner_allocs.push((allocs() - a0) as f64);
            check_same("plan execution", out.data(), reference)?;

            // The chain has the most spans per unit of work. Its traced
            // minus untraced time, paired per request in alternating order,
            // is the tracing overhead.
            for traced in [req & 1 == 0, req & 1 == 1] {
                t.set_recording(traced);
                let t0 = Instant::now();
                let out = run_layers(model, &mut segs, weights, input, t, req);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                t.set_recording(true);
                check_same("layer by layer", &out?, reference)?;
                if traced {
                    &mut chain_traced
                } else {
                    &mut chain_untraced
                }
                .push(ms);
            }
            Ok(())
        })?;
    }

    let kernel = |cat: &str| median(&tracer.per_request_ms(&[cat]));
    let (conv_ms, dense_ms, other_ms) = (
        kernel("tensor.conv"),
        kernel("tensor.dense"),
        kernel("tensor.other"),
    );
    let sum_layers = |cat: &str, f: fn(&MergedLayer) -> u64| -> f64 {
        model
            .layers()
            .iter()
            .filter(|l| kernel_cat(l) == cat)
            .map(f)
            .sum::<u64>() as f64
    };
    v.insert("tensor.conv.ms", conv_ms);
    v.insert(
        "tensor.conv.gflops",
        ratio(sum_layers("tensor.conv", |l| l.flops), conv_ms * 1e6),
    );
    v.insert("tensor.dense.ms", dense_ms);
    v.insert(
        "tensor.dense.gbps",
        ratio(
            sum_layers("tensor.dense", |l| l.weight_bytes),
            dense_ms * 1e6,
        ),
    );
    v.insert("tensor.other.ms", other_ms);
    v.insert("tensor.flops", model.total_flops() as f64);
    v.insert(
        "tensor.bytes",
        model
            .layers()
            .iter()
            .map(|l| l.weight_bytes + l.in_bytes() + l.out_bytes())
            .sum::<u64>() as f64,
    );
    // Self times are medians of per-request differences, so both sides of
    // each difference share the host's load at that moment.
    let kernels_ms = tracer.per_request_ms(&["tensor.conv", "tensor.dense", "tensor.other"]);
    let diff =
        |a: &[f64], b: &[f64]| median(&a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>());
    v.insert(
        "exec.compile_ms",
        median(&tracer.durations_ms("exec.compile")),
    );
    v.insert("exec.run_ms", median(&inner_ms));
    v.insert("exec.self_ms", diff(&inner_ms, &kernels_ms));
    v.insert("exec.allocs_per_query", median(&inner_allocs));
    v.insert(
        "facade.deploy_ms",
        median(&tracer.durations_ms("facade.deploy")),
    );
    v.insert(
        "facade.first_query_ms",
        median(&tracer.durations_ms("facade.first_query")),
    );
    v.insert("facade.infer_self_ms", diff(&infer_ms, &inner_ms));
    let over = diff(&chain_traced, &chain_untraced);
    println!(
        "trace overhead: {} layer chains traced and untraced, median untraced {:.3} ms",
        chain_traced.len(),
        median(&chain_untraced)
    );
    v.insert("trace.overhead_ms", over);
    v.insert("trace.overhead_pct", 100.0 * over / median(&chain_untraced));
    Ok(req)
}

/// Request ids of the partitioned half start here, apart from the
/// compiled half's.
const PARTITION_REQ: u64 = 1 << 32;

/// The partitioned half of the traced run: ResNet-34 on its DP plan (Hx2
/// over the first 9 merged layers) through
/// `execute_plan_tensors_with_threads`, the uncompiled executor that
/// `Deployment::infer` falls back to for branching models, against the
/// unpartitioned `Executor::forward`. Both must agree bit for bit on every
/// request. Returns the number of requests.
fn trace_partition(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Result<u64, String> {
    let model = zoo::resnet34();
    let weights =
        init_weights(model.graph(), seed_for(seed, 5)).map_err(|e| format!("weights: {e}"))?;
    let input = query(&model, seed_for(seed, 6));
    let d = deploy(&model)?;
    println!(
        "partitioned executor on {}",
        d.describe().map_err(|e| e.to_string())?
    );
    let plan = d.plan();
    let threads = gillis_pool::gillis_threads();
    let exec = Executor::new(model.graph(), &weights);
    let mut reference: Option<Tensor> = None;
    let mut run_allocs = Vec::new();
    let mut n = 0u64;
    let start = Instant::now();
    while n < MIN_TRACED_REQUESTS || start.elapsed().as_secs_f64() < seconds {
        let req = PARTITION_REQ + n;
        n += 1;
        tracer.span("query", "resnet34 query", req, |t| -> Result<(), String> {
            let forward = t
                .span("partition.forward", "Executor::forward", req, |_| {
                    exec.forward(&model, &input)
                })
                .map_err(|e| format!("forward: {e}"))?;
            let want = match &reference {
                Some(r) => {
                    check_same("forward", forward.data(), r)?;
                    r
                }
                None => reference.insert(forward),
            };
            let a0 = allocs();
            let out = t
                .span(
                    "partition.run",
                    "execute_plan_tensors_with_threads",
                    req,
                    |_| execute_plan_tensors_with_threads(&model, plan, &weights, &input, threads),
                )
                .map_err(|e| format!("partitioned execution: {e}"))?;
            run_allocs.push((allocs() - a0) as f64);
            check_same("partitioned execution", out.data(), want)
        })?;
    }
    let run_ms = median(&tracer.durations_ms("partition.run"));
    let forward_ms = median(&tracer.durations_ms("partition.forward"));
    v.insert("partition.run_ms", run_ms);
    v.insert("partition.forward_ms", forward_ms);
    v.insert("partition.overhead_ratio", ratio(run_ms, forward_ms));
    v.insert("partition.allocs_per_query", median(&run_allocs));
    Ok(n)
}
