//! The Gillis benchmark: one command per workload run, printing every
//! metric by name and unit, with a JSON summary as the last line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload infer-vgg11 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
//! variant, reports the per-layer metrics and writes its spans as Chrome
//! trace-event JSON under `benchmark/out/`. See `benchmark/README.md`.

mod infer;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use infer::CountingAlloc;
use serve::Driver;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The workloads, by the names `--workload` takes.
const WORKLOADS: [&str; 3] = ["infer-vgg11", "serve-forkjoin", "serve-pipelined"];

/// End-to-end metrics (name, unit), reported by every workload with
/// `--trace 0`. `model.*` metrics are DES virtual time; the rest are
/// measured wall clock on this host.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("model.p50_ms", "ms"),
    ("model.p99_ms", "ms"),
    ("model.goodput_qps", "1/s"),
    ("model.max_qps_at_slo", "1/s"),
    ("model.usd_per_kq", "USD"),
];

/// Per-layer metrics (name, unit), reported by every workload with
/// `--trace 1`; a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("tensor.conv.ms", "ms"),
    ("tensor.conv.gflops", "GFLOP/s"),
    ("tensor.dense.ms", "ms"),
    ("tensor.dense.gbps", "GB/s"),
    ("tensor.other.ms", "ms"),
    ("tensor.flops", "count"),
    ("tensor.bytes", "B"),
    ("exec.compile_ms", "ms"),
    ("exec.run_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("exec.halo_ratio", "ratio"),
    ("exec.allocs_per_query", "count"),
    ("exec.panel_mb", "MB"),
    ("partition.run_ms", "ms"),
    ("partition.forward_ms", "ms"),
    ("partition.overhead_ratio", "ratio"),
    ("partition.allocs_per_query", "count"),
    ("facade.deploy_ms", "ms"),
    ("facade.first_query_ms", "ms"),
    ("facade.infer_self_ms", "ms"),
    ("planner.profile_ms", "ms"),
    ("planner.dp_ms", "ms"),
    ("planner.rl_ms", "ms"),
    ("planner.rl_episodes", "count"),
    ("planner.cache_hit_ratio", "ratio"),
    ("perf.pred_err", "ratio"),
    ("des.us_per_arrival", "us"),
    ("des.arrivals", "count"),
    ("des.ok", "count"),
    ("des.degraded", "count"),
    ("des.shed", "count"),
    ("des.deadline", "count"),
    ("des.failed", "count"),
    ("des.worker_invocations", "count"),
    ("des.retry_amplification", "ratio"),
    ("des.billed_ms", "ms"),
    ("des.cold_starts", "count"),
    ("des.hedge_win_ratio", "ratio"),
    ("des.recovery.checkpoint_hit_ratio", "ratio"),
    ("des.recovery.stages_saved", "count"),
    ("des.pipeline.stalls", "count"),
    ("des.pipeline.peak_queue", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.span_cost_us", "us"),
];

/// Largest thread-pool width the benchmark uses, so runs on wider hosts
/// stay comparable.
const MAX_POOL_WIDTH: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A 64-bit seed for stream `stream` of the run seed (splitmix64), so
/// weights, inputs, faults and arrivals draw independent streams.
pub fn seed_for(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Repeats `setup` until at least `min_total_s` seconds and `min_reps`
/// repetitions have passed (at most `max_reps`); returns each repetition's
/// seconds and the last result.
pub fn repeat_setup<T>(
    min_reps: usize,
    max_reps: usize,
    min_total_s: f64,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let start = Instant::now();
        let out = setup(times.len())?;
        let s = start.elapsed().as_secs_f64();
        times.push(s);
        total += s;
        if times.len() >= max_reps || (times.len() >= min_reps && total >= min_total_s) {
            return Ok((times, out));
        }
    }
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let mut tracer = trace::Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "infer-vgg11" => infer::run(args, &mut tracer)?,
        "serve-forkjoin" => serve::run(Driver::ForkJoin, args, &mut tracer)?,
        _ => serve::run(Driver::Pipelined, args, &mut tracer)?,
    };
    if args.trace {
        let m = &mut out.metrics;
        m.insert("trace.span_cost_us", trace::span_cost_us(100_000));
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans: {} written to {path}", tracer.len());
        for (cat, t) in tracer.totals() {
            println!(
                "  span {cat:<20} count {:>6}  total {:>12.3} ms  self {:>12.3} ms",
                t.count, t.total_ms, t.self_ms
            );
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let width = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_POOL_WIDTH);
    // Set before anything starts the pool, which reads it once.
    std::env::set_var("GILLIS_THREADS", width.to_string());
    println!(
        "workload {} seed {} seconds {} trace {} pool width {width}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let rendered = run(&args).and_then(|out| {
        let (lines, json) = report::render(list, &out.metrics, !args.trace)?;
        Ok((out, lines, json))
    });
    match rendered {
        Ok((out, lines, json)) => {
            print!("{lines}");
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
                out.attempted.max(1),
                out.failed
            );
            ExitCode::SUCCESS
        }
        // Every check failure and error lands here: failure, not numbers.
        Err(e) => {
            println!("check failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}
