//! CI smoke: the SIMD GEMM path must beat the scalar blocked kernel on the
//! VGG-16 conv3_2 shape. It names the micro-kernel it measured
//! (`avx512 8x32` or `avx2 4x8`) next to the ratio.
//!
//! `GILLIS_NO_SIMD` is latched per process on first kernel dispatch, so the
//! scalar reference cannot be timed in the same process that timed the SIMD
//! path: this binary re-executes itself with `GILLIS_NO_SIMD=1` to measure
//! the scalar number, then compares. Requires the `simd` build feature and
//! AVX2+FMA at runtime; otherwise it prints a skip notice and exits 0 (the
//! scalar-only CI leg still builds and runs it).

use gillis_bench::report::measure;
use gillis_tensor::ops::{conv2d, Conv2dParams};
use gillis_tensor::{Shape, Tensor};

/// Median ns/iter of conv3_2 (256→256 channels, 3x3, 56x56) in this process.
fn conv3_2_ns() -> f64 {
    let input = Tensor::from_fn(Shape::new(vec![256, 56, 56]), |i| (i % 7) as f32 * 0.1);
    let weight = Tensor::from_fn(Shape::new(vec![256, 256, 3, 3]), |i| (i % 5) as f32 * 0.01);
    let bias = Tensor::zeros(Shape::new(vec![256]));
    let params = Conv2dParams::square(3, 1, 1);
    let (ns, _) = measure(3, || conv2d(&input, &weight, Some(&bias), &params).unwrap());
    ns
}

fn main() {
    if std::env::var("GILLIS_SIMD_SMOKE_ROLE").as_deref() == Ok("scalar") {
        assert!(
            !gillis_tensor::simd::simd_active(),
            "scalar leg must run with SIMD disabled"
        );
        // Parent parses this line.
        println!("scalar_ns={}", conv3_2_ns());
        return;
    }

    if !gillis_tensor::simd::simd_active() {
        println!(
            "simd_smoke: SIMD inactive (feature off, no AVX2+FMA, or GILLIS_NO_SIMD) — skipping"
        );
        return;
    }

    let simd_ns = conv3_2_ns();
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .env("GILLIS_SIMD_SMOKE_ROLE", "scalar")
        .env("GILLIS_NO_SIMD", "1")
        .output()
        .expect("scalar leg runs");
    assert!(out.status.success(), "scalar leg failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let scalar_ns: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("scalar_ns="))
        .expect("scalar leg prints its timing")
        .trim()
        .parse()
        .expect("numeric scalar timing");

    let speedup = scalar_ns / simd_ns;
    println!(
        "conv3_2: scalar {:.1} ms, simd {:.1} ms — {speedup:.2}x ({} kernel)",
        scalar_ns / 1e6,
        simd_ns / 1e6,
        gillis_tensor::simd::gemm_kernel()
    );
    // The acceptance bar is 2x on a quiet machine; CI runners are noisy, so
    // gate on a margin that still catches a broken dispatch (which would be
    // ~1.0x).
    assert!(
        speedup >= 1.5,
        "SIMD path must clearly beat the scalar blocked kernel, got {speedup:.2}x"
    );
}
