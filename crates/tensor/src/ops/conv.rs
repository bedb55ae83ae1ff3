//! 2-D convolution over `CHW` tensors.

use serde::{Deserialize, Serialize};

use super::Padding;
use crate::error::TensorError;
use crate::gemm;
use crate::scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dParams {
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Vertical and horizontal stride.
    pub stride: (usize, usize),
    /// Per-side zero padding.
    pub padding: Padding,
}

impl Conv2dParams {
    /// Square kernel with equal stride and symmetric padding — the common
    /// case in the paper's CNN zoo.
    pub fn square(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dParams {
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: Padding::symmetric(padding),
        }
    }
}

/// Output spatial size of a convolution/pooling window sweep.
///
/// Returns `None` if the padded input is smaller than the kernel.
pub fn conv2d_output_hw(in_hw: (usize, usize), params: &Conv2dParams) -> Option<(usize, usize)> {
    let (kh, kw) = params.kernel;
    let (sh, sw) = params.stride;
    let h = in_hw.0 + params.padding.top + params.padding.bottom;
    let w = in_hw.1 + params.padding.left + params.padding.right;
    if h < kh || w < kw || sh == 0 || sw == 0 {
        return None;
    }
    Some(((h - kh) / sh + 1, (w - kw) / sw + 1))
}

/// 2-D convolution: `input` is `CHW`, `weight` is `[out_c, in_c, kh, kw]`,
/// `bias` is `[out_c]` (optional).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the shapes are inconsistent or
/// the padded input is smaller than the kernel, and
/// [`TensorError::ShapeMismatch`] if `bias` does not match `out_c`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let in_dims = input.shape().dims();
    let w_dims = weight.shape().dims();
    if in_dims.len() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d input must be CHW, got rank {}",
            in_dims.len()
        )));
    }
    if w_dims.len() != 4 {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d weight must be [out_c, in_c, kh, kw], got rank {}",
            w_dims.len()
        )));
    }
    let (in_c, in_h, in_w) = (in_dims[0], in_dims[1], in_dims[2]);
    let (out_c, w_in_c, kh, kw) = (w_dims[0], w_dims[1], w_dims[2], w_dims[3]);
    if in_c != w_in_c {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d input channels {in_c} != weight input channels {w_in_c}"
        )));
    }
    if (kh, kw) != params.kernel {
        return Err(TensorError::InvalidArgument(format!(
            "weight kernel ({kh}, {kw}) != declared kernel {:?}",
            params.kernel
        )));
    }
    if let Some(b) = bias {
        if b.shape().dims() != [out_c] {
            return Err(TensorError::ShapeMismatch {
                expected: Shape::new(vec![out_c]),
                actual: b.shape().clone(),
            });
        }
    }
    let (out_h, out_w) = conv2d_output_hw((in_h, in_w), params).ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "padded input ({in_h}, {in_w}) smaller than kernel {:?}",
            params.kernel
        ))
    })?;

    // Lower to im2col + blocked GEMM: the weight tensor's native
    // [out_c, in_c*kh*kw] layout is already the A matrix, the column matrix
    // is B, and the bias pre-initializes C so the accumulation order matches
    // the reference kernel exactly (see crate::gemm's determinism contract).
    let input_data = input.data();
    let weight_data = weight.data();
    let n_dim = out_h * out_w;
    let k_dim = in_c * kh * kw;
    let mut out = vec![0.0f32; out_c * n_dim];
    if let Some(b) = bias {
        for (row, &bv) in out.chunks_mut(n_dim).zip(b.data().iter()) {
            row.fill(bv);
        }
    }
    let pad = params.padding;
    if (kh, kw) == (1, 1)
        && params.stride == (1, 1)
        && (pad.top, pad.bottom, pad.left, pad.right) == (0, 0, 0, 0)
    {
        // Pointwise conv: the input already is the im2col matrix.
        gemm::gemm(out_c, n_dim, k_dim, weight_data, input_data, &mut out);
    } else {
        // The column matrix is per-thread scratch: reused across layers and
        // queries, so steady-state conv allocates nothing but its output.
        let mut col = scratch::take(scratch::Site::Im2col);
        gemm::im2col(
            input_data,
            in_c,
            in_h,
            in_w,
            params.kernel,
            params.stride,
            pad.top,
            pad.left,
            (out_h, out_w),
            &mut col,
        );
        gemm::gemm(out_c, n_dim, k_dim, weight_data, &col, &mut out);
        scratch::put(scratch::Site::Im2col, col);
    }
    Tensor::from_vec(Shape::new(vec![out_c, out_h, out_w]), out)
}

/// Allocation-free convolution over raw buffers with a pre-packed filter
/// bank — the compiled-partition hot path. `input` is `CHW` data with the
/// given dimensions, `packed` is the `[out_c, in_c·kh·kw]` weight matrix
/// packed once via [`gemm::PackedA::pack`], `bias` has `out_c` entries, and
/// `out` must be exactly `out_c · out_h · out_w` long for the `out_hw`
/// implied by `params` (callers precompute it via [`conv2d_output_hw`]).
///
/// Bit-identical to [`conv2d`] on the same operands: the bias pre-initializes
/// the output and the packed GEMM accumulates in the same ascending-`k`
/// order. The im2col matrix lives in per-thread scratch, so a warmed thread
/// performs no heap allocation here.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_packed_into(
    input: &[f32],
    in_c: usize,
    in_h: usize,
    in_w: usize,
    packed: &gemm::PackedA,
    bias: &[f32],
    params: &Conv2dParams,
    out_hw: (usize, usize),
    out: &mut [f32],
) {
    let (kh, kw) = params.kernel;
    let (out_h, out_w) = out_hw;
    let out_c = packed.m();
    let n_dim = out_h * out_w;
    let k_dim = in_c * kh * kw;
    assert_eq!(input.len(), in_c * in_h * in_w, "input must be CHW");
    assert_eq!(
        packed.k(),
        k_dim,
        "packed weights must be [out_c, in_c*kh*kw]"
    );
    assert_eq!(bias.len(), out_c, "bias must be [out_c]");
    assert_eq!(out.len(), out_c * n_dim, "out must be out_c*out_h*out_w");
    for (row, &bv) in out.chunks_mut(n_dim).zip(bias.iter()) {
        row.fill(bv);
    }
    let pad = params.padding;
    if (kh, kw) == (1, 1)
        && params.stride == (1, 1)
        && (pad.top, pad.bottom, pad.left, pad.right) == (0, 0, 0, 0)
    {
        gemm::gemm_packed(packed, n_dim, input, out);
    } else {
        let mut col = scratch::take(scratch::Site::Im2col);
        gemm::im2col(
            input,
            in_c,
            in_h,
            in_w,
            params.kernel,
            params.stride,
            pad.top,
            pad.left,
            out_hw,
            &mut col,
        );
        gemm::gemm_packed(packed, n_dim, &col, out);
        scratch::put(scratch::Site::Im2col, col);
    }
}

/// Batched [`conv2d_packed_into`]: convolves `batch` CHW inputs (laid out
/// back to back in `inputs`) against one pre-packed filter bank with a
/// *single* widened GEMM. The im2col lowerings of all items are assembled
/// side by side into one `k × (batch·out_hw)` B matrix
/// ([`gemm::im2col_strided`]), so each `KC` block of the packed weight
/// panels stays cache-resident across every item's column tiles instead of
/// being reloaded once per query — the compute amortization the batching
/// perf model prices.
///
/// Bit-identical to `batch` sequential [`conv2d_packed_into`] calls on the
/// same operands, at any thread count: every output element accumulates in
/// the same ascending-`k` order with position-independent rounding (the
/// SIMD kernels use fused multiply-adds in tiles *and* tails, so a column's
/// rounding does not depend on where it lands in the widened matrix).
///
/// `batch == 1` delegates to [`conv2d_packed_into`] directly — no widened
/// scratch is touched, so the single-query warm path is exactly the pre-batch
/// code path.
///
/// All working memory comes from per-thread scratch sites
/// ([`scratch::Site::BatchCol`] / [`scratch::Site::BatchOut`]); once those
/// have grown to the largest batch served, later batched queries allocate
/// nothing.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_packed_batched_into(
    inputs: &[f32],
    batch: usize,
    in_c: usize,
    in_h: usize,
    in_w: usize,
    packed: &gemm::PackedA,
    bias: &[f32],
    params: &Conv2dParams,
    out_hw: (usize, usize),
    outs: &mut [f32],
) {
    let (kh, kw) = params.kernel;
    let (out_h, out_w) = out_hw;
    let out_c = packed.m();
    let n_dim = out_h * out_w;
    let k_dim = in_c * kh * kw;
    let in_len = in_c * in_h * in_w;
    let out_len = out_c * n_dim;
    assert_eq!(inputs.len(), batch * in_len, "inputs must be batch CHW");
    assert_eq!(outs.len(), batch * out_len, "outs must be batch outputs");
    assert_eq!(bias.len(), out_c, "bias must be [out_c]");
    assert_eq!(packed.k(), k_dim, "packed weights must match the kernel");
    if batch == 0 {
        return;
    }
    if batch == 1 {
        conv2d_packed_into(inputs, in_c, in_h, in_w, packed, bias, params, out_hw, outs);
        return;
    }
    let nt = batch * n_dim;
    // Widened B: every item's im2col lowering, side by side.
    let mut col = scratch::take(scratch::Site::BatchCol);
    col.clear();
    col.resize(k_dim * nt, 0.0);
    let pad = params.padding;
    let pointwise = (kh, kw) == (1, 1)
        && params.stride == (1, 1)
        && (pad.top, pad.bottom, pad.left, pad.right) == (0, 0, 0, 0);
    for (i, input) in inputs.chunks_exact(in_len).enumerate() {
        if pointwise {
            // The input already is the column matrix (k_dim == in_c rows of
            // n_dim values); copy its rows into the widened layout.
            for (r, src) in input.chunks_exact(n_dim).enumerate() {
                col[r * nt + i * n_dim..r * nt + (i + 1) * n_dim].copy_from_slice(src);
            }
        } else {
            gemm::im2col_strided(
                input,
                in_c,
                in_h,
                in_w,
                params.kernel,
                params.stride,
                pad.top,
                pad.left,
                out_hw,
                &mut col,
                nt,
                i * n_dim,
            );
        }
    }
    // Widened C, bias-preinitialized exactly like the per-query path.
    let mut wide = scratch::take(scratch::Site::BatchOut);
    wide.clear();
    wide.resize(out_c * nt, 0.0);
    for (row, &bv) in wide.chunks_mut(nt).zip(bias.iter()) {
        row.fill(bv);
    }
    gemm::gemm_packed(packed, nt, &col, &mut wide);
    // Scatter each item's columns back to its own CHW output.
    for (i, out) in outs.chunks_exact_mut(out_len).enumerate() {
        for (r, dst) in out.chunks_exact_mut(n_dim).enumerate() {
            dst.copy_from_slice(&wide[r * nt + i * n_dim..r * nt + (i + 1) * n_dim]);
        }
    }
    scratch::put(scratch::Site::BatchCol, col);
    scratch::put(scratch::Site::BatchOut, wide);
}

/// Quantized convolution over raw buffers — the hot path of partitions
/// compiled with int8 weights. Mirrors [`conv2d_packed_into`] but the
/// filter bank is a [`crate::quant::QuantizedMatrix`] (per-output-channel
/// scales, quantized once at compile time); the im2col activations are
/// quantized per-tensor on the fly inside [`crate::quant::qgemm`] and the
/// int8×int8 products accumulate exactly in `i32`. Output error is bounded
/// by the quantization steps (see the `quant` module docs); determinism is
/// exact for any thread count.
///
/// All working memory (im2col column matrix, int8 activation transpose)
/// comes from per-thread scratch, so a warmed thread allocates nothing.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_quantized_into(
    input: &[f32],
    in_c: usize,
    in_h: usize,
    in_w: usize,
    qweights: &crate::quant::QuantizedMatrix,
    bias: &[f32],
    params: &Conv2dParams,
    out_hw: (usize, usize),
    out: &mut [f32],
) {
    let (kh, kw) = params.kernel;
    let (out_h, out_w) = out_hw;
    let out_c = qweights.rows();
    let n_dim = out_h * out_w;
    let k_dim = in_c * kh * kw;
    assert_eq!(input.len(), in_c * in_h * in_w, "input must be CHW");
    assert_eq!(
        qweights.cols(),
        k_dim,
        "quantized weights must be [out_c, in_c*kh*kw]"
    );
    assert_eq!(bias.len(), out_c, "bias must be [out_c]");
    assert_eq!(out.len(), out_c * n_dim, "out must be out_c*out_h*out_w");
    for (row, &bv) in out.chunks_mut(n_dim).zip(bias.iter()) {
        row.fill(bv);
    }
    let pad = params.padding;
    if (kh, kw) == (1, 1)
        && params.stride == (1, 1)
        && (pad.top, pad.bottom, pad.left, pad.right) == (0, 0, 0, 0)
    {
        crate::quant::qgemm(qweights, n_dim, input, out);
    } else {
        let mut col = scratch::take(scratch::Site::Im2col);
        gemm::im2col(
            input,
            in_c,
            in_h,
            in_w,
            params.kernel,
            params.stride,
            pad.top,
            pad.left,
            out_hw,
            &mut col,
        );
        crate::quant::qgemm(qweights, n_dim, &col, out);
        scratch::put(scratch::Site::Im2col, col);
    }
}

/// Reference 6-loop convolution the GEMM path is validated against: same
/// validation, bias-first accumulation in ascending (ic, ky, kx) tap order,
/// skipping out-of-bounds taps.
#[cfg(test)]
pub(crate) fn conv2d_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let in_dims = input.shape().dims();
    let w_dims = weight.shape().dims();
    let (in_c, in_h, in_w) = (in_dims[0], in_dims[1], in_dims[2]);
    let (out_c, kh, kw) = (w_dims[0], w_dims[2], w_dims[3]);
    let (out_h, out_w) = conv2d_output_hw((in_h, in_w), params).unwrap();
    let (sh, sw) = params.stride;
    let pt = params.padding.top as isize;
    let pl = params.padding.left as isize;
    let in_plane = in_h * in_w;
    let k_plane = kh * kw;
    let w_per_out = in_c * k_plane;
    let input_data = input.data();
    let weight_data = weight.data();

    let mut out = vec![0.0f32; out_c * out_h * out_w];
    for oc in 0..out_c {
        let w_base = oc * w_per_out;
        let b = bias.map(|b| b.data()[oc]).unwrap_or(0.0);
        for oy in 0..out_h {
            let iy0 = (oy * sh) as isize - pt;
            for ox in 0..out_w {
                let ix0 = (ox * sw) as isize - pl;
                let mut acc = b;
                for ic in 0..in_c {
                    let in_base = ic * in_plane;
                    let wk_base = w_base + ic * k_plane;
                    for ky in 0..kh {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        let row = in_base + iy as usize * in_w;
                        let wrow = wk_base + ky * kw;
                        for kx in 0..kw {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            acc += input_data[row + ix as usize] * weight_data[wrow + kx];
                        }
                    }
                }
                out[oc * out_h * out_w + oy * out_w + ox] = acc;
            }
        }
    }
    Tensor::from_vec(Shape::new(vec![out_c, out_h, out_w]), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::new(shape), data).unwrap()
    }

    fn pseudo(i: usize, seed: u32) -> f32 {
        ((i as u32 ^ seed).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn gemm_path_matches_naive_reference(
            (in_c, out_c) in (1usize..5, 1usize..5),
            (in_h, in_w) in (3usize..10, 3usize..10),
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in 0u32..1000,
        ) {
            let params = Conv2dParams::square(kernel, stride, pad);
            prop_assume!(conv2d_output_hw((in_h, in_w), &params).is_some());
            let input =
                Tensor::from_fn(Shape::new(vec![in_c, in_h, in_w]), |i| pseudo(i, seed));
            let weight = Tensor::from_fn(Shape::new(vec![out_c, in_c, kernel, kernel]), |i| {
                pseudo(i, seed ^ 0xbeef)
            });
            let bias = Tensor::from_fn(Shape::new(vec![out_c]), |i| pseudo(i, seed ^ 0x77));
            let fast = conv2d(&input, &weight, Some(&bias), &params).unwrap();
            let naive = conv2d_naive(&input, &weight, Some(&bias), &params).unwrap();
            // The im2col+GEMM path preserves the reference accumulation
            // order, so the match is exact (up to the sign of zero) in
            // scalar mode. With the SIMD kernels active, FMA rounding
            // diverges within the documented bound (DESIGN.md §12).
            let tol = if crate::simd::simd_active() { 1e-3 } else { 0.0 };
            prop_assert!(fast.max_abs_diff(&naive).unwrap() <= tol);
        }

        #[test]
        fn packed_into_path_is_bit_identical(
            (in_c, out_c) in (1usize..5, 1usize..7),
            (in_h, in_w) in (3usize..10, 3usize..10),
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in 0u32..1000,
        ) {
            let params = Conv2dParams::square(kernel, stride, pad);
            prop_assume!(conv2d_output_hw((in_h, in_w), &params).is_some());
            let input =
                Tensor::from_fn(Shape::new(vec![in_c, in_h, in_w]), |i| pseudo(i, seed));
            let weight = Tensor::from_fn(Shape::new(vec![out_c, in_c, kernel, kernel]), |i| {
                pseudo(i, seed ^ 0xbeef)
            });
            let bias = Tensor::from_fn(Shape::new(vec![out_c]), |i| pseudo(i, seed ^ 0x77));
            let want = conv2d(&input, &weight, Some(&bias), &params).unwrap();
            let out_hw = conv2d_output_hw((in_h, in_w), &params).unwrap();
            let packed =
                gemm::PackedA::pack(out_c, in_c * kernel * kernel, weight.data());
            let mut out = vec![0.0f32; out_c * out_hw.0 * out_hw.1];
            conv2d_packed_into(
                input.data(), in_c, in_h, in_w, &packed, bias.data(), &params, out_hw, &mut out,
            );
            if crate::simd::simd_active() {
                // Packed (micro-tile FMA) and unpacked (axpy FMA) kernels
                // sweep differently, so SIMD mode agrees to the documented
                // rounding bound rather than bitwise.
                prop_assert!(
                    want.data().iter().zip(out.iter()).all(|(w, g)| (w - g).abs() <= 1e-3)
                );
            } else {
                prop_assert_eq!(
                    want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }

        /// Batched conv over a widened B matrix is bit-identical to running
        /// the packed per-query kernel once per item — in scalar and SIMD
        /// mode alike (see the widened-B GEMM proptest in `gemm` for the
        /// kernel-level argument). Covers the pointwise fast path whenever
        /// kernel = stride = 1 and pad = 0 is drawn.
        #[test]
        fn batched_packed_path_is_bit_identical_to_sequential(
            (in_c, out_c) in (1usize..5, 1usize..7),
            (in_h, in_w) in (3usize..9, 3usize..9),
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            batch_sel in 0usize..3,
            seed in 0u32..1000,
        ) {
            let batch = [2usize, 3, 8][batch_sel];
            let params = Conv2dParams::square(kernel, stride, pad);
            prop_assume!(conv2d_output_hw((in_h, in_w), &params).is_some());
            let out_hw = conv2d_output_hw((in_h, in_w), &params).unwrap();
            let in_len = in_c * in_h * in_w;
            let out_len = out_c * out_hw.0 * out_hw.1;
            let inputs: Vec<f32> =
                (0..batch * in_len).map(|i| pseudo(i, seed ^ 0x51)).collect();
            let weight: Vec<f32> = (0..out_c * in_c * kernel * kernel)
                .map(|i| pseudo(i, seed ^ 0xbeef))
                .collect();
            let bias: Vec<f32> = (0..out_c).map(|i| pseudo(i, seed ^ 0x77)).collect();
            let packed = gemm::PackedA::pack(out_c, in_c * kernel * kernel, &weight);
            let mut seq = vec![0.0f32; batch * out_len];
            for (x, out) in inputs.chunks(in_len).zip(seq.chunks_mut(out_len)) {
                conv2d_packed_into(x, in_c, in_h, in_w, &packed, &bias, &params, out_hw, out);
            }
            let mut batched = vec![0.0f32; batch * out_len];
            conv2d_packed_batched_into(
                &inputs, batch, in_c, in_h, in_w, &packed, &bias, &params, out_hw, &mut batched,
            );
            prop_assert_eq!(
                seq.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        /// The int8 path tracks the f32 convolution within the quantization
        /// error bound: `k` taps each losing at most half a step from the
        /// weight and half from the activation (see `quant` module docs).
        #[test]
        fn quantized_path_tracks_f32_within_bound(
            (in_c, out_c) in (1usize..5, 1usize..7),
            (in_h, in_w) in (3usize..10, 3usize..10),
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in 0u32..1000,
        ) {
            let params = Conv2dParams::square(kernel, stride, pad);
            prop_assume!(conv2d_output_hw((in_h, in_w), &params).is_some());
            let input =
                Tensor::from_fn(Shape::new(vec![in_c, in_h, in_w]), |i| pseudo(i, seed));
            let weight = Tensor::from_fn(Shape::new(vec![out_c, in_c, kernel, kernel]), |i| {
                pseudo(i, seed ^ 0xbeef)
            });
            let bias = Tensor::from_fn(Shape::new(vec![out_c]), |i| pseudo(i, seed ^ 0x77));
            let want = conv2d(&input, &weight, Some(&bias), &params).unwrap();
            let out_hw = conv2d_output_hw((in_h, in_w), &params).unwrap();
            let k_dim = in_c * kernel * kernel;
            let q = crate::quant::QuantizedMatrix::quantize(out_c, k_dim, weight.data());
            let mut out = vec![0.0f32; out_c * out_hw.0 * out_hw.1];
            conv2d_quantized_into(
                input.data(), in_c, in_h, in_w, &q, bias.data(), &params, out_hw, &mut out,
            );
            // |w|, |x| <= 1 here, so each tap errs by at most ~1/127 and
            // the sum by k/100 with margin.
            let tol = k_dim as f32 / 100.0 + 1e-4;
            for (got, want) in out.iter().zip(want.data()) {
                prop_assert!((got - want).abs() <= tol, "{} vs {} (tol {})", got, want, tol);
            }
        }
    }

    #[test]
    fn output_size_formula() {
        let p = Conv2dParams::square(3, 1, 1);
        assert_eq!(conv2d_output_hw((8, 8), &p), Some((8, 8)));
        let p = Conv2dParams::square(3, 2, 1);
        assert_eq!(conv2d_output_hw((8, 8), &p), Some((4, 4)));
        let p = Conv2dParams::square(7, 2, 3);
        assert_eq!(conv2d_output_hw((224, 224), &p), Some((112, 112)));
        let p = Conv2dParams::square(5, 1, 0);
        assert_eq!(conv2d_output_hw((3, 3), &p), None);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 is the identity for a single channel.
        let input = t(vec![1, 3, 3], (1..=9).map(|x| x as f32).collect());
        let weight = t(vec![1, 1, 1, 1], vec![1.0]);
        let out = conv2d(&input, &weight, None, &Conv2dParams::square(1, 1, 0)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 kernel over an all-ones 3x3 input, no padding:
        // single output = 9.
        let input = Tensor::full(Shape::new(vec![1, 3, 3]), 1.0);
        let weight = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let out = conv2d(&input, &weight, None, &Conv2dParams::square(3, 1, 0)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1]);
        assert_eq!(out.data(), &[9.0]);
    }

    #[test]
    fn padding_contributes_zeros() {
        let input = Tensor::full(Shape::new(vec![1, 1, 1]), 2.0);
        let weight = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let out = conv2d(&input, &weight, None, &Conv2dParams::square(3, 1, 1)).unwrap();
        // Only the centre tap sees the input.
        assert_eq!(out.shape().dims(), &[1, 1, 1]);
        assert_eq!(out.data(), &[2.0]);
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let input = Tensor::zeros(Shape::new(vec![1, 2, 2]));
        let weight = Tensor::zeros(Shape::new(vec![2, 1, 1, 1]));
        let bias = t(vec![2], vec![0.5, -1.5]);
        let out = conv2d(&input, &weight, Some(&bias), &Conv2dParams::square(1, 1, 0)).unwrap();
        assert_eq!(out.shape().dims(), &[2, 2, 2]);
        assert_eq!(&out.data()[..4], &[0.5; 4]);
        assert_eq!(&out.data()[4..], &[-1.5; 4]);
    }

    #[test]
    fn multi_channel_accumulates() {
        // Two input channels of constants 1 and 10; 1x1 weights 2 and 3
        // => every output = 1*2 + 10*3 = 32.
        let mut input = Tensor::zeros(Shape::new(vec![2, 2, 2]));
        for i in 0..4 {
            input.data_mut()[i] = 1.0;
            input.data_mut()[4 + i] = 10.0;
        }
        let weight = t(vec![1, 2, 1, 1], vec![2.0, 3.0]);
        let out = conv2d(&input, &weight, None, &Conv2dParams::square(1, 1, 0)).unwrap();
        assert!(out.data().iter().all(|&x| x == 32.0));
    }

    #[test]
    fn asymmetric_padding_equivalence_on_split() {
        // Convolving the full input with symmetric padding must equal
        // convolving halo-extended halves with one-sided padding, stitched.
        let input = Tensor::from_fn(Shape::new(vec![2, 6, 5]), |i| (i as f32).sin());
        let weight = Tensor::from_fn(Shape::new(vec![3, 2, 3, 3]), |i| (i as f32 * 0.1).cos());
        let full = conv2d(&input, &weight, None, &Conv2dParams::square(3, 1, 1)).unwrap();

        // Split output rows 0..3 and 3..6. With k=3, s=1, p=1 the first part
        // needs input rows 0..4 (pad top only), second needs rows 2..6 (pad
        // bottom only).
        let top = input.slice(1, 0..4).unwrap();
        let bot = input.slice(1, 2..6).unwrap();
        let p_top = Conv2dParams {
            kernel: (3, 3),
            stride: (1, 1),
            padding: Padding {
                top: 1,
                bottom: 0,
                left: 1,
                right: 1,
            },
        };
        let p_bot = Conv2dParams {
            kernel: (3, 3),
            stride: (1, 1),
            padding: Padding {
                top: 0,
                bottom: 1,
                left: 1,
                right: 1,
            },
        };
        let out_top = conv2d(&top, &weight, None, &p_top).unwrap();
        let out_bot = conv2d(&bot, &weight, None, &p_bot).unwrap();
        let stitched = Tensor::concat(&[out_top, out_bot], 1).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-5);
    }

    #[test]
    fn channel_partition_equivalence() {
        // Partitioning output channels: each worker applies a subset of
        // filters to the whole input; concat along channel dim reproduces it.
        let input = Tensor::from_fn(Shape::new(vec![3, 4, 4]), |i| i as f32 * 0.01);
        let weight = Tensor::from_fn(Shape::new(vec![4, 3, 3, 3]), |i| (i % 7) as f32 * 0.1);
        let params = Conv2dParams::square(3, 1, 1);
        let full = conv2d(&input, &weight, None, &params).unwrap();
        let w0 = weight.slice(0, 0..2).unwrap();
        let w1 = weight.slice(0, 2..4).unwrap();
        let o0 = conv2d(&input, &w0, None, &params).unwrap();
        let o1 = conv2d(&input, &w1, None, &params).unwrap();
        let stitched = Tensor::concat(&[o0, o1], 0).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-6);
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        let input = Tensor::zeros(Shape::new(vec![2, 4, 4]));
        let weight = Tensor::zeros(Shape::new(vec![1, 3, 3, 3]));
        assert!(conv2d(&input, &weight, None, &Conv2dParams::square(3, 1, 1)).is_err());
        let bad_rank = Tensor::zeros(Shape::new(vec![4, 4]));
        let w = Tensor::zeros(Shape::new(vec![1, 2, 3, 3]));
        assert!(conv2d(&bad_rank, &w, None, &Conv2dParams::square(3, 1, 1)).is_err());
    }
}
