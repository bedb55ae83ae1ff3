//! Explicit-width SIMD micro-kernels behind the `simd` cargo feature.
//!
//! The scalar kernels in [`crate::gemm`] carry the repo's bit-identity
//! contract; these AVX-512/AVX2 FMA variants trade that exactness for speed.
//! Each SIMD kernel keeps the *structural* guarantees — every output element
//! is owned by one thread and accumulated in ascending-`k` order over the
//! same cache blocks — so results are still bit-identical across
//! `GILLIS_THREADS` settings and across repeated runs. What changes is the
//! rounding: fused multiply-add contracts `a*b + c` into one
//! correctly-rounded operation, so SIMD outputs differ from the scalar
//! kernels by normal f32 rounding (bounded by the relative-error proptests
//! in `gemm.rs`).
//!
//! # Dispatch
//!
//! [`simd_active`] gates every call site. It is `false` unless all of:
//!
//! 1. the crate was built with `--features simd`,
//! 2. the target is `x86_64` and the CPU reports AVX2 + FMA at runtime
//!    (checked once, cached in a [`OnceLock`](std::sync::OnceLock)),
//! 3. the `GILLIS_NO_SIMD` environment variable is unset.
//!
//! Anything else falls back to the scalar kernels transparently — same
//! public API, same shapes, no caller changes. On non-x86_64 targets the
//! feature compiles but stays scalar (NEON kernels are a documented gap:
//! this reproduction's CI hosts are x86_64 only).
//!
//! The packed-GEMM micro-kernel is chosen once, next to [`simd_active`], in
//! the order AVX-512F → AVX2+FMA → scalar ([`gemm_kernel`] names the
//! choice):
//!
//! - **`avx512 8x32`** — 16 `zmm` accumulators cover eight output rows (two
//!   consecutive 4-row `PackedA` blocks) by 32 columns; column tails are
//!   masked loads and stores, so every tile runs the same code and `B`
//!   may be read at any stride.
//! - **`avx2 4x8`** — 4 `ymm` accumulators over one 4-row block, with a
//!   scalar fused-multiply-add column tail.
//! - **`scalar 4x8`** — the unfused reference kernel in `gemm.rs`.
//!
//! All three run under one driver (`gemm::packed_rows_raw`) that copies
//! each `KC × 32` tile of `B` into a per-thread scratch buffer and sweeps
//! every row block over it from L1 (a chunk of at most one 4-row block
//! reads `B` in place). The tile shape cannot change a bit of
//! the output: each element starts from its `C` value and takes one
//! multiply-add per `k` in ascending `k`, and an FMA rounds per element, so
//! the AVX-512 and AVX2 kernels agree bit for bit (pinned by a proptest in
//! `gemm.rs`).
//!
//! The int8 dot-product kernel ([`dot_i8`]) is different: integer addition
//! is associative, so its AVX2 and scalar paths are *exactly* equal and it
//! needs no accuracy relaxation — only the f32 kernels do.

/// Returns whether the SIMD kernels are compiled in, supported by the CPU,
/// and not disabled via `GILLIS_NO_SIMD`. Cached after the first call.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            std::env::var_os("GILLIS_NO_SIMD").is_none()
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Hints the CPU to pull the cache line holding `p` into L1. Only a hint:
/// it never faults and changes no value, whatever `p` points at.
#[inline(always)]
pub(crate) fn prefetch(p: *const f32) {
    // SAFETY: a prefetch reads nothing into the program and cannot fault,
    // and SSE is part of the x86_64 baseline.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Name of the packed-GEMM micro-kernel this process dispatches:
/// `"avx512 8x32"`, `"avx2 4x8"` or `"scalar 4x8"`.
pub fn gemm_kernel() -> &'static str {
    Kernel::active().name()
}

/// The packed-GEMM micro-kernel run by the driver in [`crate::gemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Unfused mul+add over 4-row blocks: the bit-exact reference.
    Scalar,
    /// AVX2+FMA over 4-row blocks.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    /// AVX-512F over 8-row blocks (two `PackedA` blocks at a time).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
}

impl Kernel {
    /// The kernel for this process: AVX-512F when [`simd_active`] and the
    /// CPU reports it, else AVX2 when [`simd_active`], else scalar. Chosen
    /// once and cached.
    pub(crate) fn active() -> Kernel {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            use std::sync::OnceLock;
            static KERNEL: OnceLock<Kernel> = OnceLock::new();
            *KERNEL.get_or_init(|| {
                if !simd_active() {
                    Kernel::Scalar
                } else if is_x86_feature_detected!("avx512f") {
                    Kernel::Avx512
                } else {
                    Kernel::Avx2
                }
            })
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        {
            Kernel::Scalar
        }
    }

    /// Whether this CPU can execute the kernel's instructions.
    pub(crate) fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kernel::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kernel::Avx512 => is_x86_feature_detected!("avx512f"),
        }
    }

    /// Output rows one micro-kernel call covers.
    pub(crate) fn rows(self) -> usize {
        match self {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kernel::Avx512 => 8,
            _ => 4,
        }
    }

    /// Most output columns one micro-kernel call covers.
    pub(crate) fn cols(self) -> usize {
        match self {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kernel::Avx512 => 32,
            _ => usize::MAX,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar 4x8",
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kernel::Avx2 => "avx2 4x8",
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kernel::Avx512 => "avx512 8x32",
        }
    }
}

/// Signed-int8 dot product `sum(a[i] as i32 * b[i] as i32)`.
///
/// Exact in both paths (integer accumulation); the AVX2 path widens 16
/// lanes at a time through `madd_epi16`. The caller bounds `a.len()` so the
/// i32 lane accumulators cannot overflow (see `quant::MAX_QUANT_K`).
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: simd_active() verified AVX2 support at runtime.
        return unsafe { dot_i8_avx2(a, b) };
    }
    dot_i8_scalar(a, b)
}

#[inline]
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum()
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::dot_i8_scalar;
    use std::arch::x86_64::*;

    /// AVX2 int8 dot product: sign-extend 16 bytes per operand to i16,
    /// `madd` adjacent pairs into 8 i32 lanes, accumulate lanes, then a
    /// horizontal add. Integer adds are associative, so this equals the
    /// scalar loop bit-for-bit.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        let len = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= len {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut total: i32 = lanes.iter().sum();
        total += dot_i8_scalar(&a[i..], &b[i..]);
        total
    }

    /// FMA variant of the 4×8 packed micro-kernel (`gemm::packed_micro_4`)
    /// over output columns `0..w`: the 8 register-tile columns map
    /// one-to-one onto AVX lanes, four accumulator vectors sweep the `KC`
    /// block in ascending-`k` order. `b` holds `kc` rows of `B` at stride
    /// `ldb`, `c` four rows of `C` at stride `ldc`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_4_fma(
        panel: &[f32],
        kc: usize,
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize,
        w: usize,
    ) {
        const NR: usize = 8;
        assert!(panel.len() >= kc * 4 && w <= ldc);
        assert!(kc == 0 || b.len() >= (kc - 1) * ldb + w);
        let (c0, rest) = c.split_at_mut(ldc);
        let (c1, rest) = rest.split_at_mut(ldc);
        let (c2, c3) = rest.split_at_mut(ldc);
        assert!(c3.len() >= w);
        let mut j = 0;
        while j + NR <= w {
            // SAFETY: the asserts above bound every row of `b` and `c` to
            // at least `w` columns past its start, and `j + NR <= w`.
            let mut v0 = _mm256_loadu_ps(c0.as_ptr().add(j));
            let mut v1 = _mm256_loadu_ps(c1.as_ptr().add(j));
            let mut v2 = _mm256_loadu_ps(c2.as_ptr().add(j));
            let mut v3 = _mm256_loadu_ps(c3.as_ptr().add(j));
            for kk in 0..kc {
                let ap = panel.as_ptr().add(kk * 4);
                let vb = _mm256_loadu_ps(b.as_ptr().add(kk * ldb + j));
                v0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap), vb, v0);
                v1 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(1)), vb, v1);
                v2 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(2)), vb, v2);
                v3 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(3)), vb, v3);
            }
            _mm256_storeu_ps(c0.as_mut_ptr().add(j), v0);
            _mm256_storeu_ps(c1.as_mut_ptr().add(j), v1);
            _mm256_storeu_ps(c2.as_mut_ptr().add(j), v2);
            _mm256_storeu_ps(c3.as_mut_ptr().add(j), v3);
            j += NR;
        }
        // Column tail: scalar *fused* multiply-add, one element of each row
        // per step. Using `mul_add` keeps the tail's rounding identical to
        // the 8-wide FMA tiles, so an output element rounds the same way
        // regardless of its column position mod 8 — the property that makes
        // batched GEMM over a widened B matrix bit-identical to the
        // per-query calls it replaces (columns shift position when batches
        // are laid side by side).
        while j < w {
            let mut a0 = c0[j];
            let mut a1 = c1[j];
            let mut a2 = c2[j];
            let mut a3 = c3[j];
            for kk in 0..kc {
                let ap = &panel[kk * 4..kk * 4 + 4];
                let bv = b[kk * ldb + j];
                a0 = ap[0].mul_add(bv, a0);
                a1 = ap[1].mul_add(bv, a1);
                a2 = ap[2].mul_add(bv, a2);
                a3 = ap[3].mul_add(bv, a3);
            }
            c0[j] = a0;
            c1[j] = a1;
            c2[j] = a2;
            c3[j] = a3;
            j += 1;
        }
    }

    /// FMA variant of the remainder micro-kernel (`gemm::packed_micro_rem`,
    /// fewer than 4 rows in a block). Uses the *same* per-element operation
    /// history as [`micro_4_fma`] — 8-wide FMA tiles with a scalar
    /// fused-multiply-add column tail — so an output element rounds
    /// identically whether its row lands in a full or remainder block, and
    /// identically at every column position. That keeps SIMD results
    /// bit-identical across thread counts, across the packed/unpacked entry
    /// points, and across batched (widened-B) and per-query execution.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_rem_fma(
        panel: &[f32],
        bh: usize,
        kc: usize,
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize,
        w: usize,
    ) {
        const NR: usize = 8;
        assert!(panel.len() >= kc * bh && w <= ldc);
        assert!(kc == 0 || b.len() >= (kc - 1) * ldb + w);
        for r in 0..bh {
            let c_row = &mut c[r * ldc..r * ldc + w];
            let mut j = 0;
            while j + NR <= w {
                // SAFETY: `c_row` has `w` elements, every `b` row at least
                // `w` past its start (asserted above), and `j + NR <= w`.
                let mut vc = _mm256_loadu_ps(c_row.as_ptr().add(j));
                for kk in 0..kc {
                    let va = _mm256_set1_ps(panel[kk * bh + r]);
                    let vb = _mm256_loadu_ps(b.as_ptr().add(kk * ldb + j));
                    vc = _mm256_fmadd_ps(va, vb, vc);
                }
                _mm256_storeu_ps(c_row.as_mut_ptr().add(j), vc);
                j += NR;
            }
            while j < w {
                let mut acc = c_row[j];
                for kk in 0..kc {
                    // Fused, like the tiles and like `micro_4_fma`'s tail:
                    // column position must not change rounding.
                    acc = panel[kk * bh + r].mul_add(b[kk * ldb + j], acc);
                }
                c_row[j] = acc;
                j += 1;
            }
        }
    }

    /// [`micro_4_fma`] over columns `nb..nend` of row-major `B` and `C`
    /// sharing the stride `n`, starting at `B` row `k0`.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn packed_micro_4_fma(
        panel: &[f32],
        kc: usize,
        k0: usize,
        n: usize,
        nb: usize,
        nend: usize,
        b: &[f32],
        c_rows: &mut [f32],
    ) {
        micro_4_fma(
            panel,
            kc,
            &b[k0 * n + nb..],
            n,
            &mut c_rows[nb..],
            n,
            nend - nb,
        );
    }

    /// [`micro_rem_fma`] with the addressing of [`packed_micro_4_fma`].
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn packed_micro_rem_fma(
        panel: &[f32],
        bh: usize,
        kc: usize,
        k0: usize,
        n: usize,
        nb: usize,
        nend: usize,
        b: &[f32],
        c_rows: &mut [f32],
    ) {
        micro_rem_fma(
            panel,
            bh,
            kc,
            &b[k0 * n + nb..],
            n,
            &mut c_rows[nb..],
            n,
            nend - nb,
        );
    }

    /// FMA row dot for `gemv`: eight f32 lanes accumulate with FMA, then the
    /// lanes fold in the same fixed tree order as the scalar kernel, plus a
    /// scalar tail. Deterministic for a given length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_dot_fma(row: &[f32], x: &[f32]) -> f32 {
        let n = row.len();
        let mut vacc = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let vw = _mm256_loadu_ps(row.as_ptr().add(j));
            let vx = _mm256_loadu_ps(x.as_ptr().add(j));
            vacc = _mm256_fmadd_ps(vw, vx, vacc);
            j += 8;
        }
        let mut acc = [0.0f32; 8];
        _mm256_storeu_ps(acc.as_mut_ptr(), vacc);
        let mut tail = 0.0f32;
        while j < n {
            tail += row[j] * x[j];
            j += 1;
        }
        let folded =
            ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        folded + tail
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx512 {
    use std::arch::x86_64::*;

    /// AVX-512 micro-kernel: `bh ≤ 8` output rows by `w ≤ 32` columns.
    ///
    /// `panel` is `bh` rows of a `PackedA` block range — one 4-row block
    /// (or a shorter remainder) followed by up to one more — and `b` holds
    /// `kc` rows of `B` at stride `ldb` (the driver's packed tile, or `B`
    /// itself). Each output row keeps two `zmm` accumulators that start
    /// from `C` and take one `_mm512_fmadd_ps` per `k` in ascending order,
    /// so every element has the operation history of the AVX2 kernel's.
    /// Columns `w..32` of `B` and `C` are masked off and never touched.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_8x32(
        panel: &[f32],
        bh: usize,
        kc: usize,
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize,
        w: usize,
    ) {
        assert!((1..=8).contains(&bh) && (1..=32).contains(&w) && w <= ldc);
        assert_eq!(panel.len(), bh * kc, "panel must hold bh rows of kc");
        assert!(kc == 0 || b.len() >= (kc - 1) * ldb + w);
        assert!(c.len() >= (bh - 1) * ldc + w);
        let bits = if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
        let masks = [bits as u16, (bits >> 16) as u16];
        let (p, bp, cp) = (panel.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // SAFETY: the asserts above bound every panel access, and every `B`
        // and `C` access the instantiations make goes through `masks`.
        match bh {
            8 => tile::<4, 4>(p, kc, bp, ldb, cp, ldc, masks),
            7 => tile::<4, 3>(p, kc, bp, ldb, cp, ldc, masks),
            6 => tile::<4, 2>(p, kc, bp, ldb, cp, ldc, masks),
            5 => tile::<4, 1>(p, kc, bp, ldb, cp, ldc, masks),
            4 => tile::<4, 0>(p, kc, bp, ldb, cp, ldc, masks),
            3 => tile::<3, 0>(p, kc, bp, ldb, cp, ldc, masks),
            2 => tile::<2, 0>(p, kc, bp, ldb, cp, ldc, masks),
            _ => tile::<1, 0>(p, kc, bp, ldb, cp, ldc, masks),
        }
    }

    /// [`tile_8x32`] for an `R0`-row block followed by an `R1`-row block;
    /// the constant row counts let every accumulator live in a register.
    ///
    /// # Safety
    ///
    /// AVX-512F, `panel` readable for `(R0 + R1) · kc` values, `b` for `kc`
    /// rows at stride `ldb` and `c` for `R0 + R1` rows at stride `ldc`,
    /// wherever `masks` is set.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const R0: usize, const R1: usize>(
        panel: *const f32,
        kc: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        masks: [u16; 2],
    ) {
        let p1 = panel.add(R0 * kc);
        let mut acc = [[_mm512_setzero_ps(); 2]; 8];
        for (r, row) in acc.iter_mut().enumerate().take(R0 + R1) {
            // The upper half starts past the row's end when `w <= 16`; its
            // mask is then empty and nothing is read through it.
            let cr = c.wrapping_add(r * ldc);
            row[0] = _mm512_maskz_loadu_ps(masks[0], cr);
            row[1] = _mm512_maskz_loadu_ps(masks[1], cr.wrapping_add(16));
            // The next row block's C: the driver runs it next, and its rows
            // are far apart in memory.
            let next = c.wrapping_add((R0 + R1 + r) * ldc);
            super::prefetch(next);
            super::prefetch(next.wrapping_add(16));
        }
        for kk in 0..kc {
            let br = b.wrapping_add(kk * ldb);
            let b0 = _mm512_maskz_loadu_ps(masks[0], br);
            let b1 = _mm512_maskz_loadu_ps(masks[1], br.wrapping_add(16));
            let (a0, a1) = (panel.add(kk * R0), p1.add(kk * R1));
            for (r, row) in acc[..R0].iter_mut().enumerate() {
                let a = _mm512_set1_ps(*a0.add(r));
                row[0] = _mm512_fmadd_ps(a, b0, row[0]);
                row[1] = _mm512_fmadd_ps(a, b1, row[1]);
            }
            for (r, row) in acc[R0..R0 + R1].iter_mut().enumerate() {
                let a = _mm512_set1_ps(*a1.add(r));
                row[0] = _mm512_fmadd_ps(a, b0, row[0]);
                row[1] = _mm512_fmadd_ps(a, b1, row[1]);
            }
        }
        for (r, row) in acc.iter().enumerate().take(R0 + R1) {
            let cr = c.wrapping_add(r * ldc);
            _mm512_mask_storeu_ps(cr, masks[0], row[0]);
            _mm512_mask_storeu_ps(cr.wrapping_add(16), masks[1], row[1]);
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) use avx2::{micro_4_fma, micro_rem_fma, row_dot_fma};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) use avx512::tile_8x32;

#[cfg(all(feature = "simd", target_arch = "x86_64", test))]
use avx2::{packed_micro_4_fma, packed_micro_rem_fma};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use avx2::dot_i8_avx2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_i8_matches_scalar() {
        let a: Vec<i8> = (0..100).map(|i| ((i * 37) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..100).map(|i| ((i * 91) % 255 - 127) as i8).collect();
        assert_eq!(dot_i8(&a, &b), dot_i8_scalar(&a, &b));
    }

    #[test]
    fn dot_i8_extremes() {
        let a = vec![i8::MIN; 33];
        let b = vec![i8::MIN; 33];
        assert_eq!(dot_i8(&a, &b), 33 * 128 * 128);
        let c = vec![i8::MAX; 33];
        assert_eq!(dot_i8(&a, &c), 33 * -128 * 127);
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn fma_kernels_close_to_scalar() {
        if !simd_active() {
            return;
        }
        let n = 37;
        let row: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
        let got = unsafe { row_dot_fma(&row, &x) };
        let want: f32 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((got - want).abs() < 1e-4, "{got} vs {want}");
    }

    /// The remainder FMA kernel must reproduce the 4-row kernel's
    /// per-element rounding exactly — that is what keeps SIMD outputs
    /// independent of how thread chunking groups rows into blocks.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn rem_kernel_matches_micro4_per_element() {
        if !simd_active() {
            return;
        }
        let (kc, n) = (13, 21);
        let b: Vec<f32> = (0..kc * n).map(|i| (i as f32 * 0.37).sin()).collect();
        // 4 rows through micro4...
        let panel4: Vec<f32> = (0..kc * 4).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut c4 = vec![0.5f32; 4 * n];
        unsafe { packed_micro_4_fma(&panel4, kc, 0, n, 0, n, &b, &mut c4) };
        // ...and each row alone through the remainder kernel.
        for r in 0..4 {
            let panel1: Vec<f32> = (0..kc).map(|kk| panel4[kk * 4 + r]).collect();
            let mut c1 = vec![0.5f32; n];
            unsafe { packed_micro_rem_fma(&panel1, 1, kc, 0, n, 0, n, &b, &mut c1) };
            for j in 0..n {
                assert_eq!(c1[j].to_bits(), c4[r * n + j].to_bits(), "row {r} col {j}");
            }
        }
    }
}
