//! Runtime-dispatched SIMD kernels for the crate's `f32` hot paths and
//! the quantized int8 inference lane.
//!
//! Two backends implement each kernel:
//!
//! * **scalar** — the original portable loops, unchanged, so
//!   `ICOIL_FORCE_SCALAR=1` reproduces pre-SIMD results bit-for-bit;
//! * **avx2** — x86-64 AVX2/FMA `f32x8` lanes, selected at runtime when
//!   the CPU reports both `avx2` and `fma`.
//!
//! # Determinism contract
//!
//! Each kernel declares a conformance *mode* (see [`kernel_modes`]):
//!
//! * `"bitwise"` — the SIMD path performs the same floating-point
//!   operations in the same order as the scalar path (pure data movement
//!   or lane-independent updates), so both backends agree bit-for-bit.
//! * `"ulp"` — FMA contraction and lane-split reductions reorder
//!   roundings, so backends agree only to a small relative tolerance.
//!   Crucially, each *output element's* value is still a pure function of
//!   its own inputs on a given backend: lane tiling and batch width never
//!   leak into an element's accumulation order, preserving the
//!   batched-vs-single and worker-count bit-identity contracts *within*
//!   a backend.
//!
//! Dispatch is process-wide (cached on first use, honoring
//! `ICOIL_FORCE_SCALAR=1`) with a thread-local override
//! ([`with_backend`]) so differential tests can compare both backends in
//! one process.

// This module is the one place in the crate allowed to use `unsafe`: the
// AVX2 kernels require `core::arch` intrinsics, which are only callable
// from `#[target_feature]` functions guarded by runtime detection.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

/// Which kernel implementation services the f32 hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar loops (the pre-SIMD reference path).
    Scalar,
    /// x86-64 AVX2 + FMA `f32x8` lanes.
    Avx2,
}

impl KernelBackend {
    /// The backend's stable label, as recorded in bench JSON
    /// (`"scalar"` / `"avx2"`).
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }
}

fn detect() -> KernelBackend {
    if std::env::var("ICOIL_FORCE_SCALAR").is_ok_and(|v| v == "1") {
        return KernelBackend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return KernelBackend::Avx2;
    }
    KernelBackend::Scalar
}

/// The process-wide backend chosen at first use: scalar when
/// `ICOIL_FORCE_SCALAR=1`, otherwise the best the CPU supports.
pub fn detected() -> KernelBackend {
    static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

thread_local! {
    static OVERRIDE: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// The backend the *current thread* will use: a [`with_backend`] override
/// when one is active, the process-wide [`detected`] backend otherwise.
pub fn active() -> KernelBackend {
    OVERRIDE.with(Cell::get).unwrap_or_else(detected)
}

/// The active backend's label (`"avx2"` / `"scalar"`), for bench
/// metadata.
pub fn dispatch_target() -> &'static str {
    active().label()
}

/// Runs `f` with the current thread's kernels pinned to `backend`,
/// restoring the previous dispatch afterwards (also on panic), so
/// differential tests can compare scalar and SIMD results in-process.
pub fn with_backend<R>(backend: KernelBackend, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelBackend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(backend))));
    f()
}

/// Per-kernel conformance modes: `(kernel, mode)` where mode is
/// `"bitwise"` (backends agree bit-for-bit) or `"ulp"` (tolerance-bounded
/// agreement; FMA/lane reductions reorder roundings). See the module docs
/// for what each mode guarantees.
pub fn kernel_modes() -> &'static [(&'static str, &'static str)] {
    &[
        ("matmul_f32", "ulp"),
        ("matmul_nt_f32", "ulp"),
        ("im2col_f32", "bitwise"),
        ("conv2d_f32", "ulp"),
        ("gemm_nt_i8", "bitwise"),
        ("requant_u8", "bitwise"),
        ("quantize_u8", "bitwise"),
    ]
}

/// `out[m×n] = a[m×k] · b[k×n]`, row-major. `out` is fully overwritten.
///
/// Both backends accumulate each output element over `k` in ascending
/// order and skip `a == 0.0` entries, so an element's value depends only
/// on its own row of `a` and column of `b` — never on the tiling.
///
/// # Panics
///
/// Panics (in debug builds) when the slice lengths disagree with the
/// dimensions.
pub fn matmul(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match active() {
        KernelBackend::Scalar => matmul_scalar(a, m, k, b, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backend is only ever selected after runtime
        // detection of avx2+fma (or by an explicit test override on a
        // machine where detection already succeeded).
        KernelBackend::Avx2 => unsafe { matmul_avx2(a, m, k, b, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelBackend::Avx2 => matmul_scalar(a, m, k, b, n, out),
    }
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ`, row-major. `out` is fully overwritten.
///
/// Each output element is an independent dot product over `k`, so the
/// result row for `a`'s row `i` is identical whatever the batch width
/// `m` — the property the serve IL micro-batch relies on.
pub fn matmul_nt(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    match active() {
        KernelBackend::Scalar => matmul_nt_scalar(a, m, k, b, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `matmul` — avx2+fma verified before dispatch.
        KernelBackend::Avx2 => unsafe { matmul_nt_avx2(a, m, k, b, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelBackend::Avx2 => matmul_nt_scalar(a, m, k, b, n, out),
    }
}

/// The pre-SIMD column-blocked matmul, kept verbatim as the scalar
/// reference: a panel of `b` columns stays in cache across all rows of
/// `a`, each element accumulating over `k` in ascending order.
fn matmul_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    const BLOCK: usize = 128;
    out.fill(0.0);
    let mut jb = 0;
    while jb < n {
        let je = (jb + BLOCK).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n + jb..i * n + je];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n + jb..kk * n + je];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        jb = je;
    }
}

/// The pre-SIMD per-element dot product, kept verbatim as the scalar
/// reference.
fn matmul_nt_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_avx2(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    out.fill(0.0);
    // Register-tiled core: a 4-row × 16-column tile of `out` lives in
    // eight ymm accumulators across the whole k loop, so each k step is
    // two panel loads plus eight independent FMA chains — enough to keep
    // both FMA ports busy instead of round-tripping `out` through L1 on
    // every k step. Per element the math is unchanged: one FMA per
    // nonzero `a` entry, k ascending, so the tiling never leaks into a
    // value and row results are independent of the batch height `m`.
    const NR: usize = 16;
    const MR: usize = 4;
    let n_main = n - n % NR;
    let m_main = m - m % MR;
    let mut jb = 0;
    while jb < n_main {
        let mut ib = 0;
        while ib < m_main {
            // SAFETY: ib + MR <= m and jb + NR <= n, so every a/b/out
            // index below is in bounds.
            unsafe {
                let bp = b.as_ptr().add(jb);
                let mut acc = [[_mm256_setzero_ps(); 2]; MR];
                for kk in 0..k {
                    let brow = bp.add(kk * n);
                    let b0 = _mm256_loadu_ps(brow);
                    let b1 = _mm256_loadu_ps(brow.add(8));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = *a.get_unchecked((ib + r) * k + kk);
                        if av == 0.0 {
                            continue;
                        }
                        let va = _mm256_set1_ps(av);
                        accr[0] = _mm256_fmadd_ps(va, b0, accr[0]);
                        accr[1] = _mm256_fmadd_ps(va, b1, accr[1]);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let op = out.as_mut_ptr().add((ib + r) * n + jb);
                    _mm256_storeu_ps(op, accr[0]);
                    _mm256_storeu_ps(op.add(8), accr[1]);
                }
            }
            ib += MR;
        }
        // Row tail (m % MR): one row at a time, accumulators still held
        // in registers across k — the same per-element op sequence as
        // the 4-row tile.
        for i in m_main..m {
            // SAFETY: i < m and jb + NR <= n.
            unsafe {
                let bp = b.as_ptr().add(jb);
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                for kk in 0..k {
                    let av = *a.get_unchecked(i * k + kk);
                    if av == 0.0 {
                        continue;
                    }
                    let brow = bp.add(kk * n);
                    let va = _mm256_set1_ps(av);
                    acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow), acc0);
                    acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow.add(8)), acc1);
                }
                let op = out.as_mut_ptr().add(i * n + jb);
                _mm256_storeu_ps(op, acc0);
                _mm256_storeu_ps(op.add(8), acc1);
            }
        }
        jb += NR;
    }
    // Column tail (n % NR): stream the leftover columns per (i, k) with
    // the same fmadd lane semantics (8-lane vectors, then `mul_add` for
    // the rest — both compile to vfmadd, so tail columns see the same
    // rounding as tiled ones).
    if n_main < n {
        let span = n - n_main;
        let lanes = span - span % 8;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n + n_main..(kk + 1) * n];
                let out_row = &mut out[i * n + n_main..(i + 1) * n];
                let va = _mm256_set1_ps(av);
                let mut j = 0;
                while j < lanes {
                    // SAFETY: j + 8 <= lanes <= span == both slice lengths.
                    let vb = unsafe { _mm256_loadu_ps(b_row.as_ptr().add(j)) };
                    let vo = unsafe { _mm256_loadu_ps(out_row.as_ptr().add(j)) };
                    let fused = _mm256_fmadd_ps(va, vb, vo);
                    unsafe { _mm256_storeu_ps(out_row.as_mut_ptr().add(j), fused) };
                    j += 8;
                }
                for j in lanes..span {
                    out_row[j] = av.mul_add(b_row[j], out_row[j]);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_nt_avx2(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let lanes = k - k % 8;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = _mm256_setzero_ps();
            let mut kk = 0;
            while kk < lanes {
                // SAFETY: kk + 8 <= lanes <= k == both slice lengths.
                let va = unsafe { _mm256_loadu_ps(a_row.as_ptr().add(kk)) };
                let vb = unsafe { _mm256_loadu_ps(b_row.as_ptr().add(kk)) };
                acc = _mm256_fmadd_ps(va, vb, acc);
                kk += 8;
            }
            // Fixed-order horizontal sum, then the scalar tail — the
            // same reduction tree for every (i, j), independent of m, n.
            let lo = _mm256_castps256_ps128(acc);
            let hi = _mm256_extractf128_ps(acc, 1);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
            let mut sum = _mm_cvtss_f32(s);
            for kk in lanes..k {
                sum = a_row[kk].mul_add(b_row[kk], sum);
            }
            out[i * n + j] = sum;
        }
    }
}

/// One stride-`stride` convolution of a single sample, read in place from
/// a zero-bordered input ("implicit im2col"): no patch matrix is built.
///
/// Tap `t` of output pixel `(oy, ox)` reads
/// `x[(oy·stride)·row_stride + ox·stride + taps[t]]`, where `taps` lists
/// each weight column's offset into the bordered planes — so column `t`
/// of the im2col matrix is read where it lies, padding taps included
/// (they read the zero border).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvPlan<'a> {
    /// `[out_ch, taps.len()]` weights, row-major.
    pub weight: &'a [f32],
    /// `[out_ch]` biases.
    pub bias: &'a [f32],
    /// Offset of each weight column's input element, relative to the
    /// pixel's top-left tap.
    pub taps: &'a [usize],
    /// Elements per row of the bordered input planes.
    pub row_stride: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
    /// Fuse ReLU and a 2×2 max pool into the epilogue: `out` is then
    /// `[out_ch, oh/2, ow/2]` instead of `[out_ch, oh, ow]`.
    pub pool: bool,
}

/// Runs `plan` over the bordered input `x` into `out`.
///
/// # Determinism contract
///
/// Mode `"ulp"`, like [`matmul`], and for the same reason: every output
/// element accumulates exactly as `matmul(weight, im2col(x))` would —
/// from `+0.0`, over the taps in ascending order, skipping zero weights,
/// one FMA per tap on AVX2 and a multiply then an add on scalar — and
/// then adds its bias. Padding taps are not skipped: they multiply the
/// zero border just as the im2col matrix's zeros were multiplied. So the
/// result equals the im2col GEMM bit for bit on each backend, whatever
/// the tiling. With `pool`, each value then goes through
/// [`relu`](crate::layer::relu) and the 2×2 window maximum: ReLU leaves
/// no NaN and no `-0.0`, so any maximum order gives the same bits.
///
/// `rows` is scratch for the portable path (at least `2·ow` after use).
///
/// # Panics
///
/// Panics when `x` is too short for the plan's reads or `out` for its
/// writes.
pub(crate) fn conv2d(plan: &ConvPlan, x: &[f32], out: &mut [f32], rows: &mut Vec<f32>) {
    let m = plan.bias.len();
    let k = plan.taps.len();
    assert_eq!(plan.weight.len(), m * k, "conv weight shape");
    if m == 0 || plan.oh == 0 || plan.ow == 0 {
        return;
    }
    let last = (plan.oh - 1) * plan.stride * plan.row_stride
        + (plan.ow - 1) * plan.stride
        + plan.taps.iter().copied().max().unwrap_or(0);
    assert!(k == 0 || last < x.len(), "conv input too short for its taps");
    let plane = if plan.pool {
        (plan.oh / 2) * (plan.ow / 2)
    } else {
        plan.oh * plan.ow
    };
    assert!(out.len() >= m * plane, "conv output too short");
    match active() {
        KernelBackend::Scalar => conv2d_portable::<false>(plan, x, out, rows),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2+fma verified before dispatch (as in `matmul`), and
        // the asserts above bound every read of `x` and write of `out`.
        KernelBackend::Avx2 => unsafe {
            if plan.stride == 1 && plan.oh.is_multiple_of(2) && plan.ow.is_multiple_of(8) {
                conv2d_avx2(plan, x, out)
            } else {
                conv2d_portable_fma(plan, x, out, rows)
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        KernelBackend::Avx2 => conv2d_portable::<true>(plan, x, out, rows),
    }
}

/// One output row of one channel: `acc[ox]` accumulates the taps of
/// pixel `(row, ox)`, `base` being the row's first input offset.
#[inline(always)]
fn conv_row<const FMA: bool>(
    plan: &ConvPlan,
    w_row: &[f32],
    x: &[f32],
    base: usize,
    acc: &mut [f32],
) {
    acc.fill(0.0);
    let len = acc.len();
    for (&a, &tap) in w_row.iter().zip(plan.taps) {
        if a == 0.0 {
            continue;
        }
        let src = &x[base + tap..];
        if plan.stride == 1 {
            for (o, &v) in acc.iter_mut().zip(&src[..len]) {
                *o = if FMA { a.mul_add(v, *o) } else { *o + a * v };
            }
        } else {
            for (o, v) in acc.iter_mut().zip(src.iter().step_by(plan.stride)) {
                *o = if FMA { a.mul_add(*v, *o) } else { *o + a * v };
            }
        }
    }
}

/// The portable kernel: row-at-a-time accumulation (the inner loop runs
/// along a row, as the scalar GEMM's does), then the epilogue.
#[inline(always)]
fn conv2d_portable<const FMA: bool>(
    plan: &ConvPlan,
    x: &[f32],
    out: &mut [f32],
    rows: &mut Vec<f32>,
) {
    let (oh, ow) = (plan.oh, plan.ow);
    let k = plan.taps.len();
    let row_step = plan.stride * plan.row_stride;
    rows.resize(2 * ow, 0.0);
    let (r0, r1) = rows.split_at_mut(ow);
    for (co, &b) in plan.bias.iter().enumerate() {
        let w_row = &plan.weight[co * k..(co + 1) * k];
        if plan.pool {
            let (ph, pw) = (oh / 2, ow / 2);
            for py in 0..ph {
                conv_row::<FMA>(plan, w_row, x, 2 * py * row_step, r0);
                conv_row::<FMA>(plan, w_row, x, (2 * py + 1) * row_step, r1);
                let dst = &mut out[(co * ph + py) * pw..(co * ph + py + 1) * pw];
                for (px, d) in dst.iter_mut().enumerate() {
                    let window = [r0[2 * px], r0[2 * px + 1], r1[2 * px], r1[2 * px + 1]];
                    let mut best = f32::NEG_INFINITY;
                    for v in window {
                        let v = crate::layer::relu(v + b);
                        if v > best {
                            best = v;
                        }
                    }
                    *d = best;
                }
            }
        } else {
            for oy in 0..oh {
                let dst = &mut out[(co * oh + oy) * ow..(co * oh + oy + 1) * ow];
                conv_row::<FMA>(plan, w_row, x, oy * row_step, dst);
                for v in dst {
                    *v += b;
                }
            }
        }
    }
}

/// [`conv2d_portable`] with hardware FMA, for AVX2-backend shapes the
/// tiled kernel does not cover.
///
/// # Safety
///
/// avx2+fma must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv2d_portable_fma(plan: &ConvPlan, x: &[f32], out: &mut [f32], rows: &mut Vec<f32>) {
    conv2d_portable::<true>(plan, x, out, rows)
}

/// The tiled AVX2 kernel for stride 1, even `oh` and `ow % 8 == 0`.
///
/// A tile is `R` output channels × a 2-row × 8-column pixel block, held
/// in `2R` ymm accumulators across all taps: per tap, two input-row
/// loads serve `R` weight broadcasts and `2R` FMA chains — the GEMM's
/// 4×16 register tile with the patch matrix read in place. The 2×8
/// shape is also exactly four 2×2 pooling windows per channel, so the
/// fused epilogue pools straight out of the registers.
///
/// # Safety
///
/// avx2+fma must be available, the plan must have stride 1, even `oh`
/// and `ow % 8 == 0`, and `x`/`out` must pass [`conv2d`]'s asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv2d_avx2(plan: &ConvPlan, x: &[f32], out: &mut [f32]) {
    const MR: usize = 4;
    let m = plan.bias.len();
    let m_main = m - m % MR;
    let mut co = 0;
    let k = plan.taps.len();
    // Zero weights must be skipped, as the GEMM skips them (0·∞ would
    // otherwise turn into NaN); a weight block without any zero needs no
    // per-tap test, which keeps the branch out of the FMA stream.
    let has_zero =
        |rows: std::ops::Range<usize>| plan.weight[rows.start * k..rows.end * k].contains(&0.0);
    while co < m_main {
        // SAFETY: co + MR <= m; the dispatcher bounds x and out.
        unsafe {
            if has_zero(co..co + MR) {
                conv_tile_avx2::<MR, true>(plan, co, x, out)
            } else {
                conv_tile_avx2::<MR, false>(plan, co, x, out)
            }
        };
        co += MR;
    }
    for co in m_main..m {
        // SAFETY: as above, one channel.
        unsafe { conv_tile_avx2::<1, true>(plan, co, x, out) };
    }
}

/// Channels `co..co + R` of [`conv2d_avx2`]; `SKIP` tests each weight
/// for zero (callers may clear it only for blocks without zeros).
///
/// # Safety
///
/// avx2+fma must be available, `co + R` must not exceed the channel
/// count, and `x`/`out` must satisfy [`conv2d`]'s bounds asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_tile_avx2<const R: usize, const SKIP: bool>(
    plan: &ConvPlan,
    co: usize,
    x: &[f32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    // SAFETY (whole function): every x read is at most `(oh - 1)·rs +
    // ow - 1 + max(taps)`, the bound `conv2d` asserts; weight reads stay
    // below `(co + R)·k`; every out write stays below `m·plane`.
    unsafe {
        let (oh, ow, rs) = (plan.oh, plan.ow, plan.row_stride);
        let k = plan.taps.len();
        let w = plan.weight.as_ptr().add(co * k);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        let zero = _mm256_setzero_ps();
        // lanes 0, 2, 4, 6 — where the pairwise maxima land
        let evens = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        let mut oy = 0;
        while oy < oh {
            let mut ox = 0;
            while ox < ow {
                let base0 = xp.add(oy * rs + ox);
                let base1 = base0.add(rs);
                let mut acc = [[zero; 2]; R];
                for (t, &tap) in plan.taps.iter().enumerate() {
                    let b0 = _mm256_loadu_ps(base0.add(tap));
                    let b1 = _mm256_loadu_ps(base1.add(tap));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let a = *w.add(r * k + t);
                        if SKIP && a == 0.0 {
                            continue;
                        }
                        let va = _mm256_set1_ps(a);
                        accr[0] = _mm256_fmadd_ps(va, b0, accr[0]);
                        accr[1] = _mm256_fmadd_ps(va, b1, accr[1]);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let vb = _mm256_set1_ps(plan.bias[co + r]);
                    let v0 = _mm256_add_ps(accr[0], vb);
                    let v1 = _mm256_add_ps(accr[1], vb);
                    if plan.pool {
                        // ReLU as `relu`: max_ps returns its second operand
                        // (+0.0) for NaN and for ±0.0
                        let v = _mm256_max_ps(_mm256_max_ps(v0, zero), _mm256_max_ps(v1, zero));
                        let pairs = _mm256_max_ps(v, _mm256_permute_ps::<0b10_11_00_01>(v));
                        let pooled = _mm256_permutevar8x32_ps(pairs, evens);
                        let (ph, pw) = (oh / 2, ow / 2);
                        let dst = op.add(((co + r) * ph + oy / 2) * pw + ox / 2);
                        _mm_storeu_ps(dst, _mm256_castps256_ps128(pooled));
                    } else {
                        let dst = op.add(((co + r) * oh + oy) * ow + ox);
                        _mm256_storeu_ps(dst, v0);
                        _mm256_storeu_ps(dst.add(ow), v1);
                    }
                }
                ox += 8;
            }
            oy += 2;
        }
    }
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ` over quantized integers: `a` holds
/// unsigned activation codes, `b` signed int8 weights, and every output
/// element is an exact i32 dot product — the quantized counterpart of
/// [`matmul_nt`].
///
/// # Determinism contract
///
/// This kernel is `"bitwise"`: i32 addition is associative mod 2³², so
/// the AVX2 lane tiling cannot reorder a result, *provided* the
/// `maddubs` pair sums never saturate in i16. The quantizer guarantees
/// that by keeping activation codes in `0..=127` (so a pair is at most
/// `2·127·127 = 32258 < 32767`); callers handing this kernel activation
/// bytes above 127 forfeit the bitwise guarantee on AVX2.
///
/// The caller also guarantees the i32 accumulator cannot overflow:
/// `k·127·127` must stay below `i32::MAX` (true for any `k` below
/// ~132 000; the iCOIL CNN's largest reduction is 512).
///
/// # Panics
///
/// Panics (in debug builds) when the slice lengths disagree with the
/// dimensions.
pub fn gemm_nt_i8(a: &[u8], m: usize, k: usize, b: &[i8], n: usize, out: &mut [i32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(
        a.iter().all(|&v| v <= 127),
        "activation codes above 127 break the maddubs bitwise contract"
    );
    match active() {
        KernelBackend::Scalar => gemm_nt_i8_scalar(a, m, k, b, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `matmul` — avx2 verified before dispatch.
        KernelBackend::Avx2 => unsafe { gemm_nt_i8_avx2(a, m, k, b, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelBackend::Avx2 => gemm_nt_i8_scalar(a, m, k, b, n, out),
    }
}

/// The portable int8 reference: plain i32 dot products, the exact value
/// the AVX2 path must reproduce bit-for-bit.
fn gemm_nt_i8_scalar(a: &[u8], m: usize, k: usize, b: &[i8], n: usize, out: &mut [i32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += i32::from(av) * i32::from(bv);
            }
            out[i * n + j] = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nt_i8_avx2(a: &[u8], m: usize, k: usize, b: &[i8], n: usize, out: &mut [i32]) {
    use std::arch::x86_64::*;
    let lanes = k - k % 32;
    let n_main = n - n % 8;
    // SAFETY (whole function): every pointer below indexes a[..m*k],
    // b[..n*k] or out[..m*n] within the bounds debug-asserted by the
    // dispatcher; vector loads read 32 bytes at offsets < lanes <= k, and
    // the 256-bit result store covers out[i*n+j .. +8] with j+8 <= n.
    unsafe {
        let ones = _mm256_set1_epi16(1);
        // Eight-column panels, panel-outer so the eight weight-row
        // pointers stay pinned in registers across the whole activation
        // sweep: per row, eight weight rows share each 32-byte activation
        // load (one maddubs u8×i8 → i16 pairs, one madd pair sum → i32
        // lanes, one add per row), and the eight accumulators collapse
        // through a single hadd/permute tree into one ymm of ordered
        // column sums, stored with one 256-bit write. Amortizing the
        // horizontal reduction to ~1 instruction per output is what makes
        // the skinny conv GEMMs (k as small as 32) worthwhile. Exact i32
        // sums make the tiling invisible in the result.
        let mut j = 0;
        while j < n_main {
            let bp: [*const i8; 8] = std::array::from_fn(|s| b.as_ptr().add((j + s) * k));
            for i in 0..m {
                let a_row = a.as_ptr().add(i * k);
                let mut acc = [_mm256_setzero_si256(); 8];
                let mut kk = 0;
                while kk < lanes {
                    let va = _mm256_loadu_si256(a_row.add(kk) as *const __m256i);
                    for (accs, bs) in acc.iter_mut().zip(&bp) {
                        let vb = _mm256_loadu_si256(bs.add(kk) as *const __m256i);
                        *accs = _mm256_add_epi32(
                            *accs,
                            _mm256_madd_epi16(_mm256_maddubs_epi16(va, vb), ones),
                        );
                    }
                    kk += 32;
                }
                // [Σ0..Σ7] in column order: hadd pairs lanes within
                // 128-bit halves, the permute2x128 pair realigns them
                let t0 = _mm256_hadd_epi32(acc[0], acc[1]);
                let t1 = _mm256_hadd_epi32(acc[2], acc[3]);
                let t2 = _mm256_hadd_epi32(acc[4], acc[5]);
                let t3 = _mm256_hadd_epi32(acc[6], acc[7]);
                let u0 = _mm256_hadd_epi32(t0, t1);
                let u1 = _mm256_hadd_epi32(t2, t3);
                let mut v = _mm256_add_epi32(
                    _mm256_permute2x128_si256(u0, u1, 0x20),
                    _mm256_permute2x128_si256(u0, u1, 0x31),
                );
                if lanes < k {
                    let mut tails = [0i32; 8];
                    for (ts, bs) in tails.iter_mut().zip(&bp) {
                        for kk in lanes..k {
                            *ts += i32::from(*a_row.add(kk)) * i32::from(*bs.add(kk));
                        }
                    }
                    let vt = _mm256_loadu_si256(tails.as_ptr() as *const __m256i);
                    v = _mm256_add_epi32(v, vt);
                }
                _mm256_storeu_si256(out.as_mut_ptr().add(i * n + j) as *mut __m256i, v);
            }
            j += 8;
        }
        // column tail (n % 8): one weight row at a time
        for j in n_main..n {
            let b_row = b.as_ptr().add(j * k);
            for i in 0..m {
                out[i * n + j] = dot_i8_avx2(a.as_ptr().add(i * k), b_row, k, lanes);
            }
        }
    }
}

/// One u8·i8 dot product over `k` entries (`lanes` of them vectorized).
///
/// # Safety
///
/// `a` and `b` must be readable for `k` bytes, and avx2 must be
/// available; `lanes` must be `k - k % 32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: *const u8, b: *const i8, k: usize, lanes: usize) -> i32 {
    use std::arch::x86_64::*;
    // SAFETY: callers pass pointers valid for k bytes; loads stop at
    // lanes <= k.
    unsafe {
        let ones = _mm256_set1_epi16(1);
        let mut accv = _mm256_setzero_si256();
        let mut kk = 0;
        while kk < lanes {
            let va = _mm256_loadu_si256(a.add(kk) as *const __m256i);
            let vb = _mm256_loadu_si256(b.add(kk) as *const __m256i);
            accv = _mm256_add_epi32(accv, _mm256_madd_epi16(_mm256_maddubs_epi16(va, vb), ones));
            kk += 32;
        }
        let s = _mm_add_epi32(_mm256_castsi256_si128(accv), _mm256_extracti128_si256(accv, 1));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b_01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b_00_00_00_01));
        let mut acc = _mm_cvtsi128_si32(s);
        for kk in lanes..k {
            acc += i32::from(*a.add(kk)) * i32::from(*b.add(kk));
        }
        acc
    }
}

/// One requantization element: the exact op sequence both backends
/// perform — i32→f32 convert, scale, offset, optional ReLU, round ties
/// to even, zero-point shift, clamp to the `[0, 127]` code range.
#[inline]
fn requant_one(a: i32, zc: i32, s: f32, b: f32, fuse_relu: bool, zp_out: f32) -> u8 {
    let mut v = (a - zc) as f32 * s + b;
    if fuse_relu {
        v = v.max(0.0);
    }
    (v.round_ties_even() + zp_out).clamp(0.0, 127.0) as u8
}

/// Fused requantization of a `[rows, out]` i32 accumulator plane into u8
/// activation codes: per column `j`,
/// `code = clamp(round((acc − zp_corr[j])·s_out[j] + b_out[j]) + zp_out)`,
/// with an optional fused ReLU before rounding.
///
/// # Determinism contract
///
/// `"bitwise"`: the pipeline is elementwise over IEEE f32 ops performed
/// in the same order on both backends (no FMA contraction, ties-to-even
/// rounding), so lane width cannot change a single code.
///
/// # Panics
///
/// Panics (in debug builds) when the column arrays disagree in length or
/// the plane sizes are not `rows × zp_corr.len()`.
pub fn requant_rows_u8(
    acc: &[i32],
    zp_corr: &[i32],
    s_out: &[f32],
    b_out: &[f32],
    fuse_relu: bool,
    zp_out: f32,
    dst: &mut [u8],
) {
    let out = zp_corr.len();
    debug_assert_eq!(s_out.len(), out);
    debug_assert_eq!(b_out.len(), out);
    debug_assert_eq!(acc.len(), dst.len());
    debug_assert!(out == 0 || acc.len().is_multiple_of(out));
    match active() {
        KernelBackend::Scalar => {
            requant_rows_u8_scalar(acc, zp_corr, s_out, b_out, fuse_relu, zp_out, dst)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `matmul` — avx2 verified before dispatch.
        KernelBackend::Avx2 => unsafe {
            requant_rows_u8_avx2(acc, zp_corr, s_out, b_out, fuse_relu, zp_out, dst)
        },
        #[cfg(not(target_arch = "x86_64"))]
        KernelBackend::Avx2 => {
            requant_rows_u8_scalar(acc, zp_corr, s_out, b_out, fuse_relu, zp_out, dst)
        }
    }
}

fn requant_rows_u8_scalar(
    acc: &[i32],
    zp_corr: &[i32],
    s_out: &[f32],
    b_out: &[f32],
    fuse_relu: bool,
    zp_out: f32,
    dst: &mut [u8],
) {
    let out = zp_corr.len();
    if out == 0 {
        return;
    }
    for (acc_row, dst_row) in acc.chunks_exact(out).zip(dst.chunks_exact_mut(out)) {
        let lanes = dst_row.iter_mut().zip(acc_row).zip(zp_corr).zip(s_out).zip(b_out);
        for ((((d, &a), &zc), &s), &b) in lanes {
            *d = requant_one(a, zc, s, b, fuse_relu, zp_out);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requant_rows_u8_avx2(
    acc: &[i32],
    zp_corr: &[i32],
    s_out: &[f32],
    b_out: &[f32],
    fuse_relu: bool,
    zp_out: f32,
    dst: &mut [u8],
) {
    use std::arch::x86_64::*;
    let out = zp_corr.len();
    if out == 0 {
        return;
    }
    let rows = acc.len() / out;
    let out_main = out - out % 8;
    // SAFETY (whole function): row pointers index acc[..rows*out] and
    // dst[..rows*out]; vector loads/stores cover 8 elements at offsets
    // j <= out_main - 8; x86-64 is little-endian, so the packed low
    // 4-byte halves land in dst in column order.
    unsafe {
        let zero = _mm256_setzero_ps();
        let v127 = _mm256_set1_ps(127.0);
        let vzp = _mm256_set1_ps(zp_out);
        for r in 0..rows {
            let acc_row = acc.as_ptr().add(r * out);
            let dst_row = dst.as_mut_ptr().add(r * out);
            let mut j = 0;
            while j < out_main {
                let va = _mm256_loadu_si256(acc_row.add(j) as *const __m256i);
                let vzc = _mm256_loadu_si256(zp_corr.as_ptr().add(j) as *const __m256i);
                let f = _mm256_cvtepi32_ps(_mm256_sub_epi32(va, vzc));
                let vs = _mm256_loadu_ps(s_out.as_ptr().add(j));
                let vb = _mm256_loadu_ps(b_out.as_ptr().add(j));
                // mul then add (not fmadd): the scalar path rounds twice
                let mut v = _mm256_add_ps(_mm256_mul_ps(f, vs), vb);
                if fuse_relu {
                    v = _mm256_max_ps(v, zero);
                }
                v = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v);
                v = _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(v, vzp), zero), v127);
                let q = _mm256_cvtps_epi32(v);
                // pack 8 i32 codes (0..=127) into 8 bytes
                let p16 = _mm256_packs_epi32(q, q);
                let p8 = _mm256_packus_epi16(p16, p16);
                let lo = _mm_cvtsi128_si32(_mm256_castsi256_si128(p8)) as u32;
                let hi = _mm_cvtsi128_si32(_mm256_extracti128_si256(p8, 1)) as u32;
                (dst_row.add(j) as *mut u32).write_unaligned(lo);
                (dst_row.add(j + 4) as *mut u32).write_unaligned(hi);
                j += 8;
            }
            for j in out_main..out {
                *dst_row.add(j) =
                    requant_one(*acc_row.add(j), zp_corr[j], s_out[j], b_out[j], fuse_relu, zp_out);
            }
        }
    }
}

/// Quantizes a contiguous f32 slice to `[0, 127]` u8 codes:
/// `code = clamp(round(v·inv_scale) + zero_point)`, rounding ties to
/// even.
///
/// # Determinism contract
///
/// `"bitwise"`: elementwise IEEE f32 ops in the same order on both
/// backends.
///
/// # Panics
///
/// Panics (in debug builds) when the slices disagree in length.
pub fn quantize_f32_u8(src: &[f32], inv_scale: f32, zero_point: f32, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    match active() {
        KernelBackend::Scalar => quantize_f32_u8_scalar(src, inv_scale, zero_point, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `matmul` — avx2 verified before dispatch.
        KernelBackend::Avx2 => unsafe { quantize_f32_u8_avx2(src, inv_scale, zero_point, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelBackend::Avx2 => quantize_f32_u8_scalar(src, inv_scale, zero_point, dst),
    }
}

#[inline]
fn quantize_one(v: f32, inv_scale: f32, zero_point: f32) -> u8 {
    ((v * inv_scale).round_ties_even() + zero_point).clamp(0.0, 127.0) as u8
}

fn quantize_f32_u8_scalar(src: &[f32], inv_scale: f32, zero_point: f32, dst: &mut [u8]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = quantize_one(v, inv_scale, zero_point);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_f32_u8_avx2(src: &[f32], inv_scale: f32, zero_point: f32, dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let main = n - n % 8;
    // SAFETY (whole function): vector loads/stores cover 8 elements at
    // offsets j <= main - 8 within src/dst of equal length n; x86-64 is
    // little-endian for the packed 4-byte halves.
    unsafe {
        let zero = _mm256_setzero_ps();
        let v127 = _mm256_set1_ps(127.0);
        let vinv = _mm256_set1_ps(inv_scale);
        let vzp = _mm256_set1_ps(zero_point);
        let mut j = 0;
        while j < main {
            let v = _mm256_loadu_ps(src.as_ptr().add(j));
            let v = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                _mm256_mul_ps(v, vinv),
            );
            let v = _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(v, vzp), zero), v127);
            let q = _mm256_cvtps_epi32(v);
            let p16 = _mm256_packs_epi32(q, q);
            let p8 = _mm256_packus_epi16(p16, p16);
            let lo = _mm_cvtsi128_si32(_mm256_castsi256_si128(p8)) as u32;
            let hi = _mm_cvtsi128_si32(_mm256_extracti128_si256(p8, 1)) as u32;
            (dst.as_mut_ptr().add(j) as *mut u32).write_unaligned(lo);
            (dst.as_mut_ptr().add(j + 4) as *mut u32).write_unaligned(hi);
            j += 8;
        }
        for (j, &v) in src.iter().enumerate().skip(main) {
            *dst.get_unchecked_mut(j) = quantize_one(v, inv_scale, zero_point);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 7 + 3) as f32 * scale).sin()).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-5 * x.abs().max(1.0),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let before = active();
        with_backend(KernelBackend::Scalar, || {
            assert_eq!(active(), KernelBackend::Scalar);
            assert_eq!(dispatch_target(), "scalar");
        });
        assert_eq!(active(), before);
    }

    #[test]
    fn override_survives_panic() {
        let before = active();
        let caught = std::panic::catch_unwind(|| {
            with_backend(KernelBackend::Scalar, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active(), before, "override must unwind with the panic");
    }

    #[test]
    fn backends_agree_on_matmul_within_tolerance() {
        // deliberately awkward: k and n not multiples of 8
        let (m, k, n) = (5, 13, 21);
        let a = wavy(m * k, 0.137);
        let b = wavy(k * n, 0.219);
        let mut scalar = vec![0.0; m * n];
        let mut simd = vec![0.0; m * n];
        with_backend(KernelBackend::Scalar, || {
            matmul(&a, m, k, &b, n, &mut scalar)
        });
        with_backend(detected(), || matmul(&a, m, k, &b, n, &mut simd));
        assert_close(&scalar, &simd, "matmul");
    }

    #[test]
    fn backends_agree_on_matmul_nt_within_tolerance() {
        let (m, k, n) = (7, 19, 9);
        let a = wavy(m * k, 0.091);
        let b = wavy(n * k, 0.173);
        let mut scalar = vec![0.0; m * n];
        let mut simd = vec![0.0; m * n];
        with_backend(KernelBackend::Scalar, || {
            matmul_nt(&a, m, k, &b, n, &mut scalar)
        });
        with_backend(detected(), || matmul_nt(&a, m, k, &b, n, &mut simd));
        assert_close(&scalar, &simd, "matmul_nt");
    }

    #[test]
    fn zero_dimensions_are_safe() {
        let mut out = vec![0.0f32; 0];
        matmul(&[], 0, 3, &[0.0; 9], 3, &mut out);
        matmul_nt(&[], 0, 4, &[0.0; 8], 2, &mut out);
        let mut out1 = vec![7.0f32; 2];
        // k = 0: every element is an empty sum
        matmul_nt(&[], 1, 0, &[], 2, &mut out1);
        assert_eq!(out1, [0.0, 0.0]);
    }

    #[test]
    fn nan_propagation_matches_scalar() {
        let (m, k, n) = (2, 9, 5);
        let mut a = wavy(m * k, 0.2);
        a[3] = f32::NAN;
        let b = wavy(k * n, 0.3);
        let mut scalar = vec![0.0; m * n];
        let mut simd = vec![0.0; m * n];
        with_backend(KernelBackend::Scalar, || {
            matmul(&a, m, k, &b, n, &mut scalar)
        });
        with_backend(detected(), || matmul(&a, m, k, &b, n, &mut simd));
        for (s, v) in scalar.iter().zip(&simd) {
            assert_eq!(s.is_nan(), v.is_nan(), "NaN pattern must match");
        }
    }

    #[test]
    fn kernel_mode_table_is_complete() {
        let modes = kernel_modes();
        assert_eq!(modes.len(), 7);
        for (kernel, mode) in modes {
            assert!(
                *mode == "bitwise" || *mode == "ulp",
                "{kernel}: unknown mode {mode}"
            );
        }
    }

    fn quant_inputs(m: usize, k: usize, n: usize) -> (Vec<u8>, Vec<i8>) {
        let a: Vec<u8> = (0..m * k).map(|i| ((i * 37 + 11) % 128) as u8).collect();
        let b: Vec<i8> = (0..n * k)
            .map(|i| (((i * 53 + 7) % 255) as i32 - 127) as i8)
            .collect();
        (a, b)
    }

    #[test]
    fn int8_backends_agree_bitwise() {
        // awkward shapes: k not a multiple of 32, n not a multiple of 4
        for (m, k, n) in [(1, 27, 8), (5, 72, 16), (3, 160, 21), (8, 512, 128), (2, 33, 5)] {
            let (a, b) = quant_inputs(m, k, n);
            let mut scalar = vec![0i32; m * n];
            let mut simd = vec![0i32; m * n];
            with_backend(KernelBackend::Scalar, || {
                gemm_nt_i8(&a, m, k, &b, n, &mut scalar)
            });
            with_backend(detected(), || gemm_nt_i8(&a, m, k, &b, n, &mut simd));
            assert_eq!(scalar, simd, "gemm_nt_i8 {m}x{k}x{n} diverged");
        }
    }

    #[test]
    fn requant_backends_agree_bitwise() {
        // column counts on and off the 8-lane grid, both relu/zp variants
        for (rows, out) in [(7usize, 8usize), (5, 16), (3, 21), (2, 3), (4, 32)] {
            let acc: Vec<i32> = (0..rows * out)
                .map(|i| (i as i32 * 917) % 20001 - 10000)
                .collect();
            let zp_corr: Vec<i32> = (0..out).map(|i| (i as i32 * 13) - 40).collect();
            let s_out: Vec<f32> = (0..out).map(|i| 0.0003 + i as f32 * 1.7e-5).collect();
            let b_out: Vec<f32> = (0..out).map(|i| (i as f32 - 4.0) * 0.02).collect();
            for fuse_relu in [false, true] {
                for zp_out in [0.0f32, 64.0] {
                    let mut scalar = vec![0u8; rows * out];
                    let mut simd = vec![0u8; rows * out];
                    with_backend(KernelBackend::Scalar, || {
                        requant_rows_u8(&acc, &zp_corr, &s_out, &b_out, fuse_relu, zp_out, &mut scalar)
                    });
                    with_backend(detected(), || {
                        requant_rows_u8(&acc, &zp_corr, &s_out, &b_out, fuse_relu, zp_out, &mut simd)
                    });
                    assert_eq!(scalar, simd, "requant {rows}x{out} relu={fuse_relu} diverged");
                }
            }
        }
    }

    #[test]
    fn quantize_backends_agree_bitwise() {
        let src: Vec<f32> = (0..1003)
            .map(|i| ((i * 7 + 3) as f32 * 0.037).sin() * 3.0)
            .collect();
        for (inv, zp) in [(127.0f32 / 3.0, 0.0f32), (63.0 / 3.0, 64.0)] {
            let mut scalar = vec![0u8; src.len()];
            let mut simd = vec![0u8; src.len()];
            with_backend(KernelBackend::Scalar, || {
                quantize_f32_u8(&src, inv, zp, &mut scalar)
            });
            with_backend(detected(), || quantize_f32_u8(&src, inv, zp, &mut simd));
            assert_eq!(scalar, simd, "quantize zp={zp} diverged");
            // every code stays in range and saturates sanely
            assert!(scalar.iter().all(|&c| c <= 127));
        }
    }

    #[test]
    fn int8_matches_exact_reference() {
        let (m, k, n) = (3, 40, 6);
        let (a, b) = quant_inputs(m, k, n);
        let mut out = vec![0i32; m * n];
        gemm_nt_i8(&a, m, k, &b, n, &mut out);
        for i in 0..m {
            for j in 0..n {
                let exact: i64 = (0..k)
                    .map(|kk| i64::from(a[i * k + kk]) * i64::from(b[j * k + kk]))
                    .sum();
                assert_eq!(i64::from(out[i * n + j]), exact, "element ({i},{j})");
            }
        }
    }

    #[test]
    fn int8_zero_dimensions_are_safe() {
        let mut out = vec![0i32; 0];
        gemm_nt_i8(&[], 0, 3, &[0i8; 9], 3, &mut out);
        let mut out1 = vec![7i32; 2];
        // k = 0: every element is an empty sum
        gemm_nt_i8(&[], 1, 0, &[], 2, &mut out1);
        assert_eq!(out1, [0, 0]);
    }

    #[test]
    fn int8_saturating_extremes_stay_exact() {
        // the worst legal pair: a = 127 everywhere against ±127 weights
        let (m, k, n) = (2, 64, 3);
        let a = vec![127u8; m * k];
        let b: Vec<i8> = (0..n * k).map(|i| if i % 2 == 0 { 127 } else { -127 }).collect();
        let mut scalar = vec![0i32; m * n];
        let mut simd = vec![0i32; m * n];
        with_backend(KernelBackend::Scalar, || {
            gemm_nt_i8(&a, m, k, &b, n, &mut scalar)
        });
        with_backend(detected(), || gemm_nt_i8(&a, m, k, &b, n, &mut simd));
        assert_eq!(scalar, simd);
    }
}
