//! Fused, allocation-free compute kernels and the scratch arena behind
//! them.
//!
//! The software engines used to lean on `ops::matmul`'s naive triple
//! loop and on per-vertex `Vec` allocations. This module supplies the
//! replacements:
//!
//! * [`gemm_into`] — a tiled (blocked over `k` and `n`), branch-free
//!   GEMM writing into a caller-provided buffer, with an AVX2+FMA
//!   microkernel behind a runtime dispatch. Each output element
//!   accumulates its `k` products in ascending order, exactly like the
//!   naive loop; on FMA hardware every multiply-add rounds once instead
//!   of twice, which moves low-order bits relative to the scalar loop
//!   but is deterministic — and because every matrix/row product in the
//!   workspace routes through this one kernel, all paths that compute
//!   the same mathematical row produce the same bits.
//! * [`rowmat_into`] — the single-row version of [`gemm_into`], sharing
//!   its row kernel verbatim: recomputing one row of a cached `X·W`
//!   product through it is bit-identical to the full GEMM.
//! * [`Scratch`] / [`ScratchBuf`] — named, growable workspaces the
//!   engines reuse across snapshots and layers so the steady-state
//!   per-snapshot loop performs no heap allocation. Each buffer counts
//!   its growth events; [`Scratch::mark_steady`] plus
//!   [`Scratch::debug_assert_steady`] turn that counter into a debug
//!   assertion that the warm-up really did reserve everything.
//!
//! * [`axpy_into`], [`lstm_gates`], [`gru_gates`] — the element-wise
//!   hot loops behind GCN aggregation and the RNN gate non-linearities,
//!   with the same runtime AVX2+FMA dispatch as the GEMM kernel. The
//!   gate kernels replace the scalar libm `exp` with an eight-lane
//!   polynomial one; every path that steps a cell shares them, so the
//!   engines remain mutually bit-identical per machine.
//!
//! None of these kernels touch the simulator's accounting: they change
//! *how* values are computed, never what the engines count.

use crate::activation::sigmoid;
use rayon::prelude::*;

/// `k`-dimension block size of [`gemm_into`]. One block of a B panel
/// (`KC × n` for the dimensions the engines use) stays L1/L2-resident
/// while every output row streams over it.
pub const GEMM_KC: usize = 64;

/// `n`-dimension block size of [`gemm_into`]. Output tiles wider than
/// this are processed in slices so the accumulator row stays hot.
pub const GEMM_NC: usize = 512;

/// Branch-free tiled GEMM: `out = A·B` for row-major `A` (`m×k`),
/// `B` (`k×n`), `out` (`m×n`), parallel over rows of `A`.
///
/// Every `out[i, j]` accumulates its `k` products in ascending-`k`
/// order — the same order as the naive triple loop — fused to one
/// rounding per multiply-add on FMA hardware (see `gemm_row` for the
/// exactness contract). Unlike [`crate::ops::matmul_sparse_lhs`] there
/// is no per-element zero test: the dense path pays for multiplies, not
/// branches.
///
/// # Panics
/// Panics if a slice length disagrees with its shape.
pub fn gemm_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm lhs shape mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs shape mismatch");
    assert_eq!(out.len(), m * n, "gemm out shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    out.par_chunks_exact_mut(n)
        .enumerate()
        .for_each(|(i, out_row)| {
            gemm_row(k, n, &a[i * k..(i + 1) * k], b, out_row);
        });
}

/// Row-sparse SpMM: `out = A·B` where only the rows of `A` listed in
/// `rows` (sorted ascending, deduplicated) carry nonzeros. Listed rows
/// are computed through `gemm_row` — the *same* row kernel as
/// [`gemm_into`], verbatim — and every unlisted row of `out` is written
/// as `+0.0`.
///
/// # Bit-identity contract
/// When every unlisted row of `A` is actually all-zero, this is
/// bit-identical to [`gemm_into`] over the same inputs: listed rows
/// share the row kernel, and an all-zero LHS row through `gemm_row`
/// produces exact `+0.0` outputs for finite `B` (`fma(+0·b, acc)`
/// starting from `acc = +0.0` stays `+0.0` under round-to-nearest),
/// which is what the skip path writes. Sparsity is deliberately
/// row-granular — skipping *elements* inside a row would change the
/// accumulation order and break the contract. The dispatch layer
/// (`crate::dispatch`) relies on this equivalence; the differential
/// suite pins it.
///
/// # Panics
/// Panics if a slice length disagrees with its shape or a row index is
/// out of range. Debug builds additionally assert `rows` is sorted.
pub fn spmm_csr_into(
    m: usize,
    k: usize,
    n: usize,
    rows: &[u32],
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "spmm lhs shape mismatch");
    assert_eq!(b.len(), k * n, "spmm rhs shape mismatch");
    assert_eq!(out.len(), m * n, "spmm out shape mismatch");
    assert!(
        rows.iter().all(|&r| (r as usize) < m),
        "spmm row index out of range"
    );
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "spmm rows not sorted");
    if m == 0 || n == 0 {
        return;
    }
    out.par_chunks_exact_mut(n)
        .enumerate()
        .for_each(|(i, out_row)| {
            // O(log nnz_rows) membership test per row — noise next to
            // the k·n row product, and it keeps the parallel structure
            // identical to gemm_into's (one task per output row).
            if rows.binary_search(&(i as u32)).is_ok() {
                gemm_row(k, n, &a[i * k..(i + 1) * k], b, out_row);
            } else {
                out_row.fill(0.0);
            }
        });
}

/// Branch-free row kernel: `y = x·B` for `x` of length `k` and `B`
/// (`k×n`). Shares [`gemm_into`]'s row kernel verbatim, so a row
/// recomputed here is bit-identical to the same row of a full GEMM over
/// the same inputs.
///
/// # Panics
/// Panics if a slice length disagrees with its shape.
pub fn rowmat_into(x: &[f32], b: &[f32], n: usize, y: &mut [f32]) {
    assert_eq!(b.len(), x.len() * n, "rowmat rhs shape mismatch");
    assert_eq!(y.len(), n, "rowmat out shape mismatch");
    gemm_row(x.len(), n, x, b, y);
}

/// Shared row body of [`gemm_into`] / [`rowmat_into`]: dispatches to an
/// AVX2+FMA microkernel when the CPU supports it, otherwise to the
/// scalar blocked loop.
///
/// Both paths accumulate each output element in ascending-`k` order.
/// The FMA path fuses each multiply-add into a single rounding, so its
/// low-order bits differ from the scalar path's — but the dispatch is a
/// pure function of the CPU, so on any one machine *every* row product
/// in the workspace (full GEMMs, single-row recomputes, the per-vertex
/// fallbacks in `ops::vecmat`) goes through the same kernel and stays
/// mutually bit-identical.
#[inline]
fn gemm_row(k: usize, n: usize, a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: guarded by runtime AVX2 + FMA detection.
        unsafe { gemm_row_fma(k, n, a_row, b, out_row) };
        return;
    }
    gemm_row_generic(k, n, a_row, b, out_row);
}

/// AVX2+FMA row microkernel. Columns are processed in panels of four
/// 8-lane accumulators — enough independent FMA chains to hide the
/// instruction latency at the column counts the engines use — then two,
/// one, and a scalar tail (`f32::mul_add`, the same fused rounding).
/// Within each accumulator the `k` loop is a plain chain, keeping the
/// per-element accumulation order ascending-`k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_row_fma(k: usize, n: usize, a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a_row.len(), k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out_row.len(), n);
    out_row.fill(0.0);
    let a = a_row.as_ptr();
    let bp = b.as_ptr();
    let op = out_row.as_mut_ptr();
    unsafe {
        let mut kb = 0;
        while kb < k {
            let ke = (kb + GEMM_KC).min(k);
            let mut j = 0;
            while j + 32 <= n {
                let mut c0 = _mm256_loadu_ps(op.add(j));
                let mut c1 = _mm256_loadu_ps(op.add(j + 8));
                let mut c2 = _mm256_loadu_ps(op.add(j + 16));
                let mut c3 = _mm256_loadu_ps(op.add(j + 24));
                for l in kb..ke {
                    let av = _mm256_set1_ps(*a.add(l));
                    let row = bp.add(l * n + j);
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row), c0);
                    c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(8)), c1);
                    c2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(16)), c2);
                    c3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(24)), c3);
                }
                _mm256_storeu_ps(op.add(j), c0);
                _mm256_storeu_ps(op.add(j + 8), c1);
                _mm256_storeu_ps(op.add(j + 16), c2);
                _mm256_storeu_ps(op.add(j + 24), c3);
                j += 32;
            }
            while j + 16 <= n {
                let mut c0 = _mm256_loadu_ps(op.add(j));
                let mut c1 = _mm256_loadu_ps(op.add(j + 8));
                for l in kb..ke {
                    let av = _mm256_set1_ps(*a.add(l));
                    let row = bp.add(l * n + j);
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row), c0);
                    c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(8)), c1);
                }
                _mm256_storeu_ps(op.add(j), c0);
                _mm256_storeu_ps(op.add(j + 8), c1);
                j += 16;
            }
            while j + 8 <= n {
                let mut c0 = _mm256_loadu_ps(op.add(j));
                for l in kb..ke {
                    let av = _mm256_set1_ps(*a.add(l));
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(l * n + j)), c0);
                }
                _mm256_storeu_ps(op.add(j), c0);
                j += 8;
            }
            while j < n {
                let mut o = *op.add(j);
                for l in kb..ke {
                    o = f32::mul_add(*a.add(l), *bp.add(l * n + j), o);
                }
                *op.add(j) = o;
                j += 1;
            }
            kb = ke;
        }
    }
}

/// Blocked over `k` (panels of [`GEMM_KC`]) and `n` (slices of
/// [`GEMM_NC`]), 4-way unrolled over `k` with a single chained
/// accumulator expression so the rounding sequence per element stays
/// ascending-`k`.
#[inline(always)]
fn gemm_row_generic(k: usize, n: usize, a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    out_row.fill(0.0);
    let mut kb = 0;
    while kb < k {
        let ke = (kb + GEMM_KC).min(k);
        let mut nb = 0;
        while nb < n {
            let ne = (nb + GEMM_NC).min(n);
            let width = ne - nb;
            let out_slice = &mut out_row[nb..ne];
            let mut l = kb;
            while l + 4 <= ke {
                let (a0, a1, a2, a3) = (a_row[l], a_row[l + 1], a_row[l + 2], a_row[l + 3]);
                let b0 = &b[l * n + nb..][..width];
                let b1 = &b[(l + 1) * n + nb..][..width];
                let b2 = &b[(l + 2) * n + nb..][..width];
                let b3 = &b[(l + 3) * n + nb..][..width];
                for (j, o) in out_slice.iter_mut().enumerate() {
                    // Chained adds keep the ascending-k rounding order.
                    *o = (((*o + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
                }
                l += 4;
            }
            while l < ke {
                let al = a_row[l];
                let brow = &b[l * n + nb..][..width];
                for (o, &bv) in out_slice.iter_mut().zip(brow) {
                    *o += al * bv;
                }
                l += 1;
            }
            nb = ne;
        }
        kb = ke;
    }
}

/// `out[j] += s · x[j]` with the same dispatch policy as `gemm_row`:
/// an AVX2+FMA path (one rounding per element) when the CPU has it, a
/// scalar loop otherwise. Every axpy in the workspace — the GCN
/// aggregation above all — routes through here, so per-vertex and
/// batched aggregation stay mutually bit-identical.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn axpy_into(out: &mut [f32], s: f32, x: &[f32]) {
    assert_eq!(out.len(), x.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: guarded by runtime AVX2 + FMA detection.
        unsafe { axpy_fma(out, s, x) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x) {
        *o += s * v;
    }
}

/// AVX2+FMA body of [`axpy_into`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_fma(out: &mut [f32], s: f32, x: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let op = out.as_mut_ptr();
    let xp = x.as_ptr();
    unsafe {
        let sv = _mm256_set1_ps(s);
        let mut j = 0;
        while j + 8 <= n {
            let o = _mm256_loadu_ps(op.add(j));
            _mm256_storeu_ps(
                op.add(j),
                _mm256_fmadd_ps(sv, _mm256_loadu_ps(xp.add(j)), o),
            );
            j += 8;
        }
        while j < n {
            *op.add(j) = f32::mul_add(s, *xp.add(j), *op.add(j));
            j += 1;
        }
    }
}

/// LSTM gate arithmetic for one vertex with gate layout `[i, f, g, o]`:
/// `x_pre`, `h_pre` and `bias` are `4·n` long, `h` and `c` are `n` long
/// and updated in place. On AVX2+FMA hardware the sigmoids and tanhs run
/// through a polynomial `exp` (`exp_ps`, ≈ 1 ulp); elsewhere the
/// scalar libm loop runs. The dispatch is a pure function of the CPU —
/// every RNN path (per-vertex `step`, the batched engines, the
/// delta-patched `step_cached`) funnels through this one kernel, so all
/// of them stay mutually bit-identical on any one machine.
///
/// # Panics
/// Panics on slice length mismatch.
#[inline]
pub fn lstm_gates(
    n: usize,
    x_pre: &[f32],
    h_pre: &[f32],
    bias: &[f32],
    h: &mut [f32],
    c: &mut [f32],
) {
    assert_eq!(x_pre.len(), 4 * n, "lstm x_pre length mismatch");
    assert_eq!(h_pre.len(), 4 * n, "lstm h_pre length mismatch");
    assert_eq!(bias.len(), 4 * n, "lstm bias length mismatch");
    assert_eq!(h.len(), n, "lstm h length mismatch");
    assert_eq!(c.len(), n, "lstm c length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: guarded by runtime AVX2 + FMA detection; lengths
        // asserted above.
        unsafe { lstm_gates_fma(n, x_pre, h_pre, bias, h, c) };
        return;
    }
    lstm_gates_scalar(0, n, x_pre, h_pre, bias, h, c);
}

/// GRU gate arithmetic for one vertex with gate layout `[r, z, n]`:
/// `x_pre`, `h_pre` and `bias` are `3·n` long, `h` is `n` long and
/// updated in place (the reset gate scales only the hidden contribution
/// of the candidate). Same dispatch contract as [`lstm_gates`].
///
/// # Panics
/// Panics on slice length mismatch.
#[inline]
pub fn gru_gates(n: usize, x_pre: &[f32], h_pre: &[f32], bias: &[f32], h: &mut [f32]) {
    assert_eq!(x_pre.len(), 3 * n, "gru x_pre length mismatch");
    assert_eq!(h_pre.len(), 3 * n, "gru h_pre length mismatch");
    assert_eq!(bias.len(), 3 * n, "gru bias length mismatch");
    assert_eq!(h.len(), n, "gru h length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: guarded by runtime AVX2 + FMA detection; lengths
        // asserted above.
        unsafe { gru_gates_fma(n, x_pre, h_pre, bias, h) };
        return;
    }
    gru_gates_scalar(0, n, x_pre, h_pre, bias, h);
}

/// Scalar LSTM gate loop over elements `start..n` — the non-x86
/// fallback and the tail of the vectorized path.
fn lstm_gates_scalar(
    start: usize,
    n: usize,
    x_pre: &[f32],
    h_pre: &[f32],
    bias: &[f32],
    h: &mut [f32],
    c: &mut [f32],
) {
    for j in start..n {
        let i = sigmoid(x_pre[j] + h_pre[j] + bias[j]);
        let f = sigmoid(x_pre[n + j] + h_pre[n + j] + bias[n + j]);
        let g = (x_pre[2 * n + j] + h_pre[2 * n + j] + bias[2 * n + j]).tanh();
        let o = sigmoid(x_pre[3 * n + j] + h_pre[3 * n + j] + bias[3 * n + j]);
        c[j] = f * c[j] + i * g;
        h[j] = o * c[j].tanh();
    }
}

/// Scalar GRU gate loop over elements `start..n` — the non-x86 fallback
/// and the tail of the vectorized path.
fn gru_gates_scalar(
    start: usize,
    n: usize,
    x_pre: &[f32],
    h_pre: &[f32],
    bias: &[f32],
    h: &mut [f32],
) {
    for j in start..n {
        let r = sigmoid(x_pre[j] + h_pre[j] + bias[j]);
        let z = sigmoid(x_pre[n + j] + h_pre[n + j] + bias[n + j]);
        let cand = (x_pre[2 * n + j] + r * h_pre[2 * n + j] + bias[2 * n + j]).tanh();
        h[j] = (1.0 - z) * cand + z * h[j];
    }
}

/// Eight-lane polynomial `exp` (Cephes-style): clamps to the range where
/// the exponent reconstruction stays finite, splits `x = m·ln2 + r` with
/// a two-constant Cody–Waite reduction, evaluates a degree-5 minimax
/// polynomial for `exp(r)` on `[-ln2/2, ln2/2]`, and rebuilds `2^m`
/// through the exponent bits. Relative error is ≈ 1 ulp over the
/// clamped range — far below the 1e-5 tolerance the gate tests hold the
/// whole pipeline to.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    {
        // Clamp so m stays in [-126, 127]: both 2^m and the final
        // product remain finite (the low end lands in the subnormals).
        let x = _mm256_min_ps(x, _mm256_set1_ps(88.02));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-87.33));
        let m = _mm256_round_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        // r = x - m·ln2 in two parts so the subtraction is exact.
        let r = _mm256_fnmadd_ps(m, _mm256_set1_ps(0.693_359_4), x);
        let r = _mm256_fnmadd_ps(m, _mm256_set1_ps(-2.121_944_4e-4), r);
        let mut p = _mm256_set1_ps(1.987_569_1e-4);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.398_199_9e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.333_452e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.166_579_6e-2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.666_666_5e-1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(0.5));
        let r2 = _mm256_mul_ps(r, r);
        let y = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r), _mm256_set1_ps(1.0));
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(m),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2)
    }
}

/// Eight-lane logistic sigmoid `1 / (1 + exp(-x))` on top of `exp_ps`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sigmoid_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    unsafe {
        let one = _mm256_set1_ps(1.0);
        let e = exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }
}

/// Eight-lane `tanh(x) = (exp(2x) - 1) / (exp(2x) + 1)` on top of
/// `exp_ps`. The clamp inside `exp_ps` saturates the result cleanly to
/// ±1 for large |x|.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tanh_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    unsafe {
        let one = _mm256_set1_ps(1.0);
        let e = exp_ps(_mm256_add_ps(x, x));
        _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
    }
}

/// AVX2+FMA body of [`lstm_gates`]: eight gate elements per iteration,
/// scalar-loop tail for the remainder.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn lstm_gates_fma(
    n: usize,
    x_pre: &[f32],
    h_pre: &[f32],
    bias: &[f32],
    h: &mut [f32],
    c: &mut [f32],
) {
    use std::arch::x86_64::*;
    let xp = x_pre.as_ptr();
    let hp = h_pre.as_ptr();
    let bp = bias.as_ptr();
    let hm = h.as_mut_ptr();
    let cm = c.as_mut_ptr();
    let mut j = 0;
    unsafe {
        while j + 8 <= n {
            // gate g's pre-activation: x_pre + h_pre + bias at g·n + j.
            macro_rules! gate_pre {
                ($g:expr) => {{
                    let o = $g * n + j;
                    _mm256_add_ps(
                        _mm256_add_ps(_mm256_loadu_ps(xp.add(o)), _mm256_loadu_ps(hp.add(o))),
                        _mm256_loadu_ps(bp.add(o)),
                    )
                }};
            }
            let i = sigmoid_ps(gate_pre!(0));
            let f = sigmoid_ps(gate_pre!(1));
            let g = tanh_ps(gate_pre!(2));
            let o = sigmoid_ps(gate_pre!(3));
            let cv = _mm256_fmadd_ps(f, _mm256_loadu_ps(cm.add(j)), _mm256_mul_ps(i, g));
            _mm256_storeu_ps(cm.add(j), cv);
            _mm256_storeu_ps(hm.add(j), _mm256_mul_ps(o, tanh_ps(cv)));
            j += 8;
        }
    }
    lstm_gates_scalar(j, n, x_pre, h_pre, bias, h, c);
}

/// AVX2+FMA body of [`gru_gates`]: eight gate elements per iteration,
/// scalar-loop tail for the remainder.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gru_gates_fma(n: usize, x_pre: &[f32], h_pre: &[f32], bias: &[f32], h: &mut [f32]) {
    use std::arch::x86_64::*;
    let xp = x_pre.as_ptr();
    let hp = h_pre.as_ptr();
    let bp = bias.as_ptr();
    let hm = h.as_mut_ptr();
    let mut j = 0;
    unsafe {
        let one = _mm256_set1_ps(1.0);
        while j + 8 <= n {
            macro_rules! gate_pre {
                ($g:expr) => {{
                    let o = $g * n + j;
                    _mm256_add_ps(
                        _mm256_add_ps(_mm256_loadu_ps(xp.add(o)), _mm256_loadu_ps(hp.add(o))),
                        _mm256_loadu_ps(bp.add(o)),
                    )
                }};
            }
            let r = sigmoid_ps(gate_pre!(0));
            let z = sigmoid_ps(gate_pre!(1));
            let o2 = 2 * n + j;
            let cand = tanh_ps(_mm256_fmadd_ps(
                r,
                _mm256_loadu_ps(hp.add(o2)),
                _mm256_add_ps(_mm256_loadu_ps(xp.add(o2)), _mm256_loadu_ps(bp.add(o2))),
            ));
            let hv = _mm256_loadu_ps(hm.add(j));
            _mm256_storeu_ps(
                hm.add(j),
                _mm256_fmadd_ps(z, hv, _mm256_mul_ps(_mm256_sub_ps(one, z), cand)),
            );
            j += 8;
        }
    }
    gru_gates_scalar(j, n, x_pre, h_pre, bias, h);
}

/// One named scratch buffer: a growable flat allocation handed out as
/// exact-length slices. Growth is counted so callers can assert that a
/// warmed-up buffer never allocates again.
#[derive(Debug, Clone, Default)]
pub struct ScratchBuf<T> {
    data: Vec<T>,
    growth_events: u64,
}

impl<T: Copy + Default> ScratchBuf<T> {
    /// Hands out exactly `len` elements, all reset to `T::default()`.
    /// Grows (and counts a growth event) only when `len` exceeds the
    /// current capacity-in-use; shrinking never happens.
    pub fn take(&mut self, len: usize) -> &mut [T] {
        let s = self.take_uninit(len);
        s.fill(T::default());
        s
    }

    /// Hands out exactly `len` elements *without* clearing them — the
    /// contents are whatever a previous `take` left behind. Use when
    /// every element is overwritten before being read.
    pub fn take_uninit(&mut self, len: usize) -> &mut [T] {
        if self.data.len() < len {
            self.growth_events += 1;
            self.data.resize(len, T::default());
        }
        &mut self.data[..len]
    }

    /// Grows the buffer to at least `len` elements without handing out
    /// a slice — the warm-up primitive.
    pub fn reserve(&mut self, len: usize) {
        if self.data.len() < len {
            self.growth_events += 1;
            self.data.resize(len, T::default());
        }
    }

    /// How many times this buffer has grown since construction.
    pub fn growth_events(&self) -> u64 {
        self.growth_events
    }
}

/// The engines' scratch arena: every workspace the fused GNN forward,
/// the incremental window reuse, and the batched RNN step need, reused
/// across snapshots and layers.
///
/// Contract: an engine warms the arena once per run (reserving every
/// buffer at its maximum size), calls [`Scratch::mark_steady`], and
/// from then on the per-snapshot loop must not grow any buffer —
/// [`Scratch::debug_assert_steady`] enforces that in debug builds, and
/// the allocation-free integration test asserts it in release too.
/// Deliverables (the per-snapshot output matrices the caller keeps) and
/// the Delta cell path's condensed deltas are explicitly outside the
/// arena: they are either returned to the caller or data-dependent in
/// size.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Aggregation workspace (`n · in_dim`): `Â·X` rows for
    /// aggregate-first layers.
    pub agg: ScratchBuf<f32>,
    /// Transform workspace (`n · out_dim`): `X·W` rows for
    /// transform-first layers (the current snapshot's mixed-row table).
    pub xw: ScratchBuf<f32>,
    /// Layer ping-pong buffer A (`n · max_dim`).
    pub layer_a: ScratchBuf<f32>,
    /// Layer ping-pong buffer B (`n · max_dim`).
    pub layer_b: ScratchBuf<f32>,
    /// Per-vertex `(degree + 1) as f32` table for one snapshot.
    pub degp1: ScratchBuf<f32>,
    /// Gathered RNN inputs (`batch · in_dim`).
    pub x_batch: ScratchBuf<f32>,
    /// Gathered RNN hidden states (`batch · hidden`).
    pub h_batch: ScratchBuf<f32>,
    /// Batched input-side gate pre-activations (`batch · gates·hidden`).
    pub x_pre: ScratchBuf<f32>,
    /// Batched hidden-side gate pre-activations (`batch · gates·hidden`).
    pub h_pre: ScratchBuf<f32>,
    /// Vertex → batch-row map (`u32::MAX` = not in this batch).
    pub batch_pos: ScratchBuf<u32>,
    /// Per-vertex cell-mode outcome codes for one snapshot.
    pub cell_mode: ScratchBuf<u8>,
    /// Per-vertex condensed-delta sizes for one snapshot.
    pub cell_nnz: ScratchBuf<u32>,
    /// Per-vertex similarity-op charges for one snapshot.
    pub cell_sim: ScratchBuf<u64>,
    /// Change mask A (incremental reuse ping-pong).
    pub mask_a: ScratchBuf<bool>,
    /// Change mask B (incremental reuse ping-pong).
    pub mask_b: ScratchBuf<bool>,
    /// Layer-0 content-change mask.
    pub mask_changed0: ScratchBuf<bool>,
    /// Topology-change mask.
    pub mask_topo: ScratchBuf<bool>,
    /// Sorted nonzero-row index list for [`spmm_csr_into`] dispatch.
    pub nz_rows: ScratchBuf<u32>,
    steady_mark: u64,
}

impl Scratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total growth events across every buffer.
    pub fn growth_events(&self) -> u64 {
        self.agg.growth_events()
            + self.xw.growth_events()
            + self.layer_a.growth_events()
            + self.layer_b.growth_events()
            + self.degp1.growth_events()
            + self.x_batch.growth_events()
            + self.h_batch.growth_events()
            + self.x_pre.growth_events()
            + self.h_pre.growth_events()
            + self.batch_pos.growth_events()
            + self.cell_mode.growth_events()
            + self.cell_nnz.growth_events()
            + self.cell_sim.growth_events()
            + self.mask_a.growth_events()
            + self.mask_b.growth_events()
            + self.mask_changed0.growth_events()
            + self.mask_topo.growth_events()
            + self.nz_rows.growth_events()
    }

    /// Marks the end of warm-up: growth from here on is a contract
    /// violation.
    pub fn mark_steady(&mut self) {
        self.steady_mark = self.growth_events();
    }

    /// Growth events since the last [`Self::mark_steady`].
    pub fn steady_growth(&self) -> u64 {
        self.growth_events() - self.steady_mark
    }

    /// Debug-asserts that no buffer grew since [`Self::mark_steady`] —
    /// i.e. that the steady-state loop stayed allocation-free.
    pub fn debug_assert_steady(&self) {
        debug_assert_eq!(
            self.steady_growth(),
            0,
            "scratch arena grew inside the steady-state loop"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;
    use crate::{init, ops};

    fn naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = DenseMatrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += a.get(i, l) * b.get(l, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn gemm_matches_naive_on_random_inputs() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (17, 130, 33), (8, 64, 512)] {
            let a = init::xavier_uniform(m, k, 1);
            let b = init::xavier_uniform(k, n, 2);
            let mut out = vec![0.0f32; m * n];
            gemm_into(m, k, n, a.as_slice(), b.as_slice(), &mut out);
            let want = naive(&a, &b);
            for (x, y) in out.iter().zip(want.as_slice()) {
                assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_matches_the_zero_skipping_loop_closely() {
        // The legacy zero-skipping loop (`matmul_sparse_lhs`) performs
        // the same ascending-k accumulation but rounds every multiply
        // and add separately; the FMA path rounds each multiply-add
        // once. The two must agree to within a few ulps.
        let a = init::xavier_uniform(9, 37, 3);
        let b = init::xavier_uniform(37, 21, 4);
        let mut out = vec![0.0f32; 9 * 21];
        gemm_into(9, 37, 21, a.as_slice(), b.as_slice(), &mut out);
        for (x, y) in out.iter().zip(ops::matmul_sparse_lhs(&a, &b).as_slice()) {
            assert!((x - y).abs() <= 1e-5 * y.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_handles_empty_shapes() {
        let mut out = vec![];
        gemm_into(0, 3, 2, &[], &[0.0; 6], &mut out);
        gemm_into(2, 0, 0, &[], &[], &mut out);
        let mut out2 = vec![1.0f32; 4];
        // k == 0 leaves a zeroed product.
        gemm_into(2, 0, 2, &[], &[], &mut out2);
        assert_eq!(out2, vec![0.0; 4]);
    }

    #[test]
    fn rowmat_matches_gemm_row() {
        let a = init::xavier_uniform(5, 19, 7);
        let b = init::xavier_uniform(19, 11, 8);
        let mut full = vec![0.0f32; 5 * 11];
        gemm_into(5, 19, 11, a.as_slice(), b.as_slice(), &mut full);
        let mut row = vec![0.0f32; 11];
        for i in 0..5 {
            rowmat_into(a.row(i), b.as_slice(), 11, &mut row);
            assert_eq!(&full[i * 11..(i + 1) * 11], row.as_slice(), "row {i}");
        }
    }

    /// Deterministic pseudo-random gate inputs in a tame range.
    fn gate_inputs(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 2000) as f32 / 1000.0)
                    - 1.0
            })
            .collect()
    }

    #[test]
    fn lstm_gates_match_the_libm_formula() {
        // n = 11: on AVX2 machines one full vector of 8 plus a scalar
        // tail of 3, so both bodies are exercised. The polynomial exp
        // agrees with libm to well within 1e-5.
        let n = 11;
        let x_pre = gate_inputs(4 * n, 1);
        let h_pre = gate_inputs(4 * n, 2);
        let bias = gate_inputs(4 * n, 3);
        let mut h = gate_inputs(n, 4);
        let mut c = gate_inputs(n, 5);
        let (h0, c0) = (h.clone(), c.clone());
        lstm_gates(n, &x_pre, &h_pre, &bias, &mut h, &mut c);
        for j in 0..n {
            let i = sigmoid(x_pre[j] + h_pre[j] + bias[j]);
            let f = sigmoid(x_pre[n + j] + h_pre[n + j] + bias[n + j]);
            let g = (x_pre[2 * n + j] + h_pre[2 * n + j] + bias[2 * n + j]).tanh();
            let o = sigmoid(x_pre[3 * n + j] + h_pre[3 * n + j] + bias[3 * n + j]);
            let want_c = f * c0[j] + i * g;
            let want_h = o * want_c.tanh();
            assert!((c[j] - want_c).abs() < 1e-5, "c[{j}]: {} vs {want_c}", c[j]);
            assert!((h[j] - want_h).abs() < 1e-5, "h[{j}]: {} vs {want_h}", h[j]);
            assert!(h[j].abs() <= 1.0, "h = o·tanh(c) stays in [-1, 1]");
        }
        let _ = h0;
    }

    #[test]
    fn gru_gates_match_the_libm_formula() {
        let n = 11;
        let x_pre = gate_inputs(3 * n, 6);
        let h_pre = gate_inputs(3 * n, 7);
        let bias = gate_inputs(3 * n, 8);
        let mut h = gate_inputs(n, 9);
        let h0 = h.clone();
        gru_gates(n, &x_pre, &h_pre, &bias, &mut h);
        for j in 0..n {
            let r = sigmoid(x_pre[j] + h_pre[j] + bias[j]);
            let z = sigmoid(x_pre[n + j] + h_pre[n + j] + bias[n + j]);
            let cand = (x_pre[2 * n + j] + r * h_pre[2 * n + j] + bias[2 * n + j]).tanh();
            let want = (1.0 - z) * cand + z * h0[j];
            assert!((h[j] - want).abs() < 1e-5, "h[{j}]: {} vs {want}", h[j]);
        }
    }

    #[test]
    fn gates_saturate_cleanly_at_extreme_preactivations() {
        // ±30 drives every sigmoid to 0/1 and tanh to ±1; the clamped
        // polynomial exp must not overflow, NaN, or leave the range.
        let n = 8;
        let x_pre = vec![30.0f32; 4 * n];
        let h_pre = vec![-60.0f32; 4 * n];
        let bias = vec![0.0f32; 4 * n];
        let mut h = vec![0.5f32; n];
        let mut c = vec![0.5f32; n];
        lstm_gates(n, &x_pre, &h_pre, &bias, &mut h, &mut c);
        for j in 0..n {
            assert!(h[j].is_finite() && h[j].abs() <= 1.0, "h[{j}] = {}", h[j]);
            assert!(c[j].is_finite(), "c[{j}] = {}", c[j]);
        }
        let mut h = vec![0.5f32; n];
        gru_gates(
            n,
            &vec![30.0f32; 3 * n],
            &vec![30.0f32; 3 * n],
            &vec![0.0f32; 3 * n],
            &mut h,
        );
        for (j, &v) in h.iter().enumerate() {
            assert!(v.is_finite() && v.abs() <= 1.0, "gru h[{j}] = {v}");
        }
    }

    #[test]
    fn scratch_counts_growth_once_per_high_water_mark() {
        let mut s = ScratchBuf::<f32>::default();
        assert_eq!(s.growth_events(), 0);
        let _ = s.take(10);
        let _ = s.take(10);
        let _ = s.take(4);
        assert_eq!(s.growth_events(), 1, "within capacity is free");
        let _ = s.take(11);
        assert_eq!(s.growth_events(), 2);
    }

    #[test]
    fn scratch_take_zeroes_and_take_uninit_does_not() {
        let mut s = ScratchBuf::<f32>::default();
        s.take(3).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(s.take_uninit(3), &[1.0, 2.0, 3.0]);
        assert_eq!(s.take(3), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn steady_marking_tracks_late_growth() {
        let mut s = Scratch::new();
        s.agg.reserve(64);
        s.mask_a.reserve(8);
        s.mark_steady();
        let _ = s.agg.take_uninit(64);
        assert_eq!(s.steady_growth(), 0);
        s.debug_assert_steady();
        let _ = s.xw.take(1);
        assert_eq!(s.steady_growth(), 1);
    }
}
