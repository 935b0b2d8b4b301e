//! SIMD-friendly scalar kernels with a **fixed, ISA-independent reduction
//! order**.
//!
//! Every hot loop in this workspace bottoms out in one of four shapes: a
//! dot product, a rank-1 update (`axpy`), a two-operand scaled add, or a
//! small dense GEMM. The naive single-accumulator versions of the
//! reductions cannot be vectorized by the compiler — IEEE-754 addition is
//! not associative, so reordering a serial `acc += a*b` chain is illegal
//! without `fast-math` (which this workspace never enables, because
//! bit-reproducibility is a contract; see DESIGN.md §7/§9).
//!
//! The kernels here sidestep that by *defining* the summation order to be
//! the striped order a SIMD unit computes naturally: [`dot`] keeps 8
//! partial accumulators, lane `l` summing elements `l, l+8, l+16, …`, and
//! folds them in a fixed binary tree
//! `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))` followed by a sequential scalar
//! tail. Because that order is written out in plain scalar Rust, the result
//! is identical on every ISA and at every optimization level — the
//! autovectorizer merely recognizes that 8 independent lanes *are* a vector
//! loop and emits SIMD for it, with no semantic change.
//!
//! The GEMM microkernels use the other legal trick: vectorizing across
//! *independent outputs*. [`gemm`] and [`gemm_ta`] walk the reduction
//! dimension in 4×-unrolled blocks (`chunks_exact(4)` with a scalar tail),
//! evaluating `o + t0 + t1 + t2 + t3` left-to-right — exactly the order of
//! the textbook loop, so their outputs are **bit-identical to the naive
//! references** while touching each output row a quarter as often.
//! [`gemm_tb`] reduces along rows, so each output element is bit-identical
//! to one [`dot`] and inherits the 8-lane tree order (≠ naive order,
//! ≈ 1e-7 relative); it computes four such dots per pass over a row of `A`.
//!
//! On x86-64 the four matrix kernels ([`gemm`], [`gemm_ta`], [`gemm_tb`],
//! [`gemm_tb_acc`]) also exist as AVX2 builds of the same body, chosen per
//! call when the CPU has AVX2; wider vectors change no bit.
//!
//! Every kernel ships with a `*_ref` naive reference implementation that
//! serves as its semantic specification: the property tests in
//! `tests/kernel_proptests.rs` pin exact bit equality where the reduction
//! order is preserved (`axpy`, `scale_add`, `gemm`, `gemm_ta`, and
//! `gemm_tb`/`gemm_tb_acc` against a per-element [`dot`] loop) and 1e-5
//! relative agreement where it is not (`dot`, `sqdist`, `gemm_tb` against
//! [`gemm_tb_ref`]).

/// Number of independent partial accumulators in the reduction kernels.
/// 8 × f32 = one 256-bit vector register; on 128-bit ISAs the compiler
/// splits it into two lanes pairs with no semantic change.
pub const LANES: usize = 8;

/// Dot product with the fixed 8-lane striped reduction order.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f32; LANES];
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let tail_a = chunks_a.remainder();
    let tail_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in tail_a.iter().zip(tail_b) {
        sum += x * y;
    }
    sum
}

/// Naive sequential-order dot product (the pre-kernel behaviour; reference
/// for [`dot`], ~1e-7 relative apart from it).
#[inline]
pub fn dot_ref(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Squared Euclidean distance `Σ (a_i − b_i)²` with the same fixed 8-lane
/// reduction order as [`dot`].
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn sqdist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sqdist length mismatch");
    let mut acc = [0.0f32; LANES];
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let tail_a = chunks_a.remainder();
    let tail_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            acc[l] += d * d;
        }
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in tail_a.iter().zip(tail_b) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Naive sequential-order squared distance (reference for [`sqdist`]).
#[inline]
pub fn sqdist_ref(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sqdist length mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// `y ← y + a·x`, elementwise. Every output element is independent, so the
/// plain loop vectorizes as-is and the result is bit-identical to
/// [`axpy_ref`] by construction.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// Naive reference for [`axpy`] (identical semantics, kept as the spec).
#[inline]
pub fn axpy_ref(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// `out ← a·x + b·y`, elementwise (overwrites `out`). The two-operand
/// scaled add used by the loss gradients; independent lanes, bit-identical
/// to [`scale_add_ref`].
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn scale_add(out: &mut [f32], a: f32, x: &[f32], b: f32, y: &[f32]) {
    assert_eq!(out.len(), x.len(), "scale_add length mismatch");
    assert_eq!(out.len(), y.len(), "scale_add length mismatch");
    for ((o, &xv), &yv) in out.iter_mut().zip(x).zip(y) {
        *o = a * xv + b * yv;
    }
}

/// Naive reference for [`scale_add`] (identical semantics, kept as the
/// spec).
#[inline]
pub fn scale_add_ref(out: &mut [f32], a: f32, x: &[f32], b: f32, y: &[f32]) {
    assert_eq!(out.len(), x.len(), "scale_add length mismatch");
    assert_eq!(out.len(), y.len(), "scale_add length mismatch");
    for ((o, &xv), &yv) in out.iter_mut().zip(x).zip(y) {
        *o = a * xv + b * yv;
    }
}

/// `y ← s·y`, elementwise.
#[inline]
pub fn scale(y: &mut [f32], s: f32) {
    for v in y.iter_mut() {
        *v *= s;
    }
}

/// `out ← A·B` for row-major `A (n×k)`, `B (k×m)`, `out (n×m)`.
///
/// Register-blocked microkernel: the reduction dimension `k` is walked in
/// 4×-unrolled blocks (`chunks_exact(4)` over the `A` row, scalar tail),
/// each block updating the whole output row as
/// `o ← o + a₀·b₀ + a₁·b₁ + a₂·b₂ + a₃·b₃` evaluated left-to-right. That
/// is the exact accumulation order of the textbook `i,j,p` loop, so the
/// output is **bit-identical to [`gemm_ref`]** — the blocking only cuts
/// output-row load/store traffic by 4× and keeps the inner loop branch-free
/// so it vectorizes across `j`.
///
/// Note there is deliberately no `a == 0.0` skip: a branchy inner loop
/// defeats vectorization, and skipping would turn `0 × ∞` into a silent
/// no-op instead of the IEEE `NaN`.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), n * k, "gemm A shape mismatch");
    assert_eq!(b.len(), k * m, "gemm B shape mismatch");
    assert_eq!(out.len(), n * m, "gemm out shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` confirmed this CPU supports AVX2.
        return unsafe { avx2::gemm(a, b, out, n, k, m) };
    }
    gemm_body(a, b, out, n, k, m);
}

/// The one body of [`gemm`], compiled once plainly and once in
/// [`avx2::gemm`].
#[inline(always)]
fn gemm_body(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    out.fill(0.0);
    for i in 0..n {
        gemm_row(
            &a[i * k..(i + 1) * k],
            b,
            &mut out[i * m..(i + 1) * m],
            k,
            m,
        );
    }
}

/// One row of the [`gemm`] microkernel: `out_row ← out_row + a_row·B`.
#[inline(always)]
fn gemm_row(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, m: usize) {
    let mut quads = a_row.chunks_exact(4);
    let mut p = 0usize;
    for q in quads.by_ref() {
        let b0 = &b[p * m..(p + 1) * m];
        let b1 = &b[(p + 1) * m..(p + 2) * m];
        let b2 = &b[(p + 2) * m..(p + 3) * m];
        let b3 = &b[(p + 3) * m..(p + 4) * m];
        let (q0, q1, q2, q3) = (q[0], q[1], q[2], q[3]);
        for ((((o, &v0), &v1), &v2), &v3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o = *o + q0 * v0 + q1 * v1 + q2 * v2 + q3 * v3;
        }
        p += 4;
    }
    for (&av, pp) in quads.remainder().iter().zip(p..k) {
        let b_row = &b[pp * m..(pp + 1) * m];
        axpy(out_row, av, b_row);
    }
}

/// [`gemm`] over scattered `A` rows: `out[i] ← a_rows[i]·B` for row-major
/// `B (k×m)` and `out (n×m)`, where each `a_rows[i]` is its own length-`k`
/// slice. Bit-identical to packing the rows into one `n×k` matrix and
/// calling [`gemm`] — every output element accumulates in the same
/// left-to-right quad order — but skips the pack copy entirely, which
/// matters when the rows are gathered from a large embedding table (the
/// batched-eval hot path).
///
/// Rows are processed four at a time with the reduction step innermost
/// per row: the four rows' accumulation chains are independent, so the
/// core can overlap them and the narrow-`m` case (a handful of classes)
/// is no longer bound by the latency of one serial add chain. The
/// interleaving never reorders any single element's reduction.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn gemm_rows(a_rows: &[&[f32]], b: &[f32], out: &mut [f32], k: usize, m: usize) {
    assert!(
        a_rows.iter().all(|r| r.len() == k),
        "gemm_rows A shape mismatch"
    );
    assert_eq!(b.len(), k * m, "gemm B shape mismatch");
    assert_eq!(out.len(), a_rows.len() * m, "gemm out shape mismatch");
    // Narrow-B fast path (a handful of classes): monomorphized per width
    // so the whole output row is a register-resident stack array across
    // the entire `k` reduction — no per-step output loads/stores.
    match m {
        1 => return gemm_rows_narrow::<1>(a_rows, b, out, k),
        2 => return gemm_rows_narrow::<2>(a_rows, b, out, k),
        3 => return gemm_rows_narrow::<3>(a_rows, b, out, k),
        4 => return gemm_rows_narrow::<4>(a_rows, b, out, k),
        5 => return gemm_rows_narrow::<5>(a_rows, b, out, k),
        6 => return gemm_rows_narrow::<6>(a_rows, b, out, k),
        7 => return gemm_rows_narrow::<7>(a_rows, b, out, k),
        8 => return gemm_rows_narrow::<8>(a_rows, b, out, k),
        _ => {}
    }
    out.fill(0.0);
    let mut blocks = a_rows.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4 * m);
    for (rb, ob) in blocks.by_ref().zip(outs.by_ref()) {
        let mut p = 0usize;
        while p + 4 <= k {
            let b0 = &b[p * m..(p + 1) * m];
            let b1 = &b[(p + 1) * m..(p + 2) * m];
            let b2 = &b[(p + 2) * m..(p + 3) * m];
            let b3 = &b[(p + 3) * m..(p + 4) * m];
            for (a_row, out_row) in rb.iter().zip(ob.chunks_exact_mut(m)) {
                let (q0, q1, q2, q3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
                for ((((o, &v0), &v1), &v2), &v3) in
                    out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *o = *o + q0 * v0 + q1 * v1 + q2 * v2 + q3 * v3;
                }
            }
            p += 4;
        }
        for pp in p..k {
            let b_row = &b[pp * m..(pp + 1) * m];
            for (a_row, out_row) in rb.iter().zip(ob.chunks_exact_mut(m)) {
                axpy(out_row, a_row[pp], b_row);
            }
        }
    }
    for (a_row, out_row) in blocks
        .remainder()
        .iter()
        .zip(outs.into_remainder().chunks_exact_mut(m))
    {
        gemm_row(a_row, b, out_row, k, m);
    }
}

/// [`gemm_rows`] for compile-time width `M ≤ 8`: four rows per block,
/// each row's `M`-wide accumulator a fully-unrolled stack array, one
/// scalar reduction step per `k`. The per-element accumulation order is
/// the plain sequential `k` order — the same bits as [`gemm_ref`] and as
/// the quad loop in [`gemm`] (whose left-to-right quad sum is that same
/// order).
fn gemm_rows_narrow<const M: usize>(a_rows: &[&[f32]], b: &[f32], out: &mut [f32], k: usize) {
    debug_assert_eq!(b.len(), k * M);
    let mut blocks = a_rows.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4 * M);
    for (rb, ob) in blocks.by_ref().zip(outs.by_ref()) {
        let (r0, r1, r2, r3) = (rb[0], rb[1], rb[2], rb[3]);
        let mut acc = [[0.0f32; M]; 4];
        for (p, b_row) in b.chunks_exact(M).enumerate() {
            let b_row: &[f32; M] = b_row.try_into().unwrap();
            let av = [r0[p], r1[p], r2[p], r3[p]];
            for (acc_row, &a) in acc.iter_mut().zip(&av) {
                for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                    *o += a * bv;
                }
            }
        }
        for (acc_row, out_row) in acc.iter().zip(ob.chunks_exact_mut(M)) {
            out_row.copy_from_slice(acc_row);
        }
    }
    for (a_row, out_row) in blocks
        .remainder()
        .iter()
        .zip(outs.into_remainder().chunks_exact_mut(M))
    {
        let mut acc = [0.0f32; M];
        for (p, b_row) in b.chunks_exact(M).enumerate() {
            let av = a_row[p];
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        out_row.copy_from_slice(&acc);
    }
}

/// Textbook triple-loop reference for [`gemm`] (single sequential
/// accumulator per output element; identical bits, far worse locality).
pub fn gemm_ref(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), n * k, "gemm A shape mismatch");
    assert_eq!(b.len(), k * m, "gemm B shape mismatch");
    assert_eq!(out.len(), n * m, "gemm out shape mismatch");
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * m + j];
            }
            out[i * m + j] = acc;
        }
    }
}

/// `out ← A·Bᵀ` for row-major `A (n×d)`, `B (m×d)`, `out (n×m)`.
///
/// Both operands are reduced along contiguous rows, so every output element
/// is **bit-identical to one [`dot`]** of its two rows (≈1e-7 relative from
/// [`gemm_tb_ref`]'s sequential order). Each pass computes four outputs
/// against one shared row of `A`; the `m mod 4` outputs left over go
/// through [`dot`] itself.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn gemm_tb(a: &[f32], b: &[f32], out: &mut [f32], n: usize, d: usize, m: usize) {
    assert_eq!(a.len(), n * d, "gemm_tb A shape mismatch");
    assert_eq!(b.len(), m * d, "gemm_tb B shape mismatch");
    assert_eq!(out.len(), n * m, "gemm_tb out shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` confirmed this CPU supports AVX2.
        return unsafe { avx2::gemm_tb(a, b, out, n, d, m) };
    }
    gemm_tb_body::<false>(a, b, out, n, d, m);
}

/// `out ← out + A·Bᵀ`: accumulating variant of [`gemm_tb`]. Each element's
/// dot product is reduced in the same 8-lane order and added to `out`
/// exactly once, so `gemm_tb(tmp); out += tmp` and this call are
/// bit-identical — without the `tmp` buffer.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn gemm_tb_acc(a: &[f32], b: &[f32], out: &mut [f32], n: usize, d: usize, m: usize) {
    assert_eq!(a.len(), n * d, "gemm_tb A shape mismatch");
    assert_eq!(b.len(), m * d, "gemm_tb B shape mismatch");
    assert_eq!(out.len(), n * m, "gemm_tb out shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` confirmed this CPU supports AVX2.
        return unsafe { avx2::gemm_tb_acc(a, b, out, n, d, m) };
    }
    gemm_tb_body::<true>(a, b, out, n, d, m);
}

/// The one body of [`gemm_tb`] (`ACC = false`: `o ← dot`) and
/// [`gemm_tb_acc`] (`ACC = true`: `o ← o + dot`), compiled once plainly
/// and once in [`avx2`].
#[inline(always)]
fn gemm_tb_body<const ACC: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    d: usize,
    m: usize,
) {
    let quads = m / 4;
    for i in 0..n {
        let a_row = &a[i * d..(i + 1) * d];
        let out_row = &mut out[i * m..(i + 1) * m];
        let (out_quads, out_rest) = out_row.split_at_mut(4 * quads);
        for (q, o4) in out_quads.chunks_exact_mut(4).enumerate() {
            let j = 4 * q;
            let dots = dot4(
                a_row,
                [
                    &b[j * d..(j + 1) * d],
                    &b[(j + 1) * d..(j + 2) * d],
                    &b[(j + 2) * d..(j + 3) * d],
                    &b[(j + 3) * d..(j + 4) * d],
                ],
            );
            for (o, s) in o4.iter_mut().zip(dots) {
                *o = if ACC { *o + s } else { s };
            }
        }
        for (j, o) in (4 * quads..m).zip(out_rest) {
            let s = dot(a_row, &b[j * d..(j + 1) * d]);
            *o = if ACC { *o + s } else { s };
        }
    }
}

/// Four [`dot`]s of `a` against `b[0..4]` in one pass over `a`, each
/// bit-identical to `dot(a, b[r])`: the same 8 lanes over
/// `chunks_exact(8)`, the same fold tree ([`fold_lanes`]), then the same
/// sequential tail. Every `b[r]` must have `a`'s length.
#[inline(always)]
fn dot4(a: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
    let split = a.len() - a.len() % LANES;
    let [b0, b1, b2, b3] = b.map(|r| r.split_at(split));
    let mut acc = [[0.0f32; LANES]; 4];
    for ((((ca, c0), c1), c2), c3) in a[..split]
        .chunks_exact(LANES)
        .zip(b0.0.chunks_exact(LANES))
        .zip(b1.0.chunks_exact(LANES))
        .zip(b2.0.chunks_exact(LANES))
        .zip(b3.0.chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[0][l] += ca[l] * c0[l];
            acc[1][l] += ca[l] * c1[l];
            acc[2][l] += ca[l] * c2[l];
            acc[3][l] += ca[l] * c3[l];
        }
    }
    let mut sums = [0.0f32; 4];
    for ((s, lanes), tail) in sums.iter_mut().zip(&acc).zip([b0.1, b1.1, b2.1, b3.1]) {
        *s = fold_lanes(lanes);
        for (x, y) in a[split..].iter().zip(tail) {
            *s += x * y;
        }
    }
    sums
}

/// [`dot`]'s lane fold `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))`, kept out
/// of line: inlined, LLVM's SLP vectorizer regroups the lanes to fit this
/// tree on every loop iteration (a dozen shuffles per 8 elements) instead
/// of keeping each output's lanes in one vector register.
#[inline(never)]
fn fold_lanes(s: &[f32; LANES]) -> f32 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Sequential-order reference for [`gemm_tb`].
pub fn gemm_tb_ref(a: &[f32], b: &[f32], out: &mut [f32], n: usize, d: usize, m: usize) {
    assert_eq!(a.len(), n * d, "gemm_tb A shape mismatch");
    assert_eq!(b.len(), m * d, "gemm_tb B shape mismatch");
    assert_eq!(out.len(), n * m, "gemm_tb out shape mismatch");
    for i in 0..n {
        let a_row = &a[i * d..(i + 1) * d];
        let out_row = &mut out[i * m..(i + 1) * m];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = dot_ref(a_row, &b[j * d..(j + 1) * d]);
        }
    }
}

/// `out ← Aᵀ·B` for row-major `A (k×n)`, `B (k×m)`, `out (n×m)`.
///
/// Blocked like [`gemm`]: the shared leading dimension `k` is walked in
/// 4×-unrolled blocks with a scalar tail, accumulating
/// `o ← o + a₀ᵢ·b₀ + a₁ᵢ·b₁ + a₂ᵢ·b₂ + a₃ᵢ·b₃` left-to-right — the exact
/// order of the textbook loop, hence bit-identical to [`gemm_ta_ref`], and
/// branch-free (no zero-skip) so the inner loop vectorizes across `j`.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn gemm_ta(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, m: usize) {
    assert_eq!(a.len(), k * n, "gemm_ta A shape mismatch");
    assert_eq!(b.len(), k * m, "gemm_ta B shape mismatch");
    assert_eq!(out.len(), n * m, "gemm_ta out shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` confirmed this CPU supports AVX2.
        return unsafe { avx2::gemm_ta(a, b, out, k, n, m) };
    }
    gemm_ta_body(a, b, out, k, n, m);
}

/// The one body of [`gemm_ta`], compiled once plainly and once in
/// [`avx2::gemm_ta`].
#[inline(always)]
fn gemm_ta_body(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, m: usize) {
    out.fill(0.0);
    let mut p = 0usize;
    while p + 4 <= k {
        let a0 = &a[p * n..(p + 1) * n];
        let a1 = &a[(p + 1) * n..(p + 2) * n];
        let a2 = &a[(p + 2) * n..(p + 3) * n];
        let a3 = &a[(p + 3) * n..(p + 4) * n];
        let b0 = &b[p * m..(p + 1) * m];
        let b1 = &b[(p + 1) * m..(p + 2) * m];
        let b2 = &b[(p + 2) * m..(p + 3) * m];
        let b3 = &b[(p + 3) * m..(p + 4) * m];
        for i in 0..n {
            let (c0, c1, c2, c3) = (a0[i], a1[i], a2[i], a3[i]);
            let out_row = &mut out[i * m..(i + 1) * m];
            for ((((o, &v0), &v1), &v2), &v3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                *o = *o + c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3;
            }
        }
        p += 4;
    }
    while p < k {
        let a_row = &a[p * n..(p + 1) * n];
        let b_row = &b[p * m..(p + 1) * m];
        for (i, &av) in a_row.iter().enumerate() {
            axpy(&mut out[i * m..(i + 1) * m], av, b_row);
        }
        p += 1;
    }
}

/// Whether this CPU has AVX2, so the matrix kernels run their [`avx2`]
/// builds. `is_x86_feature_detected!` caches the answer after the first
/// call.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The four matrix kernels compiled a second time with 256-bit vectors.
///
/// Each function here is its kernel's `#[inline(always)]` body under
/// `#[target_feature(enable = "avx2")]`, so LLVM may hold 8 lanes in one
/// `ymm` register where the baseline x86-64 build splits them across two
/// 4-wide `xmm` registers. Enabling AVX2 only widens the vectors: Rust
/// never contracts a multiply and an add into an FMA, and the bodies fix
/// every reduction order in scalar code, so both builds return the same
/// bits (`avx2_builds_match_the_plain_bodies_bitwise`).
///
/// The public kernels call these only after [`has_avx2`] returned true.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    /// [`super::gemm`] with AVX2 enabled.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
        super::gemm_body(a, b, out, n, k, m);
    }

    /// [`super::gemm_ta`] with AVX2 enabled.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_ta(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
    ) {
        super::gemm_ta_body(a, b, out, k, n, m);
    }

    /// [`super::gemm_tb`] with AVX2 enabled.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tb(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        n: usize,
        d: usize,
        m: usize,
    ) {
        super::gemm_tb_body::<false>(a, b, out, n, d, m);
    }

    /// [`super::gemm_tb_acc`] with AVX2 enabled.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tb_acc(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        n: usize,
        d: usize,
        m: usize,
    ) {
        super::gemm_tb_body::<true>(a, b, out, n, d, m);
    }
}

/// Textbook reference for [`gemm_ta`] (identical bits).
pub fn gemm_ta_ref(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, m: usize) {
    assert_eq!(a.len(), k * n, "gemm_ta A shape mismatch");
    assert_eq!(b.len(), k * m, "gemm_ta B shape mismatch");
    assert_eq!(out.len(), n * m, "gemm_ta out shape mismatch");
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[p * n + i] * b[p * m + j];
            }
            out[i * m + j] = acc;
        }
    }
}

// ───────────────────── quantized serving kernels ─────────────────────
//
// The serving layer's quantized fast path (DESIGN.md §15) scans per-row
// i8 codes ([`quantize_row_i8`]) against an i8-quantized query. Its
// kernels ([`dot_i8_i8`], [`sum_i8`]) work in exact i32 arithmetic:
// integer sums are order-free, so determinism costs nothing and LLVM is
// free to use SIMD integer multiply-add. Whether the i8 scan also beats
// the f32 `gemm_tb` scan on throughput, not just on footprint, is
// measured in `BENCH_quant.json` (ROADMAP item 2).

/// Symmetric quantized dot: `Σ aᵢ · bᵢ` over i8 codes in exact i32
/// arithmetic — the i8 scan's hot kernel (query codes × row codes).
///
/// Integer addition is associative, so **any** summation order produces
/// identical bits; unlike the f32 kernels this one needs no fixed
/// reduction order. The body keeps 8 independent i32 lanes over
/// `chunks_exact(8)` plus a sequential tail — measured ~2× the plain
/// zip-sum loop (the explicit lanes give LLVM a full SIMD register of
/// independent accumulators instead of one serial chain) and ~5× the
/// striped f32 `dot`. Max magnitude is `127² · len`, so i32 holds any
/// dim below ~133k without overflow.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot_i8_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8_i8 length mismatch");
    let split = a.len() - a.len() % 8;
    let mut accs = [0i32; 8];
    for (xa, xb) in a[..split].chunks_exact(8).zip(b[..split].chunks_exact(8)) {
        for j in 0..8 {
            accs[j] += xa[j] as i32 * xb[j] as i32;
        }
    }
    let mut acc: i32 = accs.iter().sum();
    for (&x, &y) in a[split..].iter().zip(&b[split..]) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// Naive sequential loop reference for [`dot_i8_i8`] (identical bits:
/// integer sums are order-free).
#[inline]
pub fn dot_i8_i8_ref(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8_i8 length mismatch");
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// Sum of i8 codes in exact i32 arithmetic (the `Σ codesᵢ` terms of the
/// symmetric-score affine). Order-free like [`dot_i8_i8`].
#[inline]
pub fn sum_i8(a: &[i8]) -> i32 {
    a.iter().map(|&x| x as i32).sum()
}

/// Per-row symmetric i8 quantization parameters: `value ≈ zero + scale ·
/// code` with codes in `[-127, 127]` centered on the row midpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    /// Dequantization step (0.0 for a constant row — every code is 0).
    pub scale: f32,
    /// Dequantization offset (the row midpoint).
    pub zero: f32,
}

/// Quantize one row to i8 codes symmetric about the row midpoint:
/// `zero = (min + max) / 2`, `scale = (max − min) / 254`, `code =
/// round((v − zero) / scale)` clamped to `[-127, 127]`. A constant row
/// (or one with non-finite spread) gets `scale = 0` and all-zero codes,
/// so dequantization reproduces the constant exactly.
///
/// # Panics
/// Panics if the slices differ in length or the row is empty.
pub fn quantize_row_i8(row: &[f32], codes: &mut [i8]) -> QuantParams {
    assert_eq!(row.len(), codes.len(), "quantize_row_i8 length mismatch");
    assert!(!row.is_empty(), "quantize_row_i8 on an empty row");
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in row {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let zero = 0.5 * (lo + hi);
    let scale = (hi - lo) / 254.0;
    if !scale.is_finite() || scale <= 0.0 {
        codes.fill(0);
        return QuantParams {
            scale: 0.0,
            zero: if zero.is_finite() { zero } else { 0.0 },
        };
    }
    let inv = 1.0 / scale;
    for (c, &v) in codes.iter_mut().zip(row) {
        *c = ((v - zero) * inv).round().clamp(-127.0, 127.0) as i8;
    }
    QuantParams { scale, zero }
}

/// Dequantize i8 codes back to f32: `out[i] = zero + scale · codes[i]`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dequantize_row_i8(codes: &[i8], params: QuantParams, out: &mut [f32]) {
    assert_eq!(codes.len(), out.len(), "dequantize_row_i8 length mismatch");
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = params.zero + params.scale * c as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, lo: f32) -> Vec<f32> {
        (0..n).map(|i| lo + i as f32 * 0.37).collect()
    }

    #[test]
    fn dot_matches_reference_within_tolerance() {
        for n in [0usize, 1, 7, 8, 9, 31, 128] {
            let a = seq(n, -3.0);
            let b = seq(n, 0.5);
            let (k, r) = (dot(&a, &b), dot_ref(&a, &b));
            assert!((k - r).abs() <= 1e-4 * (1.0 + r.abs()), "n={n}: {k} vs {r}");
        }
    }

    #[test]
    fn dot_is_deterministic_run_to_run() {
        let a = seq(101, -1.0);
        let b = seq(101, 2.0);
        let first = dot(&a, &b).to_bits();
        for _ in 0..10 {
            assert_eq!(dot(&a, &b).to_bits(), first);
        }
    }

    #[test]
    fn sqdist_matches_hand_value() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [0.0f32, 0.0, 0.0];
        assert_eq!(sqdist(&a, &b), 14.0);
        assert_eq!(sqdist_ref(&a, &b), 14.0);
    }

    #[test]
    fn axpy_and_scale_add_are_exact() {
        let x = seq(13, 0.1);
        let y0 = seq(13, -2.0);
        let mut y1 = y0.clone();
        let mut y2 = y0.clone();
        axpy(&mut y1, 0.75, &x);
        axpy_ref(&mut y2, 0.75, &x);
        assert_eq!(y1, y2);

        let mut o1 = vec![9.0f32; 13];
        let mut o2 = vec![-9.0f32; 13];
        scale_add(&mut o1, 0.3, &x, -1.7, &y0);
        scale_add_ref(&mut o2, 0.3, &x, -1.7, &y0);
        assert_eq!(o1, o2);
    }

    #[test]
    fn gemm_matches_reference_bits() {
        for (n, k, m) in [(1usize, 1usize, 1usize), (2, 3, 4), (4, 9, 5), (3, 8, 7)] {
            let a = seq(n * k, -1.0);
            let b = seq(k * m, 0.2);
            let mut o1 = vec![0.0f32; n * m];
            let mut o2 = vec![1.0f32; n * m];
            gemm(&a, &b, &mut o1, n, k, m);
            gemm_ref(&a, &b, &mut o2, n, k, m);
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.to_bits(), y.to_bits(), "({n},{k},{m})");
            }
        }
    }

    #[test]
    fn gemm_rows_matches_packed_gemm_bits() {
        // n values straddle the 4-row block: remainder-only, one block,
        // block + remainder.
        for (n, k, m) in [
            (1usize, 1usize, 1usize),
            (2, 3, 4),
            (4, 9, 5),
            (3, 8, 7),
            (6, 9, 3),
            (9, 130, 8),
        ] {
            let a = seq(n * k, -1.0);
            let b = seq(k * m, 0.2);
            let rows: Vec<&[f32]> = a.chunks_exact(k).collect();
            let mut o1 = vec![0.0f32; n * m];
            let mut o2 = vec![1.0f32; n * m];
            gemm_rows(&rows, &b, &mut o1, k, m);
            gemm(&a, &b, &mut o2, n, k, m);
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.to_bits(), y.to_bits(), "({n},{k},{m})");
            }
        }
    }

    #[test]
    fn gemm_ta_matches_reference_bits() {
        for (k, n, m) in [(1usize, 1usize, 1usize), (5, 2, 3), (8, 4, 6), (9, 3, 5)] {
            let a = seq(k * n, -2.0);
            let b = seq(k * m, 0.4);
            let mut o1 = vec![0.0f32; n * m];
            let mut o2 = vec![1.0f32; n * m];
            gemm_ta(&a, &b, &mut o1, k, n, m);
            gemm_ta_ref(&a, &b, &mut o2, k, n, m);
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.to_bits(), y.to_bits(), "({k},{n},{m})");
            }
        }
    }

    #[test]
    fn gemm_tb_acc_equals_two_step() {
        let (n, d, m) = (3usize, 11usize, 4usize);
        let a = seq(n * d, -1.5);
        let b = seq(m * d, 0.7);
        let base = seq(n * m, 5.0);
        let mut acc = base.clone();
        gemm_tb_acc(&a, &b, &mut acc, n, d, m);
        let mut tmp = vec![0.0f32; n * m];
        gemm_tb(&a, &b, &mut tmp, n, d, m);
        for ((x, t), b0) in acc.iter().zip(&tmp).zip(&base) {
            assert_eq!(x.to_bits(), (b0 + t).to_bits());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_builds_match_the_plain_bodies_bitwise() {
        if !has_avx2() {
            eprintln!("no AVX2 on this CPU: no AVX2 build to compare");
            return;
        }
        type Body = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        type Wide = unsafe fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        type Lens = fn(usize, usize, usize) -> [usize; 3];
        // Each kernel's plain body, its AVX2 build, and its A, B and out
        // lengths at dims (x, y, z) in its own argument order.
        let kernels: [(&str, Body, Wide, Lens); 4] = [
            ("gemm", gemm_body, avx2::gemm, |n, k, m| {
                [n * k, k * m, n * m]
            }),
            ("gemm_ta", gemm_ta_body, avx2::gemm_ta, |k, n, m| {
                [k * n, k * m, n * m]
            }),
            (
                "gemm_tb",
                gemm_tb_body::<false>,
                avx2::gemm_tb,
                |n, d, m| [n * d, m * d, n * m],
            ),
            (
                "gemm_tb_acc",
                gemm_tb_body::<true>,
                avx2::gemm_tb_acc,
                |n, d, m| [n * d, m * d, n * m],
            ),
        ];
        let mut rng = transn_rng::Rng::seed_from_u64(23);
        // The dims straddle the 4-blocks, the 8 lanes and the vector width.
        for (x, y, z) in [
            (1usize, 1usize, 1usize),
            (3, 9, 5),
            (4, 64, 8),
            (6, 40, 13),
            (9, 131, 7),
        ] {
            for (name, plain, wide, lens) in kernels {
                let [a, b, base] = lens(x, y, z).map(|len| {
                    (0..len)
                        .map(|_| rng.random_range(-2.0f32..2.0))
                        .collect::<Vec<_>>()
                });
                let mut p = base.clone();
                plain(&a, &b, &mut p, x, y, z);
                let mut w = base;
                // SAFETY: `has_avx2` confirmed this CPU supports AVX2.
                unsafe { wide(&a, &b, &mut w, x, y, z) };
                for (pv, wv) in p.iter().zip(&w) {
                    assert_eq!(pv.to_bits(), wv.to_bits(), "{name} ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn gemm_propagates_zero_times_inf_as_nan() {
        // 1×2 · 2×1: out = 0·∞ + 1·1 = NaN. A zero-skip branch would
        // silently produce 1.0 instead.
        let a = [0.0f32, 1.0];
        let b = [f32::INFINITY, 1.0];
        let mut out = [0.0f32; 1];
        gemm(&a, &b, &mut out, 1, 2, 1);
        assert!(out[0].is_nan());
        gemm_ta(&b, &a, &mut out, 2, 1, 1);
        assert!(out[0].is_nan());
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn integer_code_dot_is_exact_at_every_length() {
        // Integer sums are order-free: fast vs ref must agree for every
        // length, lane-aligned or ragged, and the result is checkable in
        // i64 against a from-scratch accumulation.
        for n in [0usize, 1, 7, 8, 9, 64, 101, 128] {
            let a: Vec<i8> = (0..n).map(|i| ((i * 37) % 255) as i8).collect();
            let b: Vec<i8> = (0..n).map(|i| ((i * 91 + 13) % 255) as i8).collect();
            let fast = dot_i8_i8(&a, &b);
            assert_eq!(fast, dot_i8_i8_ref(&a, &b), "n={n}");
            let exact: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
            assert_eq!(fast as i64, exact, "n={n}");
            let s: i64 = a.iter().map(|&x| x as i64).sum();
            assert_eq!(sum_i8(&a) as i64, s, "n={n}");
        }
    }

    #[test]
    fn quantize_round_trip_error_is_within_half_step() {
        let row = seq(67, -4.2);
        let mut codes = vec![0i8; row.len()];
        let p = quantize_row_i8(&row, &mut codes);
        let mut back = vec![0.0f32; row.len()];
        dequantize_row_i8(&codes, p, &mut back);
        let bound = 0.5 * p.scale * 1.001 + 1e-6;
        for (i, (&v, &r)) in row.iter().zip(&back).enumerate() {
            assert!(
                (v - r).abs() <= bound,
                "i={i}: {v} vs {r} (scale {})",
                p.scale
            );
        }
    }

    #[test]
    fn quantize_constant_row_is_exact() {
        let row = vec![2.5f32; 19];
        let mut codes = vec![7i8; row.len()];
        let p = quantize_row_i8(&row, &mut codes);
        assert_eq!(
            p,
            QuantParams {
                scale: 0.0,
                zero: 2.5
            }
        );
        assert!(codes.iter().all(|&c| c == 0));
        let mut back = vec![0.0f32; row.len()];
        dequantize_row_i8(&codes, p, &mut back);
        assert_eq!(back, row);
    }

    #[test]
    fn quantize_codes_stay_in_symmetric_range() {
        let row = seq(256, -100.0);
        let mut codes = vec![0i8; row.len()];
        let p = quantize_row_i8(&row, &mut codes);
        assert!(codes.iter().all(|&c| (-127..=127).contains(&c)));
        // Extremes map to the extreme codes.
        assert_eq!(codes[0], -127);
        assert_eq!(codes[255], 127);
        assert!(p.scale > 0.0);
    }
}
