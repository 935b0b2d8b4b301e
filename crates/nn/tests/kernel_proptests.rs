//! Kernel-vs-reference property tests (DESIGN.md §9).
//!
//! Two contract tiers:
//!
//! * **Exact-bits**: kernels whose blocked form evaluates the *same*
//!   floating-point expression in the *same* order as the naive reference
//!   (`gemm`, `gemm_ta`, `axpy`, `scale_add`, `gemm_tb` and `gemm_tb_acc`
//!   vs a per-element `dot` loop, and `gemm_tb_acc` vs the two-step
//!   gemm_tb-then-add) must agree bit-for-bit on every input.
//! * **1e-5 relative**: kernels that reassociate the reduction (`dot`,
//!   `sqdist`, `gemm_tb` fold 8 partial accumulators in a fixed tree)
//!   agree with the sequential reference only up to rounding; the fixed
//!   tree still makes them deterministic run-to-run, which the exact
//!   self-consistency assertions below pin.

use transn_nn::kernels;
use transn_rng::{check, Rng};

/// Relative tolerance for order-changing reductions.
const REL: f32 = 1e-5;

fn close(x: f32, y: f32) -> bool {
    (x - y).abs() <= REL * (1.0 + x.abs().max(y.abs()))
}

fn arb_vec(rng: &mut Rng, len: std::ops::Range<usize>) -> Vec<f32> {
    let n = rng.random_range(len);
    (0..n).map(|_| rng.random_range(-2.0f32..2.0)).collect()
}

/// `dot` matches the sequential reference within rounding, at lengths
/// spanning the lane boundary (tail-only, exact multiple, mixed).
#[test]
fn dot_matches_reference() {
    check(|rng| {
        let a = arb_vec(rng, 0..200);
        let b: Vec<f32> = a.iter().map(|x| 0.5 - x).collect();
        let fast = kernels::dot(&a, &b);
        let slow = kernels::dot_ref(&a, &b);
        assert!(close(fast, slow), "{fast} vs {slow} (len {})", a.len());
        // Fixed reduction order ⇒ bitwise self-consistency.
        assert_eq!(fast.to_bits(), kernels::dot(&a, &b).to_bits());
    });
}

/// `sqdist` matches the sequential reference within rounding.
#[test]
fn sqdist_matches_reference() {
    check(|rng| {
        let a = arb_vec(rng, 0..200);
        let b: Vec<f32> = a.iter().map(|x| x * 0.25 + 0.1).collect();
        let fast = kernels::sqdist(&a, &b);
        let slow = kernels::sqdist_ref(&a, &b);
        assert!(close(fast, slow), "{fast} vs {slow} (len {})", a.len());
        assert!(fast >= 0.0);
    });
}

/// `axpy` and `scale_add` preserve elementwise order ⇒ exact bits.
#[test]
fn axpy_scale_add_match_reference_bits() {
    check(|rng| {
        let x = arb_vec(rng, 0..200);
        let a = rng.random_range(-3.0f32..3.0);
        let y0: Vec<f32> = x.iter().map(|v| v * 0.7 - 0.3).collect();

        let mut fast = y0.clone();
        kernels::axpy(&mut fast, a, &x);
        let mut slow = y0.clone();
        kernels::axpy_ref(&mut slow, a, &x);
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }

        let mut fast = vec![9.0f32; x.len()];
        kernels::scale_add(&mut fast, a, &x, -a, &y0);
        let mut slow = vec![-9.0f32; x.len()];
        kernels::scale_add_ref(&mut slow, a, &x, -a, &y0);
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
    });
}

/// The register-blocked `gemm` evaluates the same expression in the
/// same order as the textbook triple loop ⇒ exact bits, any shape.
#[test]
fn gemm_matches_reference_bits() {
    check(|rng| {
        let (n, k, m) = (
            rng.random_range(1usize..7),
            rng.random_range(1usize..12),
            rng.random_range(1usize..7),
        );
        let pool = (0..12 * 12)
            .map(|_| rng.random_range(-2.0f32..2.0))
            .collect::<Vec<_>>();
        let a = &pool[..n * k];
        let b = &pool[pool.len() - k * m..];
        let mut fast = vec![1.0f32; n * m];
        kernels::gemm(a, b, &mut fast, n, k, m);
        let mut slow = vec![-1.0f32; n * m];
        kernels::gemm_ref(a, b, &mut slow, n, k, m);
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
    });
}

/// Same exact-bits contract for the `Aᵀ·B` microkernel.
#[test]
fn gemm_ta_matches_reference_bits() {
    check(|rng| {
        let (k, n, m) = (
            rng.random_range(1usize..12),
            rng.random_range(1usize..7),
            rng.random_range(1usize..7),
        );
        let pool = (0..12 * 12)
            .map(|_| rng.random_range(-2.0f32..2.0))
            .collect::<Vec<_>>();
        let a = &pool[..k * n];
        let b = &pool[pool.len() - k * m..];
        let mut fast = vec![1.0f32; n * m];
        kernels::gemm_ta(a, b, &mut fast, k, n, m);
        let mut slow = vec![-1.0f32; n * m];
        kernels::gemm_ta_ref(a, b, &mut slow, k, n, m);
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
    });
}

/// `gemm_tb` (one 8-lane dot per output element) matches the
/// sequential reference within rounding — including d > LANES where
/// the tree reduction actually reassociates.
#[test]
fn gemm_tb_matches_reference() {
    check(|rng| {
        let (n, d, m) = (
            rng.random_range(1usize..5),
            rng.random_range(1usize..40),
            rng.random_range(1usize..5),
        );
        let pool = (0..5 * 40)
            .map(|_| rng.random_range(-2.0f32..2.0))
            .collect::<Vec<_>>();
        let a = &pool[..n * d];
        let b = &pool[pool.len() - m * d..];
        let mut fast = vec![0.0f32; n * m];
        kernels::gemm_tb(a, b, &mut fast, n, d, m);
        let mut slow = vec![0.0f32; n * m];
        kernels::gemm_tb_ref(a, b, &mut slow, n, d, m);
        for (f, s) in fast.iter().zip(&slow) {
            assert!(close(*f, *s), "{f} vs {s} (d {d})");
        }
    });
}

/// Every `gemm_tb` output is bit-identical to one `kernels::dot` of its
/// two rows, and every `gemm_tb_acc` output to `out + dot`. The shapes hit
/// the four-output passes, the `m mod 4` outputs left over, and the
/// `d mod 8` tail after the lanes.
#[test]
fn gemm_tb_and_acc_equal_a_dot_loop_bits() {
    check(|rng| {
        let (n, d, m) = (
            rng.random_range(0usize..5),
            rng.random_range(0usize..200),
            rng.random_range(0usize..13),
        );
        let a: Vec<f32> = (0..n * d).map(|_| rng.random_range(-2.0f32..2.0)).collect();
        let b: Vec<f32> = (0..m * d).map(|_| rng.random_range(-2.0f32..2.0)).collect();
        let init: Vec<f32> = (0..n * m).map(|_| rng.random_range(-2.0f32..2.0)).collect();

        let mut fresh = vec![f32::NAN; n * m];
        kernels::gemm_tb(&a, &b, &mut fresh, n, d, m);
        let mut acc = init.clone();
        kernels::gemm_tb_acc(&a, &b, &mut acc, n, d, m);

        for i in 0..n {
            for j in 0..m {
                let s = kernels::dot(&a[i * d..(i + 1) * d], &b[j * d..(j + 1) * d]);
                let (f, x) = (fresh[i * m + j], acc[i * m + j]);
                assert_eq!(f.to_bits(), s.to_bits(), "gemm_tb ({n},{d},{m}) [{i},{j}]");
                let want = init[i * m + j] + s;
                assert_eq!(
                    x.to_bits(),
                    want.to_bits(),
                    "gemm_tb_acc ({n},{d},{m}) [{i},{j}]"
                );
            }
        }
    });
}

/// The fused accumulate variant is bit-identical to gemm_tb-then-add.
#[test]
fn gemm_tb_acc_matches_two_step_bits() {
    check(|rng| {
        let (n, d, m) = (
            rng.random_range(1usize..5),
            rng.random_range(1usize..40),
            rng.random_range(1usize..5),
        );
        let pool = (0..5 * 40)
            .map(|_| rng.random_range(-2.0f32..2.0))
            .collect::<Vec<_>>();
        let a = &pool[..n * d];
        let b = &pool[pool.len() - m * d..];
        let init: Vec<f32> = (0..n * m).map(|i| i as f32 * 0.1 - 0.5).collect();

        let mut fused = init.clone();
        kernels::gemm_tb_acc(a, b, &mut fused, n, d, m);

        let mut fresh = vec![0.0f32; n * m];
        kernels::gemm_tb(a, b, &mut fresh, n, d, m);
        let two_step: Vec<f32> = init.iter().zip(&fresh).map(|(o, p)| o + p).collect();

        for (f, s) in fused.iter().zip(&two_step) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
    });
}
