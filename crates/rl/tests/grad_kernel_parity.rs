//! Differential suite for the weight-gradient kernel.
//!
//! `Matrix::matmul_transpose_a_accum` (`out += xᵀ·dY`, every linear
//! layer's weight gradient) runs on register-blocked tiles: wide tiles
//! with the outputs in the vector lanes, narrow tiles with the inputs in
//! the lanes, a branch-free loop for input blocks without exact zeros and
//! the zero-skip everywhere else. The oracle below is the row-at-a-time
//! axpy formulation those tiles replaced, copied verbatim; every kernel
//! in `weight_grad_kernels()` (the baseline tile too, reached through
//! `weight_grad_with` on AVX2 hosts) and the dispatched method must match
//! it bit for bit.
//!
//! Inputs mimic the training data: observation matrices whose empty
//! queue slots are whole zero columns, scattered zeros of either sign,
//! and rows whose inputs are all zero while their output gradients hold
//! ±inf or NaN — which only a kept zero-skip leaves out of the sums.
//! Accumulation starts from non-zero (and signed-zero) contents of `out`.

use proptest::prelude::*;
use qcs_desim::Xoshiro256StarStar;
use qcs_rl::nn::{weight_grad_kernels, weight_grad_with, Matrix};

/// The parent formulation of `Matrix::matmul_transpose_a_accum`, verbatim
/// but for the private-field accesses: `out += aᵀ · b`, one output row
/// updated per non-zero `a[i][kk]`, rows in ascending order.
fn matmul_transpose_a_accum_reference(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.rows(), b.rows(), "matmul_ta shape mismatch");
    assert_eq!(out.rows(), a.cols(), "matmul_ta out rows mismatch");
    assert_eq!(out.cols(), b.cols(), "matmul_ta out cols mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        let a_row = &a.data()[i * k..(i + 1) * k];
        let b_row = &b.data()[i * n..(i + 1) * n];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let out_row = &mut out.data_mut()[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * bv;
            }
        }
    }
}

/// How often each kind of exact zero appears in a generated case.
#[derive(Debug, Clone, Copy)]
struct Zeros {
    /// Share of input columns that are zero in every row.
    column: f64,
    /// Share of the remaining entries that are zero.
    scattered: f64,
    /// Share of rows whose inputs are all zero; their output-gradient
    /// rows are half poison (±inf, NaN).
    poison_row: f64,
}

const ZERO_MODES: [Zeros; 4] = [
    Zeros {
        column: 0.0,
        scattered: 0.0,
        poison_row: 0.0,
    },
    Zeros {
        column: 0.32,
        scattered: 0.0,
        poison_row: 0.0,
    },
    Zeros {
        column: 0.0,
        scattered: 0.1,
        poison_row: 0.15,
    },
    Zeros {
        column: 0.25,
        scattered: 0.05,
        poison_row: 0.1,
    },
];

/// A signed zero: `+0.0` or `-0.0` with equal odds.
fn signed_zero(rng: &mut Xoshiro256StarStar) -> f32 {
    if rng.next_f64() < 0.5 {
        0.0
    } else {
        -0.0
    }
}

/// Builds `(x [m,k], dy [m,n], out [k,n])` for one case.
fn case(m: usize, k: usize, n: usize, zeros: Zeros, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = Xoshiro256StarStar::new(seed);
    let zero_cols: Vec<bool> = (0..k).map(|_| rng.next_f64() < zeros.column).collect();
    let poison_rows: Vec<bool> = (0..m).map(|_| rng.next_f64() < zeros.poison_row).collect();
    let mut x = Matrix::zeros(m, k);
    for (i, &poison) in poison_rows.iter().enumerate() {
        for (v, &zero_col) in x.row_mut(i).iter_mut().zip(&zero_cols) {
            *v = if poison || zero_col || rng.next_f64() < zeros.scattered {
                signed_zero(&mut rng)
            } else {
                rng.range_f64(-1.0, 1.0) as f32
            };
        }
    }
    let mut dy = Matrix::zeros(m, n);
    for (i, &poison) in poison_rows.iter().enumerate() {
        for v in dy.row_mut(i) {
            *v = if poison && rng.next_f64() < 0.5 {
                [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.next_below(3) as usize]
            } else {
                rng.range_f64(-1.0, 1.0) as f32
            };
        }
    }
    let mut out = Matrix::zeros(k, n);
    for v in out.data_mut() {
        *v = if rng.next_f64() < 0.1 {
            signed_zero(&mut rng)
        } else {
            rng.range_f64(-2.0, 2.0) as f32
        };
    }
    (x, dy, out)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs every kernel and the dispatched method on one case and compares
/// each with the oracle bitwise.
fn assert_all_kernels_match(m: usize, k: usize, n: usize, zeros: Zeros, seed: u64) {
    let (x, dy, out0) = case(m, k, n, zeros, seed);
    let mut expected = out0.clone();
    matmul_transpose_a_accum_reference(&x, &dy, &mut expected);
    assert!(
        expected.data().iter().all(|v| v.is_finite()),
        "poison leaked into the oracle at {m}x{k}x{n}"
    );
    for kern in weight_grad_kernels() {
        let mut got = out0.clone();
        weight_grad_with(kern, m, k, n, x.data(), dy.data(), got.data_mut());
        assert_eq!(
            bits(got.data()),
            bits(expected.data()),
            "{} at {m}x{k}x{n}, {zeros:?}, seed {seed}",
            kern.name()
        );
    }
    let mut got = out0;
    x.matmul_transpose_a_accum(&dy, &mut got);
    assert_eq!(
        bits(got.data()),
        bits(expected.data()),
        "dispatched at {m}x{k}x{n}, {zeros:?}, seed {seed}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes cover every tile path: whole and partial input
    /// blocks, wide columns, narrow column groups and lane tails.
    #[test]
    fn weight_grad_matches_axpy_reference_bitwise(
        m in 1usize..=40,
        k in 1usize..=80,
        n in 1usize..=80,
        mode in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        assert_all_kernels_match(m, k, n, ZERO_MODES[mode], seed);
    }
}

/// The shard shapes PPO updates run (16-row shards): the gym and
/// scheduler first layers, the hidden layer and the 9-, 5- and 1-wide
/// heads, under every zero mode.
#[test]
fn shard_shapes_match_axpy_reference_bitwise() {
    for &(m, k, n) in &[
        (16usize, 16usize, 64usize),
        (16, 64, 64),
        (16, 60, 64),
        (16, 64, 9),
        (16, 64, 5),
        (16, 64, 1),
    ] {
        for (mode, &zeros) in ZERO_MODES.iter().enumerate() {
            for seed in 0..4u64 {
                assert_all_kernels_match(m, k, n, zeros, seed * 31 + mode as u64);
            }
        }
    }
}

/// The oracle's zero-skip is observable: adding `0·dY` would turn a
/// `-0.0` accumulator into `+0.0` and a poisoned row into NaN. Every
/// kernel must keep both.
#[test]
fn zero_inputs_add_nothing() {
    let (m, k, n) = (4usize, 8usize, 16usize);
    let x = Matrix::zeros(m, k);
    let mut dy = Matrix::zeros(m, n);
    dy.data_mut()
        .iter_mut()
        .enumerate()
        .for_each(|(i, v)| *v = [1.0, f32::NAN, f32::INFINITY][i % 3]);
    let out0 = Matrix::from_vec(k, n, vec![-0.0; k * n]);
    for kern in weight_grad_kernels() {
        let mut got = out0.clone();
        weight_grad_with(kern, m, k, n, x.data(), dy.data(), got.data_mut());
        assert_eq!(bits(got.data()), bits(out0.data()), "{}", kern.name());
    }
}
