//! A minimal row-major `f32` matrix sized for MLP policies.
//!
//! Inner loops are ordered `(i, k, j)` so the innermost loop streams both
//! the `B` row and the output row sequentially (cache-friendly, auto-
//! vectorisable), per the perf-book guidance. No allocations happen inside
//! hot loops: all `matmul_*` variants write into caller-provided outputs.
//!
//! # Register tiles and kernel selection
//!
//! The blocked GEMM is generic over its register-tile shape `MR × NR`
//! (`gemm_bias_tiled`): `MR` rows of `A` share every load of a `B` row,
//! and `NR` output columns are held in accumulator registers across the
//! whole `k` loop. Four tile shapes are compiled:
//!
//! * **4×8** — the baseline, sized so the full accumulator block fits the
//!   16 SSE registers every `x86_64` target guarantees;
//! * **4×16** — compiled with AVX2 enabled (two YMM registers per
//!   accumulator row); the default for short products wherever AVX2 is
//!   available — fewest loads+broadcasts per flop on the MLP shapes this
//!   crate runs;
//! * **8×8** — also AVX2 (one YMM register per accumulator row, each `b`
//!   load amortised over 8 rows); kept compiled and benched as the
//!   alternative wide shape;
//! * **4×32** — compiled with AVX-512F (two ZMM registers per accumulator
//!   row), plus a rows-in-lanes *head tile* for the columns left after the
//!   last whole 32-column tile. The policy and value heads are 9, 5 or 1
//!   outputs wide, so in an output-in-the-lanes tile they fall to one
//!   scalar chain per column. The head tile instead packs a 16-row block
//!   of `A` transposed once, holds the 16 rows in the lanes of one
//!   accumulator per output column, and broadcasts that column's `b`
//!   value at every ascending `k` step.
//!
//! The kernel is picked per call by [`select_kernel`]: AVX2 and AVX-512F
//! are detected once at runtime, so a generic baseline build still uses
//! the wide tiles on capable hardware. The **16-row rule**: the 4×32 tile
//! is picked only for products of at least 16 rows, one
//! `update::SHARD_ROWS` shard, which is every forward and backward product
//! of a PPO or A2C update. Shorter products — the deployed policies'
//! one-row decisions and the rollouts' few-env batches — keep the 4×16
//! tile: their rows run the shared row tail, which a wider tile does not
//! help, they fill no 16-row head block, and between simulation events
//! they are too short to pay for waking the 512-bit units. A machine
//! without AVX-512F selects exactly the AVX2 and baseline kernels.
//!
//! Every tile accumulates each output element over `k` in ascending order
//! from `bias[j]` with a separate multiply and add, and rustc never
//! contracts `mul + add` into FMA, so all kernels produce
//! **bit-identical** results — selection is a pure throughput decision,
//! pinned by the `all_kernels_bit_identical` test.
//!
//! **No gathers.** No tile body may contain a gather or scatter: strided
//! element loads are what a tile exists to avoid, and on this crate's
//! shapes a gathering loop runs slower than the scalar one it replaces.
//! The auto-vectoriser emits them readily once AVX-512 is enabled. A
//! whole-program `-C target-cpu=native` build inlines every tile into
//! `gemm_bias_with` and `weight_grad_with`, which then hold hundreds of
//! gathers, and PPO's `learn` ran 3.5× slower than in the baseline build
//! (2.21 s against 0.62 s in a traced perfbench `rl_train` run on a
//! 2-vCPU AVX-512 Xeon). A plain-Rust head tile put the columns in the
//! lanes and kept its accumulators in memory behind gathers and scatters,
//! so the head tile is written with AVX-512 intrinsics (a register-shuffle
//! transpose and masked loads and stores). After changing a tile, check
//! the release build's `objdump -d` of the `gemm_bias_avx*`,
//! `weight_grad_avx*` and `head::head_block` functions for `vgather`,
//! `vpgather` and `vscatter`.
//!
//! For the backward-pass product `d_out · Wᵀ`, `nn::linear` keeps a packed
//! transpose of `W` so the product runs through this blocked kernel instead
//! of a strided dot-product loop (see [`super::linear::Linear`]).
//!
//! # The weight-gradient kernel
//!
//! The other backward product, `grad_W += xᵀ·dY`
//! ([`Matrix::matmul_transpose_a_accum`]), has its own register-blocked
//! body ([`weight_grad_with`]), picked by the same [`select_kernel`] (with
//! `m` the batch rows): a 4×32 tile inside an AVX-512 region, a 4×16 tile
//! inside an AVX2 region, or the 4×8 baseline tile. A tile is an
//! `MR × NR` block of `grad_W` (inputs × outputs). It is loaded from
//! `grad_W` once, gets one rank-1 update per batch row in ascending row
//! order, and is stored once, so the accumulators stay in registers for
//! the whole batch instead of a whole output row being loaded and stored
//! per (row, input) pair.
//!
//! **Zero-skip contract.** Element `(kk, j)` must end as
//! `grad_W[kk][j] + Σ x[i][kk]·dY[i][j]`, summed over ascending `i` and
//! *skipping every row whose `x[i][kk]` is an exact zero* (either sign).
//! The skip is observable: `0·dY` is NaN when `dY` is infinite or NaN, and
//! adding `+0.0` turns a `-0.0` accumulator into `+0.0`. Each tile first
//! checks its `x` block: a block without exact zeros (hidden-layer inputs
//! are tanh outputs, which have none) runs a branch-free loop; a block
//! with one (the scheduler environment's empty queue slots are exact
//! zeros) keeps the skip per row and input.
//!
//! **Narrow outputs.** The policy and value heads are 9, 5 or 1 outputs
//! wide, less than one tile of `NR`, so with the outputs in the lanes most
//! of each vector would be empty. Columns left over after the whole `NR`
//! tiles therefore run transposed: `NR` inputs in the lanes and up to `MR`
//! outputs broadcast, with the block loaded and stored transposed once per
//! tile. Input blocks that do not fill a tile, and narrow-column blocks
//! that hold a zero, run one element at a time. Every path sums each
//! element in the same order with separate multiply and add, so all
//! kernels give the same bits as the row-at-a-time reference (pinned by
//! `tests/grad_kernel_parity.rs`).

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A dense row-major matrix of `f32`.
///
/// `Default` is the empty `0×0` matrix (used for lazily sized scratch
/// buffers and serde-skipped gradient fields).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable data slice (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row accessor.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row accessor.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Resizes to `rows × cols` (zeroing) while reusing the allocation when
    /// possible. Used by workhorse caches.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Resizes to `rows × cols` for an output that is about to be fully
    /// overwritten: existing contents are left stale (only newly grown
    /// capacity is zero-initialised), skipping the memset that
    /// [`Matrix::reshape_zeroed`] pays. Callers must write every element.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src`'s shape and contents into `self`, reusing the
    /// allocation when possible (no zero-fill pass, unlike
    /// [`Matrix::reshape_zeroed`] + copy).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// `out = self · b`. Shapes: `[m,k] · [k,n] → [m,n]`.
    pub fn matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        out.reshape_for_overwrite(self.rows, b.cols);
        gemm_bias(
            self.rows,
            self.cols,
            b.cols,
            &self.data,
            &b.data,
            None,
            &mut out.data,
        );
    }

    /// `out = self · b + bias` where `bias` (length `n`) is broadcast over
    /// the rows — the fused linear-layer forward. Accumulation over `k` is
    /// ascending for every output element, so per-row results are
    /// bit-identical for any batch size.
    pub fn matmul_bias_into(&self, b: &Matrix, bias: &[f32], out: &mut Matrix) {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), b.cols, "bias length mismatch");
        out.reshape_for_overwrite(self.rows, b.cols);
        gemm_bias(
            self.rows,
            self.cols,
            b.cols,
            &self.data,
            &b.data,
            Some(bias),
            &mut out.data,
        );
    }

    /// `out = self · bᵀ`. Shapes: `[m,k] · ([n,k])ᵀ → [m,n]`.
    ///
    /// The hot backward path no longer calls this — `nn::linear` packs
    /// `Wᵀ` and routes `d_out · Wᵀ` through the blocked [`Matrix::matmul_into`]
    /// instead. Kept as the strided reference formulation: it accumulates
    /// each output element over `k` in the same ascending order, and the
    /// linear-layer tests pin the packed path bit-identical to it.
    pub fn matmul_transpose_b_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.cols, "matmul_tb shape mismatch");
        out.reshape_for_overwrite(self.rows, b.rows);
        let (m, k, n) = (self.rows, self.cols, b.rows);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out.data[i * n + j] = acc;
            }
        }
    }

    /// `out += selfᵀ · b`. Shapes: `([m,k])ᵀ · [m,n] → [k,n]`. Accumulates
    /// (the weight gradient `xᵀ·dY` of a linear layer), through the
    /// register-blocked kernel [`select_kernel`] picks; see the module docs
    /// for its tiles and zero-skip contract.
    pub fn matmul_transpose_a_accum(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, b.rows, "matmul_ta shape mismatch");
        assert_eq!(out.rows, self.cols, "matmul_ta out rows mismatch");
        assert_eq!(out.cols, b.cols, "matmul_ta out cols mismatch");
        weight_grad_with(
            select_kernel(self.rows),
            self.rows,
            self.cols,
            b.cols,
            &self.data,
            &b.data,
            &mut out.data,
        );
    }

    /// `Err` naming the mismatch unless `data` holds exactly `rows × cols`
    /// values — the invariant every product here indexes by. Deserialised
    /// matrices bypass [`Matrix::from_vec`]'s check, so loaders call this.
    pub(crate) fn check_shape(&self, what: &str) -> Result<(), String> {
        match self.rows.checked_mul(self.cols) {
            Some(len) if len == self.data.len() => Ok(()),
            _ => Err(format!(
                "{what}: {} values for a {}x{} matrix",
                self.data.len(),
                self.rows,
                self.cols
            )),
        }
    }

    /// Writes `selfᵀ` into `out` (`[m,k] → [k,m]`, both row-major), reusing
    /// `out`'s allocation. Used to pack weight transposes for the
    /// backward-pass GEMM (see [`super::linear::Linear`]).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape_for_overwrite(self.cols, self.rows);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &v) in src.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// The register-tile micro-kernels compiled for `gemm_bias`. All of them
/// produce bit-identical outputs (ascending-`k` accumulation per element);
/// they differ only in throughput. See the module docs for the selection
/// rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// 4-row × 8-column tiles — the SSE-sized baseline, always available.
    Tile4x8,
    /// 8-row × 8-column tiles, compiled with AVX2 (x86_64 + AVX2 only).
    Tile8x8,
    /// 4-row × 16-column tiles, compiled with AVX2 (x86_64 + AVX2 only).
    Tile4x16,
    /// 4-row × 32-column tiles plus the rows-in-lanes head tile, compiled
    /// with AVX-512F (x86_64 + AVX-512F only).
    Tile4x32,
}

impl GemmKernel {
    /// Stable lower-case name (used by benches and `BENCH_rollout.json`).
    pub fn name(self) -> &'static str {
        match self {
            GemmKernel::Tile4x8 => "tile4x8",
            GemmKernel::Tile8x8 => "tile8x8",
            GemmKernel::Tile4x16 => "tile4x16",
            GemmKernel::Tile4x32 => "tile4x32",
        }
    }
}

/// Whether the wide AVX2 tiles can run on this machine (detected once).
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 tiles can run on this machine (detected once).
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX512: OnceLock<bool> = OnceLock::new();
        *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernels usable on this machine, baseline first. Benches and the
/// kernel-parity test iterate this.
pub fn available_kernels() -> Vec<GemmKernel> {
    let mut ks = vec![GemmKernel::Tile4x8];
    if avx2_available() {
        ks.push(GemmKernel::Tile8x8);
        ks.push(GemmKernel::Tile4x16);
    }
    if avx512_available() {
        ks.push(GemmKernel::Tile4x32);
    }
    ks
}

/// The fewest rows a product needs before [`select_kernel`] picks the
/// AVX-512 tile: one `update::SHARD_ROWS` shard, which is also the height
/// of the rows-in-lanes head tile.
const AVX512_MIN_ROWS: usize = HEAD_ROWS;

/// Picks the micro-kernel for an `m`-row product: the AVX-512 4×32 tile
/// for products of at least 16 rows where AVX-512F is available, else the
/// 4×16 tile wherever AVX2 is available, else 4×8.
///
/// 4×16 wins over 8×8 on the MLP shapes this crate runs (measured in
/// `benches/rl.rs`: ~1.7× vs ~1.3× over the baseline at `256×64×64`):
/// per `k` step it issues two `b`-row vector loads and four broadcasts
/// against 8×8's one load and eight broadcasts, and its 4-row blocks
/// leave shorter row tails. Both AVX2 kernels stay compiled and benched
/// so the choice remains evidence-based per machine generation.
///
/// The row rule keeps the AVX-512 tile to the update's shard products.
/// Shorter products (the deployed policies' one-row decisions, the
/// rollouts' few-env batches) run the row tail, which a 32-column tile
/// does not help, and would fill no head tile; between simulation events
/// they are also too short to pay for waking the 512-bit units.
pub fn select_kernel(m: usize) -> GemmKernel {
    if m >= AVX512_MIN_ROWS && avx512_available() {
        GemmKernel::Tile4x32
    } else if avx2_available() {
        GemmKernel::Tile4x16
    } else {
        GemmKernel::Tile4x8
    }
}

/// Register-blocked GEMM: `out[i][j] = bias[j] + Σ_k a·b` (bias optional,
/// zero otherwise), dispatched to the micro-kernel [`select_kernel`] picks.
fn gemm_bias(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    gemm_bias_with(select_kernel(m), m, k, n, a, b, bias, out);
}

/// `gemm_bias` with an explicit micro-kernel — for benches and parity
/// tests. Panics if `kernel` is not in [`available_kernels`] on this
/// machine.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_with(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    match kernel {
        GemmKernel::Tile4x8 => gemm_bias_tiled::<4, 8>(m, k, n, a, b, bias, out, 0),
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Tile8x8 => {
            assert!(avx2_available(), "AVX2 kernel forced on non-AVX2 machine");
            // SAFETY: the target_feature fn only requires AVX2, checked above.
            unsafe { gemm_bias_avx2_8x8(m, k, n, a, b, bias, out) }
        }
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Tile4x16 => {
            assert!(avx2_available(), "AVX2 kernel forced on non-AVX2 machine");
            // SAFETY: the target_feature fn only requires AVX2, checked above.
            unsafe { gemm_bias_avx2_4x16(m, k, n, a, b, bias, out) }
        }
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Tile4x32 => {
            assert!(
                avx512_available(),
                "AVX-512 kernel forced on non-AVX-512 machine"
            );
            // SAFETY: the target_feature fn only requires AVX-512F, checked above.
            unsafe { gemm_bias_avx512_4x32(m, k, n, a, b, bias, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        GemmKernel::Tile8x8 | GemmKernel::Tile4x16 | GemmKernel::Tile4x32 => {
            panic!("AVX kernels are only compiled on x86_64")
        }
    }
}

/// The 8×8 tile instantiated inside an AVX2 region: the scalar body
/// auto-vectorises to one YMM register per accumulator row.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_bias_avx2_8x8(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    gemm_bias_tiled::<8, 8>(m, k, n, a, b, bias, out, 0);
}

/// The 4×16 tile instantiated inside an AVX2 region (two YMM registers per
/// accumulator row).
///
/// # Safety
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_bias_avx2_4x16(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    gemm_bias_tiled::<4, 16>(m, k, n, a, b, bias, out, 0);
}

/// The 4×32 tile instantiated inside an AVX-512 region (two ZMM registers
/// per accumulator row), with the narrow columns of each 16-row block on
/// the rows-in-lanes head tile (one ZMM register per output column).
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_bias_avx512_4x32(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let n_wide = n - n % 32;
    let head_rows = if n_wide < n { m - m % HEAD_ROWS } else { 0 };
    gemm_bias_tiled::<4, 32>(m, k, n, a, b, bias, out, head_rows);
    for i in (0..head_rows).step_by(HEAD_ROWS) {
        head::head_block(i, k, n, n_wide, a, b, bias, out);
    }
}

/// The generic register-blocked GEMM body: `out[i][j] = bias[j] + Σ_k a·b`.
///
/// Rows are processed in blocks of `MR`, columns in tiles of `NR`, with the
/// `MR × NR` accumulator block held in registers across the whole `k` loop.
/// Compared to a row-at-a-time axpy formulation this eliminates the per-`k`
/// reload/store of the output row and amortises each `b` load over `MR`
/// rows — the win that makes batched policy inference beat per-env GEMVs.
/// Every output element accumulates over `k` in ascending order from
/// `bias[j]`, so results are independent of `MR`/`NR` (and per-row
/// bit-identical for any batch size).
///
/// The columns left after the last whole `NR` tile run one column at a
/// time per row block, from row `tail_from` on: the AVX-512 kernel gives
/// the rows before it to its rows-in-lanes head tile.
///
/// `#[inline(always)]` so each monomorphisation inlines into its
/// `#[target_feature]` wrapper and is vectorised for that feature set.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_bias_tiled<const MR: usize, const NR: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    tail_from: usize,
) {
    let bias_at = |j: usize| bias.map_or(0.0, |bv| bv[j]);
    let m_blocks = m - m % MR;
    let n_wide = n - n % NR;

    for i in (0..m_blocks).step_by(MR) {
        for j in (0..n_wide).step_by(NR) {
            let mut acc = [[0.0f32; NR]; MR];
            for acc_row in acc.iter_mut() {
                for (jj, v) in acc_row.iter_mut().enumerate() {
                    *v = bias_at(j + jj);
                }
            }
            for kk in 0..k {
                let b_row = &b[kk * n + j..kk * n + j + NR];
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let a_rk = a[(i + r) * k + kk];
                    for (v, &bv) in acc_row.iter_mut().zip(b_row) {
                        *v += a_rk * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(acc_row);
            }
        }
    }
    // Column tail of the full-height row blocks.
    for i in (tail_from..m_blocks).step_by(MR) {
        for j in n_wide..n {
            let mut acc = [bias_at(j); MR];
            for kk in 0..k {
                let bv = b[kk * n + j];
                for (r, v) in acc.iter_mut().enumerate() {
                    *v += a[(i + r) * k + kk] * bv;
                }
            }
            for (r, &v) in acc.iter().enumerate() {
                out[(i + r) * n + j] = v;
            }
        }
    }
    // Row tail: one row at a time. This is every one-row forward (the
    // deployed policies decide on one observation per call), so the column
    // blocks are sized to keep independent accumulator chains in flight:
    // ROW_TILES tiles of NR share one k loop, then single NR tiles, an
    // 8-wide sub-tile when NR is wider, and scalar columns last.
    for i in m_blocks..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + ROW_TILES * NR <= n {
            row_block::<ROW_TILES, NR>(a_row, b, n, j, bias, out_row);
            j += ROW_TILES * NR;
        }
        while j + NR <= n {
            row_block::<1, NR>(a_row, b, n, j, bias, out_row);
            j += NR;
        }
        if NR > 8 && j + 8 <= n {
            row_block::<1, 8>(a_row, b, n, j, bias, out_row);
            j += 8;
        }
        while j < n {
            row_block::<1, 1>(a_row, b, n, j, bias, out_row);
            j += 1;
        }
    }
}

/// Column tiles of `NR` that one k loop of the row tail feeds together.
const ROW_TILES: usize = 4;

/// Rows of a rows-in-lanes head block: one AVX-512 vector of `f32`.
const HEAD_ROWS: usize = 16;

/// The rows-in-lanes head tile: rows `i..i + HEAD_ROWS`, columns `j0..n`
/// of `out = bias + a·b`. The `A` block is packed transposed once per
/// slice of 64 inputs, each output column keeps one 16-lane
/// accumulator, and every `k` step broadcasts that column's `b` value.
/// This serves the policy and value heads (9, 5 or 1 outputs), which are
/// narrower than any column tile. A slice after the first resumes each
/// accumulator from `out`, which holds it exactly, so every element still
/// sums over ascending `k` from its bias with a separate multiply and add.
///
/// Written with AVX-512 intrinsics: left to the auto-vectoriser, the same
/// loops put the columns in the lanes and keep the accumulators in memory
/// behind gathers and scatters. Every transposition here is a 16×16
/// register-shuffle transpose, and partial rows use masked loads and
/// stores, so the tile touches no element outside its operands.
#[cfg(target_arch = "x86_64")]
mod head {
    use super::HEAD_ROWS;
    use std::arch::x86_64::*;

    /// Inputs per packed slice of a head block's `A` (a 4 KiB stack
    /// buffer; the hidden width, so a head product packs once).
    const HEAD_K: usize = 64;

    /// See the module docs. Panics unless the operands hold rows
    /// `i..i + HEAD_ROWS` of an `[m,k]·[k,n]` product with `j0 ≤ n`.
    ///
    /// # Safety
    /// The caller must ensure the CPU supports AVX-512F.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn head_block(
        i: usize,
        k: usize,
        n: usize,
        j0: usize,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        assert!(
            (i + HEAD_ROWS) * k <= a.len() && k * n <= b.len(),
            "head operands"
        );
        assert!((i + HEAD_ROWS) * n <= out.len() && j0 <= n, "head output");
        assert!(bias.is_none_or(|bv| bv.len() >= n), "head bias");
        let mut at = [_mm512_setzero_ps(); HEAD_K];
        let mut k0 = 0;
        loop {
            let kc = HEAD_K.min(k - k0);
            // `at` holds HEAD_K / HEAD_ROWS blocks of 16 inputs; the
            // columns read only its first `kc` vectors.
            for (s, block) in (0..kc)
                .step_by(HEAD_ROWS)
                .zip(at.chunks_exact_mut(HEAD_ROWS))
            {
                let block: &mut [__m512; HEAD_ROWS] = block.try_into().expect("16 vectors");
                let w = HEAD_ROWS.min(kc - s);
                for (r, v) in block.iter_mut().enumerate() {
                    // SAFETY: the `w` lanes read are inputs `k0 + s..k0 + s + w`
                    // of row `i + r`, inside `a` by the assert above.
                    *v = unsafe {
                        _mm512_maskz_loadu_ps(lanes(w), a.as_ptr().add((i + r) * k + k0 + s))
                    };
                }
                transpose(block);
            }
            let slice = Slice {
                at: &at[..kc],
                b,
                n,
                k0,
                i,
                bias,
            };
            let mut j = j0;
            while j + 8 <= n {
                slice.columns::<8>(j, out);
                j += 8;
            }
            if j + 4 <= n {
                slice.columns::<4>(j, out);
                j += 4;
            }
            while j < n {
                slice.columns::<1>(j, out);
                j += 1;
            }
            k0 += HEAD_K;
            if k0 >= k {
                break;
            }
        }
    }

    /// One packed slice of a head block.
    struct Slice<'a> {
        /// Inputs `k0..k0 + at.len()` of the block's rows, one vector each.
        at: &'a [__m512],
        b: &'a [f32],
        n: usize,
        k0: usize,
        i: usize,
        bias: Option<&'a [f32]>,
    }

    impl Slice<'_> {
        /// Columns `j..j + C` (`C ≤ 16`), one accumulator vector each.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn columns<const C: usize>(&self, j: usize, out: &mut [f32]) {
            let (n, i) = (self.n, self.i);
            let mut acc = [_mm512_setzero_ps(); HEAD_ROWS];
            if self.k0 == 0 {
                for (c, v) in acc[..C].iter_mut().enumerate() {
                    *v = _mm512_set1_ps(self.bias.map_or(0.0, |bv| bv[j + c]));
                }
            } else {
                for (r, v) in acc.iter_mut().enumerate() {
                    // SAFETY: lanes `j..j + C` of output row `i + r`, inside
                    // `out` by `head_block`'s asserts.
                    *v = unsafe {
                        _mm512_maskz_loadu_ps(lanes(C), out.as_ptr().add((i + r) * n + j))
                    };
                }
                transpose(&mut acc);
            }
            for (kk, &av) in self.at.iter().enumerate() {
                let b_row = &self.b[(self.k0 + kk) * n + j..][..C];
                for (v, &bv) in acc.iter_mut().zip(b_row) {
                    *v = _mm512_add_ps(*v, _mm512_mul_ps(av, _mm512_set1_ps(bv)));
                }
            }
            transpose(&mut acc);
            for (r, &v) in acc.iter().enumerate() {
                // SAFETY: as for the load above.
                unsafe {
                    _mm512_mask_storeu_ps(out.as_mut_ptr().add((i + r) * n + j), lanes(C), v)
                };
            }
        }
    }

    /// The mask of the first `w ≤ 16` lanes.
    #[inline(always)]
    fn lanes(w: usize) -> __mmask16 {
        ((1u32 << w) - 1) as __mmask16
    }

    /// Transposes a 16×16 block held as 16 row vectors, in four rounds of
    /// register shuffles: 32-bit pairs, 64-bit pairs, then 128-bit lanes
    /// twice.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(rows: &mut [__m512; HEAD_ROWS]) {
        let mut t = [_mm512_setzero_ps(); HEAD_ROWS];
        for p in 0..8 {
            t[2 * p] = _mm512_unpacklo_ps(rows[2 * p], rows[2 * p + 1]);
            t[2 * p + 1] = _mm512_unpackhi_ps(rows[2 * p], rows[2 * p + 1]);
        }
        // u[4g + c], lane l: column 4l + c of rows 4g..4g + 4.
        let mut u = [_mm512_setzero_ps(); HEAD_ROWS];
        for g in 0..4 {
            let (lo, hi) = (t[4 * g], t[4 * g + 1]);
            let (lo2, hi2) = (t[4 * g + 2], t[4 * g + 3]);
            u[4 * g] = _mm512_shuffle_ps(lo, lo2, 0x44);
            u[4 * g + 1] = _mm512_shuffle_ps(lo, lo2, 0xEE);
            u[4 * g + 2] = _mm512_shuffle_ps(hi, hi2, 0x44);
            u[4 * g + 3] = _mm512_shuffle_ps(hi, hi2, 0xEE);
        }
        // v[c] and v[4 + c]: columns c, 8 + c and 4 + c, 12 + c of rows
        // 0..8; v[8 + c] and v[12 + c]: the same columns of rows 8..16.
        let mut v = [_mm512_setzero_ps(); HEAD_ROWS];
        for h in 0..2 {
            for c in 0..4 {
                let (x, y) = (u[8 * h + c], u[8 * h + 4 + c]);
                v[8 * h + c] = _mm512_shuffle_f32x4(x, y, 0x88);
                v[8 * h + 4 + c] = _mm512_shuffle_f32x4(x, y, 0xDD);
            }
        }
        for c in 0..8 {
            rows[c] = _mm512_shuffle_f32x4(v[c], v[8 + c], 0x88);
            rows[8 + c] = _mm512_shuffle_f32x4(v[c], v[8 + c], 0xDD);
        }
    }
}

/// The kernels [`weight_grad_with`] runs on this machine, baseline first:
/// the 4×8 tile, with AVX2 the 4×16 tile and with AVX-512F the 4×32 tile.
/// The weight gradient has no 8×8 form.
pub fn weight_grad_kernels() -> Vec<GemmKernel> {
    available_kernels()
        .into_iter()
        .filter(|&k| k != GemmKernel::Tile8x8)
        .collect()
}

/// The weight-gradient product `out += xᵀ·dy` (`x: [m,k]`, `dy: [m,n]`,
/// `out: [k,n]`, all row-major) with an explicit micro-kernel — the body
/// of [`Matrix::matmul_transpose_a_accum`], exposed for benches and parity
/// tests. Every kernel gives the same bits (see the module docs). Panics
/// if a slice length does not match its shape, or if `kernel` is not in
/// [`weight_grad_kernels`] on this machine.
pub fn weight_grad_with(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    x: &[f32],
    dy: &[f32],
    out: &mut [f32],
) {
    assert_eq!(x.len(), m * k, "weight_grad x shape mismatch");
    assert_eq!(dy.len(), m * n, "weight_grad dy shape mismatch");
    assert_eq!(out.len(), k * n, "weight_grad out shape mismatch");
    match kernel {
        GemmKernel::Tile4x8 => weight_grad_tiled::<4, 8>(m, k, n, x, dy, out),
        GemmKernel::Tile8x8 => panic!("the weight gradient has no 8x8 tile"),
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Tile4x16 => {
            assert!(avx2_available(), "AVX2 kernel forced on non-AVX2 machine");
            // SAFETY: the target_feature fn only requires AVX2, checked above.
            unsafe { weight_grad_avx2_4x16(m, k, n, x, dy, out) }
        }
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Tile4x32 => {
            assert!(
                avx512_available(),
                "AVX-512 kernel forced on non-AVX-512 machine"
            );
            // SAFETY: the target_feature fn only requires AVX-512F, checked above.
            unsafe { weight_grad_avx512_4x32(m, k, n, x, dy, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        GemmKernel::Tile4x16 | GemmKernel::Tile4x32 => {
            panic!("AVX kernels are only compiled on x86_64")
        }
    }
}

/// The 4×16 weight-gradient tile instantiated inside an AVX2 region.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weight_grad_avx2_4x16(
    m: usize,
    k: usize,
    n: usize,
    x: &[f32],
    dy: &[f32],
    out: &mut [f32],
) {
    weight_grad_tiled::<4, 16>(m, k, n, x, dy, out);
}

/// The 4×32 weight-gradient tile instantiated inside an AVX-512 region:
/// wide tiles hold two ZMM registers per input, and the narrow heads put
/// 32 inputs in the lanes of two.
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn weight_grad_avx512_4x32(
    m: usize,
    k: usize,
    n: usize,
    x: &[f32],
    dy: &[f32],
    out: &mut [f32],
) {
    weight_grad_tiled::<4, 32>(m, k, n, x, dy, out);
}

/// The generic weight-gradient body: `out[kk][j] += Σ_i x[i][kk]·dy[i][j]`,
/// each element over ascending `i`, skipping rows where `x[i][kk]` is an
/// exact zero (the contract the module docs state).
///
/// Columns covered by whole `NR` tiles run as `MR` inputs × `NR` outputs
/// with the outputs in the lanes; the remaining (fewer than `NR`) columns
/// run as `NR` inputs in the lanes × up to `MR` broadcast outputs. Inputs
/// past the last whole block of either run element by element (the
/// layer shapes PPO trains have none on the wide side).
#[inline(always)]
fn weight_grad_tiled<const MR: usize, const NR: usize>(
    m: usize,
    k: usize,
    n: usize,
    x: &[f32],
    dy: &[f32],
    out: &mut [f32],
) {
    let g = GradOperands { m, k, n, x, dy };
    let n_wide = n - n % NR;
    if n_wide > 0 {
        let k_blocks = k - k % MR;
        for kk in (0..k_blocks).step_by(MR) {
            let skip = g.inputs_have_zero(kk, MR);
            for j in (0..n_wide).step_by(NR) {
                if skip {
                    g.wide_tile::<MR, NR, true>(kk, j, out);
                } else {
                    g.wide_tile::<MR, NR, false>(kk, j, out);
                }
            }
        }
        g.scalar_block(k_blocks..k, 0..n_wide, out);
    }
    if n_wide < n {
        let k_lanes = k - k % NR;
        for kk in (0..k_lanes).step_by(NR) {
            if g.inputs_have_zero(kk, NR) {
                g.scalar_block(kk..kk + NR, n_wide..n, out);
                continue;
            }
            let mut j = n_wide;
            while j + MR <= n {
                g.narrow_tile::<MR, NR>(kk, j, out);
                j += MR;
            }
            while j < n {
                g.narrow_tile::<1, NR>(kk, j, out);
                j += 1;
            }
        }
        g.scalar_block(k_lanes..k, n_wide..n, out);
    }
}

/// The operands of one weight-gradient product (`x: [m,k]`, `dy: [m,n]`).
struct GradOperands<'a> {
    m: usize,
    k: usize,
    n: usize,
    x: &'a [f32],
    dy: &'a [f32],
}

impl GradOperands<'_> {
    /// Whether any row has an exact zero among inputs `kk..kk + w`.
    #[inline(always)]
    fn inputs_have_zero(&self, kk: usize, w: usize) -> bool {
        let mut zero = false;
        for i in 0..self.m {
            for &v in &self.x[i * self.k + kk..][..w] {
                zero |= v == 0.0;
            }
        }
        zero
    }

    /// One `R × L` block of `out` at inputs `kk..kk + R`, outputs
    /// `j..j + L`: loaded once, one rank-1 update per batch row (inputs
    /// broadcast, outputs in the lanes), stored once. With `SKIP`, an input
    /// that is an exact zero in a row adds nothing for that row.
    #[inline(always)]
    fn wide_tile<const R: usize, const L: usize, const SKIP: bool>(
        &self,
        kk: usize,
        j: usize,
        out: &mut [f32],
    ) {
        let (k, n) = (self.k, self.n);
        let mut acc = [[0.0f32; L]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[(kk + r) * n + j..][..L]);
        }
        for i in 0..self.m {
            let xs = &self.x[i * k + kk..][..R];
            let ds = &self.dy[i * n + j..][..L];
            for (acc_row, &a) in acc.iter_mut().zip(xs) {
                // A select, not a `continue`: with an early exit here the
                // compiler keeps `acc` in memory and the loop goes scalar.
                let keep = SKIP && a == 0.0;
                for (v, &d) in acc_row.iter_mut().zip(ds) {
                    let sum = *v + a * d;
                    *v = if keep { *v } else { sum };
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            out[(kk + r) * n + j..][..L].copy_from_slice(acc_row);
        }
    }

    /// One block of `out` at inputs `kk..kk + L`, outputs `j..j + R`, held
    /// transposed: the inputs are in the lanes and each output is
    /// broadcast, so a narrow output (fewer columns than a vector) still
    /// fills whole vectors. Only for input blocks with no exact zero.
    #[inline(always)]
    fn narrow_tile<const R: usize, const L: usize>(&self, kk: usize, j: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let mut acc = [[0.0f32; L]; R];
        for lane in 0..L {
            let out_row = &out[(kk + lane) * n + j..][..R];
            for (acc_row, &v) in acc.iter_mut().zip(out_row) {
                acc_row[lane] = v;
            }
        }
        for i in 0..self.m {
            let xs = &self.x[i * k + kk..][..L];
            let ds = &self.dy[i * n + j..][..R];
            for (acc_row, &d) in acc.iter_mut().zip(ds) {
                for (v, &a) in acc_row.iter_mut().zip(xs) {
                    *v += a * d;
                }
            }
        }
        for lane in 0..L {
            let out_row = &mut out[(kk + lane) * n + j..][..R];
            for (v, acc_row) in out_row.iter_mut().zip(&acc) {
                *v = acc_row[lane];
            }
        }
    }

    /// Inputs `ks` × outputs `js`, one element at a time with the
    /// zero-skip: the fallback for input blocks that do not fill a tile,
    /// and for narrow-column blocks that hold a zero.
    fn scalar_block(&self, ks: Range<usize>, js: Range<usize>, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        for kk in ks {
            for j in js.clone() {
                let mut v = out[kk * n + j];
                for i in 0..self.m {
                    let a = self.x[i * k + kk];
                    if a != 0.0 {
                        v += a * self.dy[i * n + j];
                    }
                }
                out[kk * n + j] = v;
            }
        }
    }
}

/// One output row's columns `j..j + T·W`: a single ascending-`k` pass
/// updates all `T` tiles of `W` accumulators, each starting from its bias,
/// so a one-row product keeps `T` independent add chains busy instead of
/// finishing one tile's serial chain before starting the next.
#[inline(always)]
fn row_block<const T: usize, const W: usize>(
    a_row: &[f32],
    b: &[f32],
    n: usize,
    j: usize,
    bias: Option<&[f32]>,
    out_row: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; T];
    if let Some(bv) = bias {
        for (t, tile) in acc.iter_mut().enumerate() {
            tile.copy_from_slice(&bv[j + t * W..j + (t + 1) * W]);
        }
    }
    for (kk, &a_ik) in a_row.iter().enumerate() {
        let b_row = &b[kk * n + j..kk * n + j + T * W];
        for (tile, b_tile) in acc.iter_mut().zip(b_row.chunks_exact(W)) {
            for (v, &bv) in tile.iter_mut().zip(b_tile) {
                *v += a_ik * bv;
            }
        }
    }
    for (t, tile) in acc.iter().enumerate() {
        out_row[j + t * W..j + (t + 1) * W].copy_from_slice(tile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tb_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        // b is [2,3]; a · bᵀ = [2,2]
        let b = Matrix::from_vec(2, 3, vec![1., 0., 1., 2., 1., 0.]);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_transpose_b_into(&b, &mut out);
        // row0: [1+0+3, 2+2+0] = [4,4]; row1: [4+0+6, 8+5+0] = [10,13]
        assert_eq!(out.data(), &[4., 4., 10., 13.]);
    }

    #[test]
    fn matmul_ta_accumulates() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        let mut out = Matrix::zeros(2, 2);
        a.matmul_transpose_a_accum(&b, &mut out);
        // aᵀ·b = [[1,3],[2,4]]·[[5,6],[7,8]] = [[26,30],[38,44]]
        assert_eq!(out.data(), &[26., 30., 38., 44.]);
        a.matmul_transpose_a_accum(&b, &mut out);
        assert_eq!(out.data(), &[52., 60., 76., 88.]);
    }

    #[test]
    fn row_access() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[1., 2., 3.]);
        assert_eq!(m.row(1), &[1., 2., 3.]);
        assert_eq!(m.get(1, 2), 3.0);
        m.set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 9.0);
    }

    /// Simple reference implementation: per-element `f64`-free ascending-k
    /// accumulation, exactly the semantics `gemm_bias` must preserve.
    fn matmul_reference(a: &Matrix, b: &Matrix, bias: Option<&[f32]>) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = bias.map_or(0.0, |bv| bv[j]);
                for kk in 0..a.cols() {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn blocked_gemm_matches_reference_all_tail_shapes() {
        // Cover every blocking path: full 4-row/8-col blocks, row tails
        // (m % 4 ≠ 0), column tails (n % 8 ≠ 0), and tiny shapes. The row
        // tail is shared by every kernel, so `all_kernels_bit_identical`
        // cannot see a change to it: its column blocks (several NR tiles
        // per k loop, single tiles, the 8-wide sub-tile, scalar columns)
        // and the deployed policy's one-row layer shapes are pinned here.
        let mut rng_state = 0x12345u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 16, 64),
            (1, 60, 64),
            (1, 64, 64),
            (1, 64, 9),
            (1, 64, 72),
            (2, 64, 24),
            (3, 5, 8),
            (3, 7, 5),
            (4, 64, 64),
            (5, 64, 1),
            (8, 16, 16),
            (9, 5, 17),
            (16, 2, 64),
            (16, 64, 5),
            (17, 13, 9),
            (23, 31, 33),
            // The head tile resumes its accumulators once per 64 inputs,
            // starts from the bias alone without inputs, and takes every
            // column group (8, 4, 1) of a 31-column tail.
            (16, 130, 9),
            (32, 65, 5),
            (20, 64, 37),
            (16, 0, 5),
            (48, 64, 31),
        ];
        // The policy and value heads around the 16-row selection boundary:
        // every m in {15, 16, 17, 33, 64}, n in {1, 5, 9}, k in {16, 60, 64}.
        let heads = [15usize, 16, 17, 33, 64].into_iter().flat_map(|m| {
            [16usize, 60, 64]
                .into_iter()
                .flat_map(move |k| [1usize, 5, 9].into_iter().map(move |n| (m, k, n)))
        });
        for (m, k, n) in shapes.into_iter().chain(heads) {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|_| next()).collect());
            let b = Matrix::from_vec(k, n, (0..k * n).map(|_| next()).collect());
            let bias: Vec<f32> = (0..n).map(|_| next()).collect();
            let mut out = Matrix::zeros(0, 0);
            a.matmul_into(&b, &mut out);
            assert_eq!(out, matmul_reference(&a, &b, None), "plain {m}x{k}x{n}");
            a.matmul_bias_into(&b, &bias, &mut out);
            let reference = matmul_reference(&a, &b, Some(&bias));
            assert_eq!(out, reference, "biased {m}x{k}x{n}");
            // Each kernel instantiates the row tail with its own NR.
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for &kern in &available_kernels() {
                let mut out = vec![f32::NAN; m * n];
                gemm_bias_with(kern, m, k, n, a.data(), b.data(), Some(&bias), &mut out);
                assert_eq!(
                    bits(&out),
                    bits(reference.data()),
                    "{} biased {m}x{k}x{n}",
                    kern.name()
                );
            }
        }
    }

    /// Every compiled micro-kernel (baseline 4×8, the AVX2 8×8 / 4×16 and
    /// the AVX-512 4×32 tiles where available) must produce bit-identical
    /// outputs: kernel selection is a pure throughput decision, never a
    /// numerics one. This is what lets the baseline and `target-cpu=native`
    /// CI legs share all golden values.
    #[test]
    fn all_kernels_bit_identical() {
        let kernels = available_kernels();
        assert_eq!(kernels[0], GemmKernel::Tile4x8);
        for &(m, k, n) in &[
            (1usize, 7usize, 13usize),
            (4, 16, 8),
            (7, 9, 17),
            (8, 64, 64),
            (11, 3, 16),
            (16, 64, 64),
            (16, 130, 9),
            (17, 64, 1),
            (33, 17, 21),
            (64, 64, 5),
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 31 % 89) as f32 - 44.0) * 0.017)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 67 % 71) as f32 - 35.0) * 0.029)
                .collect();
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 5.0) * 0.11).collect();
            let mut reference = vec![0.0f32; m * n];
            gemm_bias_with(kernels[0], m, k, n, &a, &b, Some(&bias), &mut reference);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for &kern in &kernels[1..] {
                let mut out = vec![0.0f32; m * n];
                gemm_bias_with(kern, m, k, n, &a, &b, Some(&bias), &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "{} differs from baseline on {m}x{k}x{n}",
                    kern.name()
                );
            }
        }
    }

    #[test]
    fn kernel_selection_prefers_wide_tiles_when_available() {
        let kernels = available_kernels();
        let short = if kernels.contains(&GemmKernel::Tile4x16) {
            GemmKernel::Tile4x16
        } else {
            GemmKernel::Tile4x8
        };
        let tall = if kernels.contains(&GemmKernel::Tile4x32) {
            GemmKernel::Tile4x32
        } else {
            short
        };
        // One-row decisions and few-env rollout batches keep the AVX2 tile;
        // products of at least one 16-row update shard take AVX-512.
        for m in [0, 1, 4, AVX512_MIN_ROWS - 1] {
            assert_eq!(select_kernel(m), short, "{m} rows");
        }
        for m in [AVX512_MIN_ROWS, AVX512_MIN_ROWS + 1, 64, 256] {
            assert_eq!(select_kernel(m), tall, "{m} rows");
        }
        assert_eq!(AVX512_MIN_ROWS, crate::SHARD_ROWS);
    }

    #[test]
    fn transpose_into_transposes() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let mut t = Matrix::zeros(0, 0);
        m.transpose_into(&mut t);
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        let mut back = Matrix::zeros(0, 0);
        t.transpose_into(&mut back);
        assert_eq!(back, m);
    }

    #[test]
    fn batched_rows_bit_identical_to_single_rows() {
        // Row r of a batched product must equal the 1-row product of row r:
        // the bit-identity contract batched inference relies on. From 16
        // rows up the batch runs on the AVX-512 tile where it is available
        // while one row stays on the AVX2 tile, so the hidden layer and
        // both heads are checked on each side of that boundary.
        for m in [11usize, 16, 17, 64] {
            for (k, n) in [(16usize, 64usize), (64, 9), (64, 1)] {
                let a = Matrix::from_vec(
                    m,
                    k,
                    (0..m * k)
                        .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013)
                        .collect(),
                );
                let b = Matrix::from_vec(
                    k,
                    n,
                    (0..k * n)
                        .map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.021)
                        .collect(),
                );
                let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 32.0) * 0.05).collect();
                let mut full = Matrix::zeros(0, 0);
                a.matmul_bias_into(&b, &bias, &mut full);
                let mut single = Matrix::zeros(0, 0);
                for r in 0..m {
                    let row = Matrix::from_vec(1, k, a.row(r).to_vec());
                    row.matmul_bias_into(&b, &bias, &mut single);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(full.row(r)),
                        bits(single.row(0)),
                        "row {r} of {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn copy_from_matches_source() {
        let src = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let mut dst = Matrix::zeros(5, 5);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn reshape_reuses_allocation() {
        let mut m = Matrix::zeros(4, 4);
        m.set(0, 0, 5.0);
        m.reshape_zeroed(2, 2);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.data(), &[0., 0., 0., 0.]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn serde_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let s = serde_json::to_string(&m).unwrap();
        let m2: Matrix = serde_json::from_str(&s).unwrap();
        assert_eq!(m, m2);
    }
}
