//! Dense neural networks with explicit backpropagation.

pub mod init;
pub mod linear;
pub mod matrix;
pub mod mlp;

pub use linear::{LayerGrads, Linear};
pub use matrix::{
    available_kernels, gemm_bias_with, select_kernel, weight_grad_with, GemmKernel, Matrix,
};
pub use mlp::{Activation, Mlp, MlpCache};
