#![warn(missing_docs)]

//! Dense linear algebra and similarity kernels underpinning the TaGNN stack.
//!
//! The crate deliberately implements only the operations DGNN inference
//! needs — row-major dense matrices, (parallel) matrix multiplication,
//! element-wise ops, activations, cosine similarity, and the delta/condense
//! machinery used by similarity-aware cell skipping — so that both the
//! software engines (`tagnn-models`) and the accelerator simulator
//! (`tagnn-sim`) share one arithmetic substrate and produce bit-identical
//! results.

pub mod activation;
pub mod affinity;
pub mod dispatch;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod similarity;

pub use activation::Activation;
pub use affinity::{pin_current_thread, pinning_enabled};
pub use dispatch::{DispatchMode, DispatchTally, Dispatcher, RowBitmap};
pub use kernels::{Scratch, ScratchBuf};
pub use matrix::DenseMatrix;
