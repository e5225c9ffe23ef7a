#![warn(missing_docs)]

//! `tagnn-sysbench`: one repeatable benchmark for the batch engine and
//! the serving stack. See `README.md` next to this crate for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.
//!
//! The crate edits nothing under the crates it measures: every layer is
//! timed from outside, through its public functions.

pub mod batch;
pub mod layers;
pub mod replay;
pub mod report;
pub mod serving;
pub mod spans;
pub mod spec;
pub mod stats;
