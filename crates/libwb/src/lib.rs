//! `libwb` — the WebGPU support library.
//!
//! The paper publishes a C++ support library (`wb.h`, "libwb") that lab
//! skeletons link against: it imports instructor-provided datasets,
//! checks student results against expected outputs, and provides logging
//! and timing helpers. This crate is the Rust equivalent, shared by the
//! lab catalog, the simulated GPU toolchain, and the grading pipeline.
//!
//! # Quick tour
//!
//! ```
//! use libwb::{Dataset, check::CheckPolicy, gen};
//!
//! // Instructor side: generate a dataset pair for a vector-add lab.
//! let input0 = gen::random_vector(16, 42);
//! let input1 = gen::random_vector(16, 43);
//! let expected: Vec<f32> = input0.iter().zip(&input1).map(|(a, b)| a + b).collect();
//!
//! // Student side: produce a result and check it.
//! let result = expected.clone();
//! let report = libwb::check::compare(
//!     &Dataset::Vector(result),
//!     &Dataset::Vector(expected),
//!     &CheckPolicy::default(),
//! );
//! assert!(report.passed());
//! ```

pub mod check;
pub mod dataset;
pub mod error;
pub mod gen;
pub mod graph;
pub mod image;
pub mod log;
pub mod rng;
pub mod sparse;
pub mod timer;

pub use check::{CheckPolicy, CheckReport, Mismatch};
pub use dataset::Dataset;
pub use error::WbError;
pub use graph::CsrGraph;
pub use image::Image;
pub use log::{LogLevel, Logger};
pub use sparse::CsrMatrix;
pub use timer::{Timer, TimerKind};

/// Result alias used throughout the support library.
pub type Result<T> = std::result::Result<T, WbError>;
