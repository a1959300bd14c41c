//! The delay-space convolution architecture (paper §3–§5): the automated
//! transformation from traditional convolutions to temporal hardware, the
//! recurrence engine, the rolling-shutter architectural simulator, and the
//! design-space exploration driver.
//!
//! # Layering
//!
//! * [`SystemDescription`] — what to compute: image geometry, kernels,
//!   stride (the paper's "system description", §5.1).
//! * [`ArchConfig`] — how to build it: unit scale, approximation term
//!   counts, noise environment, energy/area models.
//! * [`Architecture`] — the compiled design: split-sign delay kernels,
//!   nLSE accumulation trees, recurrence schedule, replicated MAC blocks;
//!   knows its own **area**, **per-frame energy** and **timing** (both are
//!   static properties of the hardware, independent of pixel data).
//! * [`exec::run`] — executes an image through the architecture in one of
//!   four [`ArithmeticMode`]s: exact importance-space arithmetic, exact
//!   delay-space arithmetic (nLSE/nLDE), ideal approximation hardware, or
//!   approximation hardware with RJ/PSIJ/VTC noise — the verification
//!   ladder of §5.1.
//! * [`dse`] — the Fig 12 design-space exploration and Pareto frontier.
//!
//! # Quick example
//!
//! ```
//! use ta_core::{ArchConfig, Architecture, ArithmeticMode, SystemDescription, exec};
//! use ta_image::{synth, Kernel};
//!
//! let desc = SystemDescription::new(32, 32, vec![Kernel::sobel_x()], 1)?;
//! let cfg = ArchConfig::fast_1ns(7, 20);
//! let arch = Architecture::new(desc, cfg)?;
//! let img = synth::natural_image(32, 32, 1);
//! let run = exec::run(&arch, &img, ArithmeticMode::DelayApprox, 0)?;
//! assert_eq!(run.outputs.len(), 1);
//! println!("energy: {}", run.energy);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
pub mod campaign;
pub mod census;
pub mod dse;
mod error;
pub mod exec;
pub mod fault;
pub mod gate_engine;
mod modes;
pub mod plan;
pub mod recurrence;
pub mod reference;
mod report;
pub mod seed;
mod system;
pub mod transform;
mod tree;

pub use arch::Architecture;
pub use census::{OpCounts, StageEnergy, StageProfile};
pub use error::Error;
pub use fault::{
    enumerate_sites, FaultError, FaultKind, FaultMap, FaultModel, FaultSite, FaultStats,
};
pub use gate_engine::{GateEngine, GateOptSummary, GateRunStats};
pub use modes::ArithmeticMode;
pub use plan::{FramePlan, PlanCacheStats};
pub use report::{RunResult, TimingReport, ValidationError};
pub use system::{ArchConfig, SystemDescription, SystemError};
