//! MediaBench-style benchmark kernels for security-aware binding.
//!
//! The paper evaluates on 11 DFGs extracted (via SUIF) from 8 MediaBench
//! applications, scheduled onto up to 3 FUs, and profiled with the
//! MediaBench sample workloads. Neither SUIF nor the original C sources are
//! reproducible dependencies, so this crate provides *structurally faithful
//! stand-ins* (see DESIGN.md, substitution table): each kernel is a
//! hand-built [`Dfg`](lockbind_hls::Dfg) whose operation mix mirrors the real kernel
//! (butterflies for `dct`/`fft`, tap-and-accumulate for `fir`, color-convert
//! MACs for the `jdmerge` family, SAD trees for `motion*`, ...), plus a
//! seeded synthetic workload generator reproducing the *value distributions*
//! the real sample data exhibits (DC-dominated pixel blocks, near-128
//! chroma, zero-dominated residuals, ASCII plaintext, ...). Those skewed,
//! per-operation-varying distributions are exactly what the paper's binding
//! algorithms exploit.
//!
//! # Example
//!
//! ```
//! use lockbind_mediabench::Kernel;
//! use lockbind_hls::OccurrenceProfile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = Kernel::Fir.benchmark(200, 42);
//! assert_eq!(bench.dfg.name(), "fir");
//! let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace)?;
//! assert_eq!(profile.frames(), 200);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmark;
mod gen;
mod kernels;
pub mod synthetic;

pub use benchmark::{Benchmark, SuiteStats};
pub use kernels::Kernel;
pub use synthetic::{synthetic_benchmark, SkewParams};
