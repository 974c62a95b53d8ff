//! The repository's one repeatable benchmark: four workloads, end-to-end
//! and per-layer metrics, and a traced run. `BENCHMARK.json` at the
//! repository root names the command; `README.md` explains the numbers.
//!
//! Everything is measured from outside the program, through its public
//! functions and already-public outputs; no source file of the program
//! changes for the benchmark.

pub mod inproc;
pub mod json;
pub mod layers;
pub mod quality;
pub mod report;
pub mod rng;
pub mod service;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
