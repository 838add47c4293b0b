//! The layered performance ledger of the Tsuru reproduction (see
//! README.md): five end-to-end workloads, per-layer drivers, host spans.
//!
//! The library holds everything but the command line, so the smoke test
//! can read the metric declarations it checks `BENCHMARK.json` against.

pub mod alloc;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spans;
pub mod surface;
pub mod workloads;
