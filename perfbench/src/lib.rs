//! Query-path benchmark for the resacc service.
//!
//! One run generates a BA-20k graph and a request stream from a seed,
//! starts `rwr serve` (and `rwr router`) as child processes, drives them
//! over loopback NDJSON, checks every answer, and prints the end-to-end
//! metrics. With `--trace 1` it also replays the same stream in-process
//! through the library's public functions, recording a span per call, and
//! prints the per-layer metrics instead. See `perfbench/README.md`.

pub mod compare;
pub mod drive;
pub mod e2e;
pub mod plan;
pub mod stats;
pub mod trace;
pub mod wire;
