//! Host-cost benchmark of the HTM simulator.
//!
//! One process builds a workload's inputs from a seed, runs its cell grid
//! as repeated passes for a fixed time, and reports end-to-end host cost
//! (tracing off) or per-layer figures (tracing on) as one JSON line. See
//! `hostbench/README.md` for the workloads, the metrics and how each
//! layer figure maps onto an end-to-end one.

pub mod host;
pub mod layers;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;
