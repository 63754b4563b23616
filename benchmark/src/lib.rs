//! The repository's benchmark: time-to-solution and per-layer cost of the
//! ASURA driver on seeded workloads (see README.md).

#![forbid(unsafe_code)]

pub mod checks;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod timing;
