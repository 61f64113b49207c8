//! The repository benchmark: seeded workloads, oracles, the `nalixd`
//! process and HTTP client, the in-process traced replay, and the
//! result line. The `perfbench` binary wires them together.

pub mod host;
pub mod oracle;
pub mod report;
pub mod trace;
pub mod workload;
