//! Pieces of the `fsi-perfbench` benchmark that stand on their own: the
//! seeded inputs, the result oracle, the open-loop load generator, the
//! percentile helper and the span log. `src/main.rs` assembles them into
//! the three workloads; `tests/pieces.rs` checks them.

pub mod digest;
pub mod oracle;
pub mod prom;
pub mod queries;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod wire;
