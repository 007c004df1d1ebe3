//! # tlsfp-bench — reproduction harness
//!
//! One runner per table/figure of the paper (see [`experiments`]) plus
//! ablation studies over the design choices ([`ablations`]), all timed
//! through one measurement module ([`measure`]). The `repro` binary
//! drives them:
//!
//! ```text
//! cargo run --release -p tlsfp-bench --bin repro -- all
//! cargo run --release -p tlsfp-bench --bin repro -- fig6 [--full|--smoke]
//! cargo run --release -p tlsfp-bench --bin repro -- table2
//! cargo run --release -p tlsfp-bench --bin repro -- ablations
//! ```
//!
//! Two criterion bench targets live under `benches/`: `paper` times
//! the operation behind each table and figure on models provisioned
//! once, and `microbench` times the substrate components.

#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod measure;
