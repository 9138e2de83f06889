//! End-to-end and per-layer benchmark of the KV-CSD stack.
//!
//! Three closed-loop workloads, one client thread at depth 1 each:
//! [`dump`] (VPIC write path), [`query`] (VPIC read path) and [`mixed`]
//! (replicated cluster with foreground writes, reads and compaction).
//! The benchmark drives the program only through its public API and
//! prices every call itself from ledger and clock deltas ([`cost`]); the
//! program sees only generated keys and values, and every query result
//! is checked against the generator's ground truth ([`oracle`]).

pub mod calibrate;
pub mod cost;
pub mod dump;
pub mod meter;
pub mod mixed;
pub mod oracle;
pub mod query;
pub mod run;
pub mod stack;
pub mod stats;
pub mod trace;

pub use kvcsd_sim::WallTimer;

/// A set-up or I/O failure that stops the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError(pub String);

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<kvcsd_client::ClientError> for BenchError {
    fn from(e: kvcsd_client::ClientError) -> Self {
        BenchError(format!("client: {e}"))
    }
}

pub type Result<T> = std::result::Result<T, BenchError>;
