//! Host-side execution model: pinned logical threads.
//!
//! The paper pins each test thread to a specific CPU core and lets
//! RocksDB's background workers share those cores. In this reproduction,
//! *logical* threads execute deterministically (serially) while every
//! operation they perform is charged to the shared ledger; the
//! [`kvcsd_sim::TimeModel`] then divides the phase's total host work by
//! its thread count, clamped to the host's cores. This yields the same
//! steady-state arithmetic as real pinned threads — total work over
//! available cores — with exactly reproducible results.

pub mod threads;

pub use threads::run_threads;
