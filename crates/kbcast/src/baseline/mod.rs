//! Baselines the paper compares against.
//!
//! * [`bii`] — the Bar-Yehuda–Israeli–Itai multiple-message broadcast
//!   (SICOMP 1993): pipelined per-packet epidemic broadcast, amortized
//!   `O(log n·logΔ)` rounds per packet. The paper's headline claim is
//!   the `log n` factor this loses to the coded algorithm.
//! * The *uncoded* Stage 4 ablation is not a separate implementation:
//!   set [`crate::Config::group_size_override`] to `Some(1)` and the
//!   main algorithm disseminates one packet per group with no coding
//!   gain (experiment E12).

pub mod bii;

pub use bii::{BiiConfig, BiiNode, BiiProtocol};
