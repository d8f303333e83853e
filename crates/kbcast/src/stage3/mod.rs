//! Stage 3: collecting all packets at the root.
//!
//! The stage is a sequence of *phases*; each phase is a grabbing epoch
//! (the [`schedule`]d `GRAB(x)` = `OSPG(x), OSPG(x/2), …, OSPG(c·log n),
//! MSPG((c·log n)², c·log n)` sequence of randomly-delayed lock-step
//! unicasts up the BFS tree with pipelined acknowledgements back down)
//! followed by an alarming epoch (an epidemic 1-bit flood by every node
//! that still has an unacknowledged packet). The shared estimate of `k`
//! starts at `(D + log n)·log n` and doubles after every alarmed phase;
//! the first alarm-free phase ends the stage (Lemma 5:
//! `O(k + (D + log n)·log n)` rounds in total, w.h.p.).

pub mod collect;
pub mod schedule;

pub use collect::{CollectNode, CollectState};
pub use schedule::{grab_rounds, grab_schedule, phase_rounds, phase_start, ProcDesc};
