//! Umbrella crate for the BP-NTT workspace: re-exports every layer so the
//! `examples/` directory and downstream users can depend on one crate.
//!
//! The layers, bottom to top:
//!
//! * [`modmath`] — word-level modular arithmetic oracles (Montgomery,
//!   Shoup, carry-save, Algorithm 2 word model);
//! * [`sram`] — the bit-accurate in-SRAM computing simulator and its
//!   compiled-program replay fast path;
//! * [`ntt`] — software reference NTT (forward/inverse/polymul);
//! * [`rns`] — RNS/CRT bases and big-integer coefficients, and the
//!   service types that run a big-modulus request as one limb group;
//! * [`core`] — the BP-NTT accelerator engine (layout, kernels,
//!   compile-once/replay-many programs, sharded batch execution);
//! * [`net`] — the length-prefixed TCP front-end over the core service
//!   (framing, per-tenant fairness, admission control);
//! * [`baselines`], [`cachesim`], [`eval`] — comparison designs and the
//!   paper-figure evaluation harness.

#![forbid(unsafe_code)]

pub mod rns;

pub use bpntt_baselines as baselines;
pub use bpntt_cachesim as cachesim;
pub use bpntt_core as core;
pub use bpntt_eval as eval;
pub use bpntt_modmath as modmath;
pub use bpntt_net as net;
pub use bpntt_ntt as ntt;
pub use bpntt_sram as sram;
