//! Residue number system (RNS/CRT) support for multi-limb NTT
//! workloads.
//!
//! Production homomorphic-encryption schemes work over ciphertext
//! moduli of hundreds of bits. No word-sized engine can run those
//! directly; instead the modulus is a product `Q = Π q_i` of distinct
//! NTT-friendly primes and every polynomial is carried as its residues
//! modulo each `q_i` — `L` independent word-sized problems instead of
//! one big one. This crate provides the math layer for that split:
//!
//! - [`BigUint`] — a minimal `Vec<u64>`-limb big integer (the
//!   workspace builds offline, so no external bignum crate).
//! - [`RnsBasis`] — a validated prime basis for a ring degree, with
//!   precomputed CRT constants (`q̂_i`, `q̂_i⁻¹`) and per-limb
//!   [`NttParams`](bpntt_ntt::NttParams); decompose/reconstruct for
//!   scalars and polynomials.
//! - [`reference`] — a direct negacyclic `a·b mod (Xⁿ+1, Q)` over
//!   [`BigUint`] coefficients, sharing no code with the NTT engines,
//!   used as the end-to-end correctness oracle.
//!
//! The execution side — one limb tenant per prime, with limb groups
//! admitted and fanned out through the service — is
//! `bpntt_core::NttService::add_rns_tenant` / `submit_rns`, which build
//! on this crate.
//!
//! ```
//! use bpntt_rns::{BigUint, RnsBasis, reference};
//!
//! // Three 14-bit primes ≡ 1 mod 2·256: a ~41-bit composite modulus.
//! let basis = RnsBasis::new(256, &[12289, 13313, 15361])?;
//! let mut a = vec![BigUint::zero(); 256];
//! let mut b = vec![BigUint::zero(); 256];
//! a[0] = BigUint::from_u64(123_456_789);
//! b[1] = BigUint::from_u64(987_654_321);
//!
//! // Decompose, then reconstruct: a lossless round trip below Q.
//! let limbs = basis.decompose_poly(&a)?;
//! assert_eq!(basis.reconstruct_poly(&limbs)?, a);
//!
//! // The reference product is the oracle the NTT paths must match.
//! let c = reference::negacyclic_polymul_basis(&a, &b, &basis)?;
//! assert_eq!(
//!     c[1],
//!     BigUint::from_u64(123_456_789).mul_mod(&BigUint::from_u64(987_654_321), basis.modulus())
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod bigint;
pub mod reference;

pub use basis::{RnsBasis, RnsError};
pub use bigint::BigUint;
