//! Big-modulus polynomial multiplication via RNS/CRT limb decomposition.
//!
//! ```text
//! cargo run --release --example rns_polymul
//! ```
//!
//! A single BP-NTT tile computes mod one word-sized prime `q`. HE-style
//! workloads need coefficient moduli of hundreds of bits — far past any
//! tile word. The residue number system bridges the gap: pick `L`
//! NTT-friendly primes, work mod each independently (one limb tenant
//! per prime, fanned out concurrently), and reconstruct the big-integer
//! answer with the Chinese Remainder Theorem. This example walks that
//! path through the [`NttService`] on both backends and checks, exiting
//! non-zero on any failure, that:
//!
//! * the reconstruction equals a hand-rolled bigint schoolbook product
//!   mod `Q`;
//! * a second RNS group over the same basis imports at least `L − 1`
//!   compiled pipelines from the cross-tenant cache instead of
//!   recompiling;
//! * one request runs as one fan-out round: all `L` limbs concurrently.

use std::sync::Arc;

use bpntt_core::{BackendKind, BigUint, NttService, RnsBasis, RnsRequest, ServiceOptions};
use bpntt_modmath::primes::find_ntt_primes;
use bpntt_rns::reference::negacyclic_polymul_basis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- build a basis: three ~30-bit NTT-friendly primes for N = 256 ----
    // Q = q0·q1·q2 is ~90 bits — no single tile word could hold it.
    let n: usize = 256;
    let primes = find_ntt_primes(30, n as u64, 3)?;
    let basis = Arc::new(RnsBasis::new(n, &primes)?);
    let limbs = basis.limbs();
    println!(
        "basis: {:?} → Q is {} bits ({})",
        basis.primes(),
        basis.modulus_bits(),
        basis.modulus()
    );

    // Deterministic operands with coefficients over the full 0..Q range.
    let mut x = 0x5EEDu64;
    let mut big_poly = || -> Vec<BigUint> {
        (0..n)
            .map(|_| {
                let mut limbs = Vec::with_capacity(2);
                for _ in 0..2 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    limbs.push(x);
                }
                BigUint::from_limbs(limbs).rem(basis.modulus())
            })
            .collect()
    };
    let a = big_poly();
    let b = big_poly();
    let expect = negacyclic_polymul_basis(&a, &b, &basis)?;

    for backend in [BackendKind::Sim, BackendKind::Native] {
        let service = NttService::start(
            &bpntt_core::BpNttConfig::paper_256pt_16bit()?,
            ServiceOptions {
                backend,
                ..ServiceOptions::default()
            },
        )?;
        // Polymul holds both operands resident: 2N + 6 rows. 31-bit words
        // on a 62-column slice give 2 lanes per limb engine.
        let _first = service.add_rns_tenant(2 * n + 6, 62, 31, &basis)?;
        let hits_before = service.metrics().pipeline_cache_hits;
        let second = service.add_rns_tenant(2 * n + 6, 62, 31, &basis)?;
        let plan_cache_hits = service.metrics().pipeline_cache_hits - hits_before;
        assert!(
            plan_cache_hits >= (limbs - 1) as u64,
            "[{backend:?}] second RNS group recompiled limb plans: {plan_cache_hits} cache hits"
        );

        // The request runs on the group whose plans came from the cache.
        let result = service
            .submit_rns(&second, RnsRequest::polymul(a.clone(), b.clone()))?
            .wait()?;
        assert_eq!(
            result.coefficients, expect,
            "[{backend:?}] CRT reconstruction diverged from the bigint reference"
        );
        let m = service.shutdown();
        assert_eq!(
            m.rns_fanout_waves, 1,
            "[{backend:?}] the {limbs} limbs of one request did not run as one fan-out round"
        );
        println!(
            "{backend:?}: {} RNS request ({} limbs) through tenants {:?} in {} fan-out round, \
             {plan_cache_hits} plan-cache hits for the second group, reconstruction exact",
            m.rns_requests,
            m.rns_limbs,
            second.limb_tenants(),
            m.rns_fanout_waves
        );
        println!("  c[0] = {}", result.coefficients[0]);
    }
    println!("both backends agree with the bigint reference");
    Ok(())
}
