//! The RNS/CRT layer in one place: validated prime bases, big-integer
//! coefficients and CRT decompose/reconstruct (from `bpntt_rns`), plus
//! the service types that run a big-modulus request as one limb group
//! per residue prime ([`NttService::add_rns_tenant`] /
//! [`NttService::submit_rns`]).
//!
//! [`NttService::add_rns_tenant`]: crate::core::NttService::add_rns_tenant
//! [`NttService::submit_rns`]: crate::core::NttService::submit_rns

pub use bpntt_core::{RnsHandle, RnsRequest, RnsResult, RnsTicket};
pub use bpntt_rns::{reference, BigUint, RnsBasis, RnsError};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bpntt_core::{
        BpNttConfig, BpNttError, ExecMode, NttService, PipelineRequest, PipelineSpec,
        ServiceOptions,
    };
    use bpntt_ntt::NttParams;

    use super::*;

    const N: usize = 64;
    /// 14-bit primes ≡ 1 mod 1024, so valid for any n ≤ 512.
    const PRIMES: [u64; 3] = [12289, 13313, 15361];
    /// Limb geometry: 140 rows hold two N = 64 operand slots.
    const ROWS: usize = 140;
    const COLS: usize = 128;
    const BITWIDTH: usize = 16;

    fn basis() -> Arc<RnsBasis> {
        Arc::new(RnsBasis::new(N, &PRIMES).unwrap())
    }

    /// A service whose default tenant is a tiny 8-point config: the tests
    /// talk to the RNS limb tenants they register.
    fn service() -> NttService {
        let cfg = BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap();
        NttService::start(&cfg, ServiceOptions::default()).unwrap()
    }

    fn test_polys(seed: u64, basis: &RnsBasis) -> Vec<BigUint> {
        // Deterministic pseudo-random coefficients below Q.
        let modulus = basis.modulus();
        (0..basis.n())
            .map(|i| {
                let x = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                BigUint::from_limbs(vec![x, x.rotate_left(29)]).rem(modulus)
            })
            .collect()
    }

    #[test]
    fn rns_polymul_matches_bigint_reference() {
        let service = service();
        let basis = basis();
        let handle = service
            .add_rns_tenant(ROWS, COLS, BITWIDTH, &basis)
            .unwrap();
        let a = test_polys(1, &basis);
        let b = test_polys(2, &basis);
        let expect = reference::negacyclic_polymul_basis(&a, &b, &basis).unwrap();
        for mode in ExecMode::ALL {
            let got = service
                .submit_rns(
                    &handle,
                    RnsRequest::polymul(a.clone(), b.clone()).with_mode(mode),
                )
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(got.coefficients, expect, "{mode:?}");
        }
        let _ = service.shutdown();
    }

    #[test]
    fn fanned_equals_sequential_and_fills_more_shards() {
        // The same polymul once as an RNS group (all limbs in one fan-out
        // round) and once limb by limb as ordinary requests, each awaited
        // before the next is submitted.
        let service = service();
        let basis = basis();
        let handle = service
            .add_rns_tenant(ROWS, COLS, BITWIDTH, &basis)
            .unwrap();
        let limbs = basis.limbs() as u64;
        let a = test_polys(3, &basis);
        let b = test_polys(4, &basis);
        let fanned = service
            .submit_rns(&handle, RnsRequest::polymul(a.clone(), b.clone()))
            .unwrap()
            .wait()
            .unwrap();
        let fan = service.metrics();

        let (ra, rb) = (
            basis.decompose_poly(&a).unwrap(),
            basis.decompose_poly(&b).unwrap(),
        );
        let mut sequential = Vec::new();
        for (limb, &tenant) in handle.limb_tenants().iter().enumerate() {
            let req = PipelineRequest::new(
                PipelineSpec::polymul(),
                vec![ra[limb].clone(), rb[limb].clone()],
            )
            .with_tenant(tenant);
            sequential.push(service.submit_pipeline(req).unwrap().wait().unwrap());
        }
        let seq = service.shutdown();

        assert_eq!(fanned.limbs, sequential);
        assert_eq!(
            basis.reconstruct_poly(&sequential).unwrap(),
            fanned.coefficients
        );
        // Fanned: every limb engine ran in the one round, L engine calls.
        assert_eq!(fan.rns_fanout_waves, 1);
        assert_eq!(fan.waves, limbs);
        // Sequential: one engine busy per wave, and no further round.
        assert_eq!(seq.rns_fanout_waves, 1);
        assert_eq!(seq.waves, 2 * limbs);
        assert_eq!(seq.completed, 2 * limbs);
    }

    #[test]
    fn sibling_contexts_share_compiled_plans() {
        let service = service();
        let basis = basis();
        let limbs = basis.limbs();
        let first = service
            .add_rns_tenant(ROWS, COLS, BITWIDTH, &basis)
            .unwrap();
        let after_first = service.metrics();
        let second = service
            .add_rns_tenant(ROWS, COLS, BITWIDTH, &basis)
            .unwrap();
        let after_second = service.metrics();
        // Every limb of the second group imported instead of compiling:
        // no new cache entries, one hit per limb.
        assert_eq!(
            after_second.pipeline_cache_entries,
            after_first.pipeline_cache_entries
        );
        assert_eq!(
            after_second.pipeline_cache_hits - after_first.pipeline_cache_hits,
            limbs as u64
        );
        // Running both groups compiles nothing more and both stay exact.
        let a = test_polys(5, &basis);
        let b = test_polys(6, &basis);
        let expect = reference::negacyclic_polymul_basis(&a, &b, &basis).unwrap();
        for h in [&first, &second] {
            let got = service
                .submit_rns(h, RnsRequest::polymul(a.clone(), b.clone()))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(got.coefficients, expect);
        }
        let end = service.shutdown();
        assert_eq!(
            end.pipeline_cache_entries,
            after_first.pipeline_cache_entries
        );
        assert_eq!(end.pipeline_cache_hits, after_second.pipeline_cache_hits);
    }

    #[test]
    fn rejects_unreduced_and_misshaped_inputs() {
        let service = service();
        let basis = basis();
        let handle = service
            .add_rns_tenant(ROWS, COLS, BITWIDTH, &basis)
            .unwrap();
        let good = test_polys(7, &basis);
        let short = good[..N - 1].to_vec();
        let err = service
            .submit_rns(&handle, RnsRequest::polymul(good.clone(), short))
            .unwrap_err();
        assert!(matches!(
            err,
            BpNttError::Rns(RnsError::WrongLength { expected: N, actual }) if actual == N - 1
        ));
        let mut unreduced = good.clone();
        unreduced[7] = basis.modulus().clone();
        let err = service
            .submit_rns(&handle, RnsRequest::polymul(good, unreduced))
            .unwrap_err();
        assert!(matches!(
            err,
            BpNttError::Rns(RnsError::Unreduced { index: 7 })
        ));
        assert_eq!(service.shutdown().submitted, 0);
    }
}
