//! Cross-crate RNS/CRT equivalence tests: RNS polymuls submitted
//! through [`NttService::submit_rns`] against the hand-rolled bigint
//! reference (2/3/5-limb and mixed-scheme bases), compiled-artifact
//! sharing across service tenant groups over the same and overlapping
//! bases, a chaos drill (a dead row on one limb must heal through that
//! limb's own recovery ladder without ever corrupting the CRT
//! reconstruction), and the headline acceptance point: a 3-limb ~90-bit
//! negacyclic polymul at N = 256, bit-exact in **all three**
//! [`ExecMode`]s on **both** backends.

use std::sync::Arc;

use proptest::prelude::*;

use bpntt_core::{
    BackendKind, BigUint, BpNttConfig, ExecMode, FaultPlan, NttService, PipelineSpec,
    RecoveryOptions, RnsBasis, RnsRequest, ServiceOptions, ShardedBpNtt, VerifyPolicy,
};
use bpntt_modmath::primes::find_ntt_primes;
use bpntt_ntt::NttParams;
use bpntt_rns::reference::negacyclic_polymul_basis;

/// 14-bit NTT-friendly primes, valid for n up to 512.
const P14: [u64; 3] = [12289, 13313, 15361];

/// Deterministic degree-`n` polynomial with coefficients spread over the
/// full multi-limb range `0..Q` (xorshift over two 64-bit limbs).
fn big_poly(basis: &RnsBasis, seed: u64) -> Vec<BigUint> {
    let mut x = seed | 1;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..basis.n())
        .map(|_| {
            let limbs = vec![step(), step(), step()];
            BigUint::from_limbs(limbs).rem(basis.modulus())
        })
        .collect()
}

/// Polymul-capable geometry for degree `n`: two operand slots need
/// `2n + 6` rows (plus the intermediate rows every config carries).
fn rows_for(n: usize) -> usize {
    2 * n + 12
}

/// A service on `backend` whose default tenant is a tiny 8-point
/// config: every test here talks to the RNS limb tenants it registers.
fn start_service(backend: BackendKind) -> NttService {
    let cfg = BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap();
    NttService::start(
        &cfg,
        ServiceOptions {
            backend,
            ..ServiceOptions::default()
        },
    )
    .unwrap()
}

/// Runs one negacyclic polymul through [`NttService::submit_rns`] and
/// checks it against the bigint reference.
fn check_polymul(
    n: usize,
    primes: &[u64],
    bitwidth: usize,
    backend: BackendKind,
    mode: ExecMode,
    seed: u64,
) {
    let basis = Arc::new(RnsBasis::new(n, primes).unwrap());
    let service = start_service(backend);
    let handle = service
        .add_rns_tenant_with_backend(rows_for(n), 128, bitwidth, &basis, backend)
        .unwrap();
    let a = big_poly(&basis, seed);
    let b = big_poly(&basis, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let got = service
        .submit_rns(
            &handle,
            RnsRequest::polymul(a.clone(), b.clone()).with_mode(mode),
        )
        .unwrap()
        .wait()
        .unwrap();
    let expect = negacyclic_polymul_basis(&a, &b, &basis).unwrap();
    assert_eq!(
        got.coefficients, expect,
        "n={n} primes={primes:?} {backend:?} {mode:?}"
    );
    let _ = service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 2-limb (~28-bit Q) polymul ≡ bigint reference.
    #[test]
    fn two_limb_polymul_matches_reference(seed in any::<u64>()) {
        check_polymul(64, &P14[..2], 16, BackendKind::Sim, ExecMode::Replay, seed);
    }

    /// 3-limb (~42-bit Q) polymul ≡ bigint reference at n = 128.
    #[test]
    fn three_limb_polymul_matches_reference(seed in any::<u64>()) {
        check_polymul(128, &P14, 16, BackendKind::Sim, ExecMode::Replay, seed);
    }

    /// 5-limb (~70-bit Q) polymul ≡ bigint reference; the basis comes
    /// from the `find_ntt_primes` search the paper's RNS extension
    /// would use.
    #[test]
    fn five_limb_polymul_matches_reference(seed in any::<u64>()) {
        let primes = find_ntt_primes(14, 64, 5).unwrap();
        check_polymul(64, &primes, 16, BackendKind::Sim, ExecMode::Replay, seed);
    }

    /// Mixed scheme primes (Kyber's 3329 beside two 14-bit limbs) at the
    /// largest degree 3329 supports (n = 128 ⇒ 2n | 3328).
    #[test]
    fn mixed_scheme_basis_matches_reference(seed in any::<u64>()) {
        check_polymul(128, &[3329, 12289, 7681], 16, BackendKind::Sim, ExecMode::Replay, seed);
    }

    /// Decompose → reconstruct is the identity on random big polys.
    #[test]
    fn decompose_reconstruct_round_trips(seed in any::<u64>()) {
        let basis = RnsBasis::new(64, &P14).unwrap();
        let poly = big_poly(&basis, seed);
        let limbs = basis.decompose_poly(&poly).unwrap();
        prop_assert_eq!(basis.reconstruct_poly(&limbs).unwrap(), poly);
    }
}

/// Chaos drill: a dead row seeded on ONE limb's engine corrupts that
/// limb persistently. Its own recovery ladder (verify → retry →
/// quarantine → software fallback) must heal it locally, the other
/// limbs must run clean, and the CRT reconstruction must stay exact.
/// A service fault plan reaches every tenant engine, so the drill runs
/// one limb engine per prime by hand, as the limb tenants do.
#[test]
fn dead_row_on_one_limb_heals_without_corrupting_reconstruction() {
    let basis = Arc::new(RnsBasis::new(64, &P14).unwrap());
    let a = big_poly(&basis, 11);
    let b = big_poly(&basis, 12);
    let a_limbs = basis.decompose_poly(&a).unwrap();
    let b_limbs = basis.decompose_poly(&b).unwrap();
    let mut outputs = Vec::new();
    let mut faults_detected = Vec::new();
    for (limb, params) in basis.params().iter().enumerate() {
        let cfg = BpNttConfig::new(rows_for(64), 128, 16, params.clone()).unwrap();
        let mut engine = ShardedBpNtt::with_backend(&cfg, 1, BackendKind::Sim).unwrap();
        engine.set_recovery(RecoveryOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 1,
            software_fallback: true,
        });
        if limb == 1 {
            engine.install_fault_plan(&FaultPlan::seeded(42).dead_row(3));
        }
        let slot_a = [a_limbs[limb].clone()];
        let slot_b = [b_limbs[limb].clone()];
        let mut out = engine
            .run_pipeline_batch(
                &PipelineSpec::polymul(),
                ExecMode::Replay,
                &[&slot_a, &slot_b],
            )
            .unwrap();
        outputs.push(out.pop().unwrap());
        faults_detected.push(engine.last_recovery().faults_detected);
    }
    assert_eq!(
        basis.reconstruct_poly(&outputs).unwrap(),
        negacyclic_polymul_basis(&a, &b, &basis).unwrap(),
        "reconstruction must be exact despite the dead row on limb 1"
    );
    // The corruption was detected and healed on limb 1 …
    assert!(
        faults_detected[1] >= 1,
        "limb 1 must have detected its dead row"
    );
    // … and the healthy limbs never entered their ladders.
    for limb in [0, 2] {
        assert_eq!(faults_detected[limb], 0, "limb {limb} ran clean");
    }
}

/// The acceptance point: a 3-limb (~90-bit `Q`) negacyclic polymul at
/// N = 256, bit-exact against the bigint reference in all three
/// [`ExecMode`]s on both backends.
#[test]
fn ninety_bit_acceptance_all_modes_both_backends() {
    let primes = find_ntt_primes(30, 256, 3).unwrap();
    let basis = Arc::new(RnsBasis::new(256, &primes).unwrap());
    assert!(
        basis.modulus_bits() >= 88,
        "3 × 30-bit limbs must reach ~90 bits (got {})",
        basis.modulus_bits()
    );
    let a = big_poly(&basis, 21);
    let b = big_poly(&basis, 22);
    let expect = negacyclic_polymul_basis(&a, &b, &basis).unwrap();
    for backend in [BackendKind::Sim, BackendKind::Native] {
        let service = start_service(backend);
        let handle = service
            .add_rns_tenant_with_backend(rows_for(256), 62, 31, &basis, backend)
            .unwrap();
        for mode in ExecMode::ALL {
            let got = service
                .submit_rns(
                    &handle,
                    RnsRequest::polymul(a.clone(), b.clone()).with_mode(mode),
                )
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(got.coefficients, expect, "{backend:?} {mode:?}");
        }
        let m = service.shutdown();
        assert_eq!(m.rns_requests, ExecMode::ALL.len() as u64, "{backend:?}");
    }
}

/// Sibling RNS groups over overlapping bases: the second group imports
/// the compiled plans of every prime it shares with the first (one
/// pipeline-cache hit each), compiles only its new prime, and both
/// groups reconstruct exactly against their own basis.
#[test]
fn sibling_contexts_share_compiled_plans() {
    let service = start_service(BackendKind::Sim);
    let primes = find_ntt_primes(14, 64, 4).unwrap();
    let first_basis = Arc::new(RnsBasis::new(64, &primes[..3]).unwrap());
    let second_basis = Arc::new(RnsBasis::new(64, &primes[1..]).unwrap());
    let first = service
        .add_rns_tenant(rows_for(64), 128, 16, &first_basis)
        .unwrap();
    let before = service.metrics();
    let second = service
        .add_rns_tenant(rows_for(64), 128, 16, &second_basis)
        .unwrap();
    let after = service.metrics();
    assert_eq!(
        after.pipeline_cache_hits - before.pipeline_cache_hits,
        2,
        "the two shared primes must import their plans"
    );
    assert!(
        after.pipeline_cache_entries > before.pipeline_cache_entries,
        "the new prime must compile its own plans"
    );
    for (handle, basis, seed) in [(&first, &first_basis, 41), (&second, &second_basis, 43)] {
        let a = big_poly(basis, seed);
        let b = big_poly(basis, seed + 1);
        let got = service
            .submit_rns(handle, RnsRequest::polymul(a.clone(), b.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            got.coefficients,
            negacyclic_polymul_basis(&a, &b, basis).unwrap()
        );
    }
    let _ = service.shutdown();
}

/// Service-level smoke: two tenant groups over one basis share compiled
/// artifacts (≥ L − 1 pipeline-cache hits for the second group) and
/// both reconstruct exactly.
#[test]
fn service_rns_groups_share_artifacts_and_reconstruct() {
    let service = NttService::start(
        &bpntt_core::BpNttConfig::paper_256pt_16bit().unwrap(),
        ServiceOptions::default(),
    )
    .unwrap();
    let basis = Arc::new(RnsBasis::new(64, &P14).unwrap());
    let h1 = service
        .add_rns_tenant(rows_for(64), 128, 16, &basis)
        .unwrap();
    let before = service.metrics().pipeline_cache_hits;
    let h2 = service
        .add_rns_tenant(rows_for(64), 128, 16, &basis)
        .unwrap();
    let hits = service.metrics().pipeline_cache_hits - before;
    assert!(
        hits >= (basis.limbs() - 1) as u64,
        "second group must hit the artifact cache ≥ L−1 times (got {hits})"
    );
    let a = big_poly(&basis, 31);
    let b = big_poly(&basis, 32);
    let expect = negacyclic_polymul_basis(&a, &b, &basis).unwrap();
    for h in [&h1, &h2] {
        let got = service
            .submit_rns(h, RnsRequest::polymul(a.clone(), b.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.coefficients, expect);
    }
    let m = service.shutdown();
    assert_eq!(m.rns_requests, 2);
    assert_eq!(m.rns_limbs, 2 * basis.limbs() as u64);
    assert!(m.rns_fanout_waves >= 1);
}
