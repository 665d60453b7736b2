//! `rns_saturated`: a closed loop on one thread that keeps a fixed window
//! of 3-limb, ~90-bit, N = 256 polymuls in flight through
//! `add_rns_tenant` / `submit_rns`, with SpotCheck verification. The
//! window is twice a limb engine's lanes, so waves stay full and the
//! per-request costs (decompose, limb-group dispatch, CRT reconstruct)
//! set throughput.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpntt_core::{
    BigUint, BpNttConfig, BpNttError, NttService, RnsBasis, RnsHandle, RnsRequest, RnsTicket,
    ServiceOptions, VerifyPolicy,
};
use bpntt_modmath::primes::find_ntt_primes;
use bpntt_rns::reference::negacyclic_polymul_basis;

use crate::check::Checker;
use crate::ledger::{self, Req, Shape};
use crate::report::{
    peak_rss_mb, timed, trace_overhead, window_service_metrics, write_trace, EndToEnd, Outcome,
    SETUPS,
};
use crate::trace::Trace;
use crate::{stats, Args, Rng};

const N: usize = 256;
/// Limb tenant geometry: both operands resident (2N + 6 rows), 31-bit
/// tiles in 256 columns, so 8 lanes per shard.
const ROWS: usize = 2 * N + 6;
const COLS: usize = 256;
const BITS: usize = 31;
/// Distinct operand pairs the loop cycles through.
const POOL: usize = 16;
const IN_FLIGHT_WAVES: usize = 2;
/// Rounds of direct lower-layer calls in a traced run.
const DIRECT_REPS: usize = 4;

fn basis() -> Result<Arc<RnsBasis>, String> {
    let primes = find_ntt_primes(30, N as u64, 3).map_err(|e| e.to_string())?;
    Ok(Arc::new(
        RnsBasis::new(N, &primes).map_err(|e| e.to_string())?,
    ))
}

fn limb_config(basis: &RnsBasis, limb: usize) -> Result<BpNttConfig, String> {
    BpNttConfig::new(ROWS, COLS, BITS, basis.params()[limb].clone()).map_err(|e| e.to_string())
}

fn options() -> ServiceOptions {
    ServiceOptions {
        verify: VerifyPolicy::SpotCheck { points: 2 },
        ..ServiceOptions::default()
    }
}

/// Requests kept in flight: two waves of every limb engine's lanes, so a
/// wave's worth is always queued behind the one running.
fn in_flight() -> Result<usize, String> {
    let b = basis()?;
    Ok(IN_FLIGHT_WAVES * options().shards * limb_config(&b, 0)?.layout().lanes())
}

type Pair = (Vec<BigUint>, Vec<BigUint>);

fn big_poly(rng: &mut Rng, q: &BigUint) -> Vec<BigUint> {
    (0..N)
        .map(|_| BigUint::from_limbs(vec![rng.next_u64(), rng.next_u64()]).rem(q))
        .collect()
}

fn set_up(basis: &Arc<RnsBasis>, pool: &[Pair]) -> Result<(NttService, RnsHandle), String> {
    let svc = NttService::start(&limb_config(basis, 0)?, options()).map_err(|e| e.to_string())?;
    let handle = svc
        .add_rns_tenant(ROWS, COLS, BITS, basis)
        .map_err(|e| e.to_string())?;
    for (a, b) in pool.iter().take(2) {
        svc.submit_rns(&handle, RnsRequest::polymul(a.clone(), b.clone()))
            .and_then(RnsTicket::wait)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    Ok((svc, handle))
}

struct Record {
    latency_ms: f64,
    submit_us: f64,
    done: Instant,
}

struct Window {
    start: Instant,
    records: Vec<Record>,
    checker: Checker<Vec<BigUint>>,
    sent: u64,
    shed: u64,
    failed: u64,
    elapsed_s: f64,
}

fn closed_loop(
    svc: &NttService,
    handle: &RnsHandle,
    pool: &[Pair],
    first_id: u64,
    secs: f64,
    trace: &mut Trace,
) -> Result<Window, String> {
    let window = in_flight()?;
    let start = Instant::now();
    let mut w = Window {
        start,
        records: Vec::new(),
        checker: Checker::new(POOL),
        sent: 0,
        shed: 0,
        failed: 0,
        elapsed_s: 0.0,
    };
    let end = start + Duration::from_secs_f64(secs);
    let mut flight: VecDeque<(u64, Instant, Instant, RnsTicket)> = VecDeque::new();
    let mut next = first_id;
    loop {
        while flight.len() < window && Instant::now() < end {
            let (a, b) = &pool[next as usize % POOL];
            let req = RnsRequest::polymul(a.clone(), b.clone());
            let t0 = Instant::now();
            let ticket = svc.submit_rns(handle, req);
            let t1 = Instant::now();
            w.sent += 1;
            match ticket {
                Ok(t) => flight.push_back((next, t0, t1, t)),
                Err(BpNttError::Overloaded { .. } | BpNttError::RateLimited { .. }) => w.shed += 1,
                Err(e) => return Err(format!("submit_rns rejected a valid request: {e}")),
            }
            next += 1;
        }
        let Some((id, t0, t1, ticket)) = flight.pop_front() else {
            break;
        };
        let result = ticket.wait();
        let done = Instant::now();
        match result {
            Ok(r) => {
                w.checker.record(id as usize % POOL, r.coefficients);
                w.records.push(Record {
                    latency_ms: (done - t0).as_secs_f64() * 1e3,
                    submit_us: (t1 - t0).as_secs_f64() * 1e6,
                    done,
                });
                let root = trace.record("request", id, None, t0, done);
                trace.record("NttService::submit_rns", id, Some(root), t0, t1);
                trace.record("RnsTicket::wait", id, Some(root), t1, done);
            }
            Err(_) => w.failed += 1,
        }
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    Ok(w)
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::new("rns_saturated");
    let basis = basis()?;
    let mut rng = Rng::new(args.seed, 3);
    let pool: Vec<Pair> = (0..POOL)
        .map(|_| {
            (
                big_poly(&mut rng, basis.modulus()),
                big_poly(&mut rng, basis.modulus()),
            )
        })
        .collect();
    let mut e2e = EndToEnd {
        pre_s: process_start.elapsed().as_secs_f64(),
        ..EndToEnd::default()
    };
    let ((svc, handle), secs) = timed(|| set_up(&basis, &pool))?;
    e2e.setups_s.push(secs);

    let before = svc.metrics();
    let epoch = Instant::now();
    let mut trace = Trace::new(false, epoch);
    let (main, traced) = if args.trace {
        let untraced = closed_loop(&svc, &handle, &pool, 0, args.seconds / 2.0, &mut trace)?;
        let mut t = Trace::new(true, epoch);
        let traced = closed_loop(
            &svc,
            &handle,
            &pool,
            untraced.sent,
            args.seconds / 2.0,
            &mut t,
        )?;
        trace = t;
        (untraced, Some(traced))
    } else {
        (
            closed_loop(&svc, &handle, &pool, 0, args.seconds, &mut trace)?,
            None,
        )
    };
    let after = svc.metrics();
    let final_metrics = svc.shutdown();
    e2e.peak_rss_mb = peak_rss_mb();
    for _ in 1..SETUPS {
        let ((again, _), secs) = timed(|| set_up(&basis, &pool))?;
        e2e.setups_s.push(secs);
        let _ = again.shutdown();
    }

    // ---- checking, after the window ------------------------------------
    let t = Instant::now();
    let refs: Vec<Vec<BigUint>> = pool
        .iter()
        .map(|(a, b)| negacyclic_polymul_basis(a, b, &basis).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    out.note(format!(
        "bigint reference for {POOL} products: {:.2} s",
        t.elapsed().as_secs_f64()
    ));
    let main_latencies: Vec<f64> = main.records.iter().map(|r| r.latency_ms).collect();
    let main_done_s: Vec<f64> = main
        .records
        .iter()
        .map(|r| (r.done - main.start).as_secs_f64())
        .collect();
    let (main_ok, main_elapsed_s) = (main.records.len() as u64, main.elapsed_s);
    let mut checker = Checker::new(POOL);
    let (mut shed, mut failed, mut window_s) = (0, 0, 0.0);
    let mut traced_records = None;
    for (i, w) in std::iter::once(main).chain(traced).enumerate() {
        out.attempted += w.sent;
        shed += w.shed;
        failed += w.failed;
        window_s += w.elapsed_s;
        checker.merge(w.checker);
        if i == 1 {
            traced_records = Some((w.records, w.elapsed_s));
        }
    }
    let wrong = checker.wrong(|slot| refs[slot].clone());
    out.failed = shed + failed + wrong;
    out.gate(wrong == 0, || {
        format!("{wrong} results differ from negacyclic_polymul_basis")
    });
    out.gate(failed == 0, || format!("{failed} requests failed"));
    out.service_gates(&final_metrics);
    window_service_metrics(&before, &after, window_s, &mut out);

    // Limbs run concurrently: the slowest limb sets the modeled latency;
    // energy is per limb transform.
    let mut modeled_latency: f64 = 0.0;
    let mut modeled_energy = 0.0;
    for limb in 0..basis.limbs() {
        let cfg = limb_config(&basis, limb)?;
        let (l, e) = ledger::modeled_chunk(&cfg, Shape::Polymul)?;
        modeled_latency = modeled_latency.max(l);
        modeled_energy += e / (cfg.layout().lanes() as f64 * f64::from(Shape::Polymul.ntts()));
    }
    e2e.modeled_latency_us = modeled_latency;
    e2e.modeled_energy_nj_per_ntt = modeled_energy / basis.limbs() as f64;
    e2e.latencies_ms = main_latencies.clone();
    e2e.done_s = main_done_s;
    e2e.window_s = main_elapsed_s;
    e2e.correct = main_ok.saturating_sub(wrong);

    if let Some((records, elapsed_s)) = traced_records {
        let traced_latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
        crate::report::require_p99(traced_latencies.len())?;
        trace_overhead(&mut out, &main_latencies, &traced_latencies, elapsed_s);
        direct_layers(&mut out, &basis, &pool, &refs, &records, &mut trace)?;
        write_trace(&trace, args, &mut out);
    }
    out.set_end_to_end(&e2e)?;
    Ok(out)
}

/// Direct calls on the pooled inputs: decompose and reconstruct, then
/// every limb's sharded wave, engine and verifier; and the ledger of the
/// traced requests.
fn direct_layers(
    out: &mut Outcome,
    basis: &RnsBasis,
    pool: &[Pair],
    refs: &[Vec<BigUint>],
    records: &[Record],
    trace: &mut Trace,
) -> Result<(), String> {
    let mut limb_pools: Vec<Vec<Req>> = vec![Vec::new(); basis.limbs()];
    let mut limb_refs: Vec<Vec<Vec<u64>>> = vec![Vec::new(); basis.limbs()];
    for (k, ((a, b), r)) in pool.iter().zip(refs).enumerate() {
        let k = k as u64;
        let da = trace.time("RnsBasis::decompose_poly", k, None, || {
            basis.decompose_poly(a)
        });
        let db = trace.time("RnsBasis::decompose_poly", k, None, || {
            basis.decompose_poly(b)
        });
        let dr = basis.decompose_poly(r);
        let (da, db, dr) = (
            da.map_err(|e| e.to_string())?,
            db.map_err(|e| e.to_string())?,
            dr.map_err(|e| e.to_string())?,
        );
        let back = trace.time("RnsBasis::reconstruct_poly", k, None, || {
            basis.reconstruct_poly(&dr)
        });
        out.gate(back.as_ref().is_ok_and(|x| x == r), || {
            format!("reconstruct_poly does not invert decompose_poly on pool entry {k}")
        });
        for (limb, ((x, y), z)) in da.into_iter().zip(db).zip(dr).enumerate() {
            limb_pools[limb].push(Req {
                shape: Shape::Polymul,
                inputs: vec![x, y],
            });
            limb_refs[limb].push(z);
        }
    }
    let decompose_us = stats::median(&trace.durations("RnsBasis::decompose_poly"));
    let reconstruct_us = stats::median(&trace.durations("RnsBasis::reconstruct_poly"));
    out.set_layer("rns.decompose_us", decompose_us);
    out.set_layer("rns.reconstruct_us", reconstruct_us);

    let wave_polys = out
        .layer
        .get("sharded.polys_per_wave")
        .copied()
        .unwrap_or(1.0);
    let mut all = ledger::Direct::default();
    for limb in 0..basis.limbs() {
        let d = ledger::direct_calls(
            &limb_config(basis, limb)?,
            &limb_pools[limb],
            &limb_refs[limb],
            options().verify,
            &[Shape::Polymul],
            wave_polys.round() as usize,
            DIRECT_REPS,
            trace,
        )?;
        all.merge(d);
    }
    ledger::set_direct_layers(out, &all, trace);

    // On two cores the three limb waves of a group share the cores, so
    // their times add up.
    let per_wave = all.cost[Shape::Polymul as usize];
    let total: f64 = records.iter().map(|r| r.latency_ms).sum();
    let n = records.len() as f64;
    let submit: f64 = records.iter().map(|r| r.submit_us / 1e3).sum();
    let share = |x: f64| if total > 0.0 { x / total } else { 0.0 };
    let (wave, verify, rns) = (
        share(n * per_wave.wave_ms),
        share(n * per_wave.verify_ms),
        share(n * reconstruct_us / 1e3),
    );
    out.set_layer("ledger.submit_share", share(submit));
    out.set_layer("ledger.wave_share", wave);
    out.set_layer("ledger.verify_share", verify);
    out.set_layer("ledger.rns_share", rns);
    let unexplained = 1.0 - share(submit) - wave - verify - rns;
    out.set_layer("ledger.unexplained_share", unexplained);
    let submit_us: Vec<f64> = records.iter().map(|r| r.submit_us).collect();
    out.set_layer("service.submit_us_p50", stats::median(&submit_us));
    let wait: Vec<f64> = records
        .iter()
        .map(|r| r.latency_ms - per_wave.wave_ms)
        .collect();
    out.set_layer("service.wait_ms_p50", stats::median(&wait));
    out.note(format!(
        "ledger of traced latency: submit {:.1}%, limb waves {:.1}%, verify {:.1}%, reconstruct {:.1}%, unexplained {:.1}%",
        share(submit) * 100.0,
        wave * 100.0,
        verify * 100.0,
        rns * 100.0,
        unexplained * 100.0
    ));
    Ok(())
}
