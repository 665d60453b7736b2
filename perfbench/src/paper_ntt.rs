//! `paper_ntt`: the paper's Table I point (262×256 array, 16 lanes of
//! 16-bit tiles, N = 256, q = 12289). A closed loop on one thread; each
//! step is one forward-NTT batch: `load_batch` → `forward` →
//! `read_batch`. Nearly all the work is SRAM replay and the kernels.

use std::time::{Duration, Instant};

use bpntt_core::{BpNtt, BpNttConfig};
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::TwiddleTable;
use bpntt_sram::Stats;

use crate::check::Checker;
use crate::ledger;
use crate::report::{peak_rss_mb, timed, trace_overhead, write_trace, EndToEnd, Outcome, SETUPS};
use crate::trace::Trace;
use crate::{stats, Args, Rng};

/// Distinct batches the loop cycles through.
const POOL: usize = 32;
/// Warm-up batches per set-up.
const WARMUP: usize = 4;
/// The paper's Table I figures for this point.
const PAPER_LATENCY_US: f64 = 61.9;
const PAPER_ENERGY_NJ: f64 = 69.4;
/// Seeded batches whose modeled cycles are compared.
const SEEDED_MODEL_BATCHES: usize = 8;

fn set_up(cfg: &BpNttConfig, pool: &[Vec<Vec<u64>>]) -> Result<(BpNtt, f64), String> {
    let mut acc = BpNtt::new(cfg.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    acc.compiled_forward().map_err(|e| e.to_string())?;
    let compile_ms = t.elapsed().as_secs_f64() * 1e3;
    for batch in pool.iter().cycle().take(WARMUP) {
        acc.load_batch(batch).map_err(|e| e.to_string())?;
        acc.forward().map_err(|e| e.to_string())?;
        acc.read_batch(batch.len()).map_err(|e| e.to_string())?;
    }
    Ok((acc, compile_ms))
}

/// Modeled cost of the forward transform alone, as Table I measures it:
/// load, reset the counters, transform.
fn modeled_forward(acc: &mut BpNtt, batch: &[Vec<u64>]) -> Result<Stats, String> {
    acc.load_batch(batch).map_err(|e| e.to_string())?;
    acc.reset_stats();
    acc.forward().map_err(|e| e.to_string())?;
    Ok(*acc.stats())
}

/// The batch `bpntt-eval`'s Table I row is measured on.
fn table1_batch(n: usize, q: u64, lanes: usize) -> Vec<Vec<u64>> {
    (0..lanes as u64)
        .map(|s| {
            (0..n as u64)
                .map(|j| (s * 7919 + j * 104_729 + 13) % q)
                .collect()
        })
        .collect()
}

struct Window {
    latencies_ms: Vec<f64>,
    done_s: Vec<f64>,
    steps: u64,
    elapsed_s: f64,
}

/// Runs steps for `secs`, from pool slot `start` on.
fn window(
    acc: &mut BpNtt,
    pool: &[Vec<Vec<u64>>],
    start: u64,
    secs: f64,
    checker: &mut Checker<Vec<Vec<u64>>>,
    trace: &mut Trace,
) -> Result<Window, String> {
    let lanes = pool[0].len();
    let (mut latencies_ms, mut done_s) = (Vec::new(), Vec::new());
    let t_start = Instant::now();
    let end = t_start + Duration::from_secs_f64(secs);
    let mut k = start;
    loop {
        let slot = (k % POOL as u64) as usize;
        let batch = &pool[slot];
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let out = if trace.enabled() {
            let step = trace.open("step", k, None, t0);
            trace
                .time("BpNtt::load_batch", k, Some(step), || acc.load_batch(batch))
                .map_err(|e| e.to_string())?;
            trace
                .time("BpNtt::forward", k, Some(step), || acc.forward())
                .map_err(|e| e.to_string())?;
            let out = trace.time("BpNtt::read_batch", k, Some(step), || acc.read_batch(lanes));
            trace.close(step, Instant::now());
            out.map_err(|e| e.to_string())?
        } else {
            acc.load_batch(batch).map_err(|e| e.to_string())?;
            acc.forward().map_err(|e| e.to_string())?;
            acc.read_batch(lanes).map_err(|e| e.to_string())?
        };
        let t1 = Instant::now();
        latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
        done_s.push((t1 - t_start).as_secs_f64());
        checker.record(slot, std::hint::black_box(out));
        k += 1;
    }
    Ok(Window {
        latencies_ms,
        done_s,
        steps: k - start,
        elapsed_s: t_start.elapsed().as_secs_f64(),
    })
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::new("paper_ntt");
    let cfg = BpNttConfig::paper_256pt_16bit().map_err(|e| e.to_string())?;
    let params = cfg.params().clone();
    let (n, q, lanes) = (params.n(), params.modulus(), cfg.layout().lanes());
    let mut rng = Rng::new(args.seed, 1);
    let pool: Vec<Vec<Vec<u64>>> = (0..POOL)
        .map(|_| (0..lanes).map(|_| rng.poly(n, q)).collect())
        .collect();
    let mut e2e = EndToEnd {
        pre_s: process_start.elapsed().as_secs_f64(),
        ..EndToEnd::default()
    };

    let ((mut acc, c), secs) = timed(|| set_up(&cfg, &pool))?;
    e2e.setups_s.push(secs);
    let mut compile_ms = vec![c];

    let mut checker = Checker::new(POOL);
    let epoch = Instant::now();
    let mut trace = Trace::new(false, epoch);
    acc.reset_stats();
    let (main, traced) = if args.trace {
        let untraced = window(
            &mut acc,
            &pool,
            0,
            args.seconds / 2.0,
            &mut checker,
            &mut trace,
        )?;
        let mut t = Trace::new(true, epoch);
        let traced = window(
            &mut acc,
            &pool,
            untraced.steps,
            args.seconds / 2.0,
            &mut checker,
            &mut t,
        )?;
        trace = t;
        (untraced, Some(traced))
    } else {
        (
            window(&mut acc, &pool, 0, args.seconds, &mut checker, &mut trace)?,
            None,
        )
    };
    let steps = main.steps + traced.as_ref().map_or(0, |t| t.steps);
    let window_stats = *acc.stats();
    let fastpath = *acc.fastpath_stats();
    e2e.peak_rss_mb = peak_rss_mb();
    for _ in 1..SETUPS {
        let ((_, c), secs) = timed(|| set_up(&cfg, &pool))?;
        e2e.setups_s.push(secs);
        compile_ms.push(c);
    }

    // ---- checking, after the window ------------------------------------
    let twiddles = TwiddleTable::new(&params);
    let wrong = checker.wrong(|slot| {
        pool[slot]
            .iter()
            .map(|p| {
                let mut e = p.clone();
                ntt_in_place(&params, &twiddles, &mut e).expect("pool inputs are reduced");
                e
            })
            .collect()
    });
    out.attempted = steps * lanes as u64;
    out.failed = wrong * lanes as u64;
    out.gate(wrong == 0, || {
        format!("{wrong} of {steps} batches differ from ntt_in_place")
    });

    // ---- the paper anchor ----------------------------------------------
    // The simulator's carry-resolution loops run until no carry is left,
    // so a transform's modeled cost depends on its data. The modeled
    // metrics therefore use Table I's own fixed batch, on the engine that
    // just ran the window and on a fresh one; both must equal Table I.
    let table = table1_batch(n, q, lanes);
    let on_window_engine = modeled_forward(&mut acc, &table)?;
    let mut fresh = BpNtt::new(cfg.clone()).map_err(|e| e.to_string())?;
    let on_fresh_engine = modeled_forward(&mut fresh, &table)?;
    let report = ledger::perf(&on_window_engine, lanes, &cfg);
    let table1 = bpntt_eval::table1::bp_ntt_16bit().map_err(|e| e.to_string())?;
    let anchored = table1.report.cycles == report.cycles
        && table1.report.energy_nj.to_bits() == report.energy_nj.to_bits()
        && on_fresh_engine == on_window_engine;
    out.gate(anchored, || {
        format!(
            "modeled batch ({} cycles, {} nJ; fresh engine {} cycles) differs from \
             bpntt-eval Table I ({} cycles, {} nJ)",
            report.cycles,
            report.energy_nj,
            on_fresh_engine.cycles,
            table1.report.cycles,
            table1.report.energy_nj
        )
    });
    out.note(format!(
        "modeled: {} cycles, {:.2} us per 16-NTT batch (paper {PAPER_LATENCY_US} us, {:+.1}%), \
         {:.2} nJ per batch (paper {PAPER_ENERGY_NJ} nJ), {:.3} nJ per NTT; Table I anchor {}",
        report.cycles,
        report.latency_us(),
        (report.latency_us() / PAPER_LATENCY_US - 1.0) * 100.0,
        report.energy_nj,
        report.energy_per_ntt_nj,
        if anchored { "matches" } else { "MISMATCH" }
    ));
    // How far the seeded batches' modeled cycles stray from one another.
    let mut seeded = Vec::new();
    for batch in pool.iter().take(SEEDED_MODEL_BATCHES) {
        seeded.push(modeled_forward(&mut fresh, batch)?.cycles);
    }
    let (lo, hi) = (
        seeded.iter().min().copied().unwrap_or(0),
        seeded.iter().max().copied().unwrap_or(0),
    );
    out.set_layer("sram.forward_cycles_range", (hi - lo) as f64);
    out.note(format!(
        "modeled forward cycles over {} seeded batches: {lo}..={hi}",
        seeded.len()
    ));

    let per = |x: u64| x as f64 / steps.max(1) as f64;
    out.set_layer(
        "sram.instructions_per_batch",
        per(window_stats.counts.total()),
    );
    out.set_layer("sram.cycles_per_batch", per(window_stats.cycles));
    out.set_layer(
        "sram.row_io_per_batch",
        per(window_stats.row_loads + window_stats.row_stores),
    );
    let hits = fastpath.hits();
    out.set_layer(
        "sram.fastpath_hit_ratio",
        hits as f64 / (hits + fastpath.fallbacks).max(1) as f64,
    );
    out.set_layer("engine.compile_ms", stats::median(&compile_ms));

    e2e.latencies_ms = main.latencies_ms.clone();
    e2e.done_s = main.done_s.clone();
    e2e.window_s = main.elapsed_s;
    e2e.correct = (main.steps * lanes as u64).saturating_sub(wrong * lanes as u64);
    e2e.modeled_latency_us = report.latency_us();
    e2e.modeled_energy_nj_per_ntt = report.energy_per_ntt_nj;
    if let Some(t) = traced {
        // The traced half must carry a p99 of its own too.
        crate::report::require_p99(t.latencies_ms.len())?;
        trace_overhead(&mut out, &main.latencies_ms, &t.latencies_ms, t.elapsed_s);
        let load = stats::median(&trace.durations("BpNtt::load_batch"));
        let exec = stats::median(&trace.durations("BpNtt::forward"));
        let read = stats::median(&trace.durations("BpNtt::read_batch"));
        out.set_layer("engine.load_us", load);
        out.set_layer("engine.exec_us", exec);
        out.set_layer("engine.read_us", read);
        let step_self = stats::median(&trace.self_times("step"));
        out.note(format!(
            "traced step: load {load:.1} us, forward {exec:.1} us, read {read:.1} us, untimed {step_self:.1} us"
        ));
        write_trace(&trace, args, &mut out);
    }
    out.set_end_to_end(&e2e)?;
    Ok(out)
}
