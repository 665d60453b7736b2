//! Request shapes of the single-prime service workload, their
//! software reference, and the direct calls a traced run makes into the
//! lower layers (sharded wave, engine, verifier, software NTT) on the
//! same generated inputs.

use std::time::Instant;

use bpntt_core::{
    BpNtt, BpNttConfig, ExecMode, PerfReport, PipelineSpec, ServiceOptions, ShardedBpNtt, Verifier,
    VerifyPolicy,
};
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::polymul::{polymul_ntt_with, polymul_schoolbook};
use bpntt_ntt::{NttParams, TwiddleTable};
use bpntt_sram::geometry::{AreaModel, FrequencyModel};
use bpntt_sram::Stats;

use crate::report::Outcome;
use crate::trace::Trace;
use crate::{stats, Rng};

/// The two request shapes; pool entry `k` of a single-prime workload is
/// `MIX[k % 3]`, a 2:1 forward:polymul mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Forward,
    Polymul,
}

/// The single-prime workload's request mix.
pub const MIX: [Shape; 3] = [Shape::Forward, Shape::Forward, Shape::Polymul];

impl Shape {
    pub fn spec(self) -> PipelineSpec {
        match self {
            Shape::Forward => PipelineSpec::forward_ntt(),
            Shape::Polymul => PipelineSpec::polymul(),
        }
    }

    /// Transforms one request of this shape runs per lane.
    pub fn ntts(self) -> u32 {
        match self {
            Shape::Forward => 1,
            Shape::Polymul => 3,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One pooled request: its shape and one polynomial per input slot.
#[derive(Debug, Clone)]
pub struct Req {
    pub shape: Shape,
    pub inputs: Vec<Vec<u64>>,
}

/// `size` seeded requests in the 2:1 mix.
pub fn pool(rng: &mut Rng, params: &NttParams, size: usize) -> Vec<Req> {
    (0..size)
        .map(|k| {
            let shape = MIX[k % MIX.len()];
            let slots = shape.spec().input_slots().len();
            Req {
                shape,
                inputs: (0..slots)
                    .map(|_| rng.poly(params.n(), params.modulus()))
                    .collect(),
            }
        })
        .collect()
}

/// The software reference result: `ntt_in_place` or
/// `polymul_schoolbook`.
pub fn reference(params: &NttParams, twiddles: &TwiddleTable, req: &Req) -> Vec<u64> {
    match req.shape {
        Shape::Forward => {
            let mut e = req.inputs[0].clone();
            ntt_in_place(params, twiddles, &mut e).expect("pool inputs are reduced");
            e
        }
        Shape::Polymul => polymul_schoolbook(params, &req.inputs[0], &req.inputs[1])
            .expect("pool inputs are reduced"),
    }
}

/// Modeled cost of one full engine chunk of `shape` (load, compiled
/// segments, read) at `cfg`: `(latency_us, energy_nj)`. The simulator's
/// carry-resolution loops make cost depend on the data, so the inputs
/// come from a fixed seed, not the workload's: the figures then repeat
/// exactly from run to run.
pub fn modeled_chunk(cfg: &BpNttConfig, shape: Shape) -> Result<(f64, f64), String> {
    let mut eng = BpNtt::new(cfg.clone()).map_err(|e| e.to_string())?;
    let spec = shape.spec();
    let pipe = eng.compile_pipeline(&spec).map_err(|e| e.to_string())?;
    let lanes = cfg.layout().lanes();
    let (n, q) = (cfg.params().n(), cfg.params().modulus());
    let mut rng = Rng::new(MODEL_SEED, 0);
    let batch: Vec<Vec<Vec<u64>>> = spec
        .input_slots()
        .iter()
        .map(|_| (0..lanes).map(|_| rng.poly(n, q)).collect())
        .collect();
    eng.reset_stats();
    let refs: Vec<&[Vec<u64>]> = batch.iter().map(Vec::as_slice).collect();
    eng.run_compiled_pipeline(&pipe, ExecMode::default(), &refs)
        .map_err(|e| e.to_string())?;
    let r = perf(eng.stats(), lanes, cfg);
    Ok((r.latency_us(), r.energy_nj))
}

/// Seed of the fixed inputs the modeled metrics are measured on.
const MODEL_SEED: u64 = 0x7AB1E1;

/// The modeled metrics of the 2:1 mix at `cfg`: mix-weighted chunk
/// latency, and chunk energy per transform.
pub fn modeled_mix(cfg: &BpNttConfig) -> Result<(f64, f64), String> {
    let lanes = cfg.layout().lanes() as f64;
    let (fl, fe) = modeled_chunk(cfg, Shape::Forward)?;
    let (pl, pe) = modeled_chunk(cfg, Shape::Polymul)?;
    let latency = (2.0 * fl + pl) / 3.0;
    let ntts = f64::from(2 * Shape::Forward.ntts() + Shape::Polymul.ntts());
    Ok((latency, (2.0 * fe + pe) / (lanes * ntts)))
}

/// The Table I report of `stats` for a batch of `lanes` at `cfg`.
pub fn perf(stats: &Stats, lanes: usize, cfg: &BpNttConfig) -> PerfReport {
    PerfReport::from_stats(
        stats,
        lanes,
        cfg.geometry(),
        &AreaModel::cmos_45nm(),
        &FrequencyModel::cmos_45nm(),
    )
}

/// Slot-major batch (one `Vec` per input slot) of `reqs`.
pub fn slot_major<'a>(reqs: impl Iterator<Item = &'a Req>) -> Vec<Vec<Vec<u64>>> {
    let mut out: Vec<Vec<Vec<u64>>> = Vec::new();
    for r in reqs {
        if out.is_empty() {
            out = vec![Vec::new(); r.inputs.len()];
        }
        for (s, p) in r.inputs.iter().enumerate() {
            out[s].push(p.clone());
        }
    }
    out
}

/// Per-shape medians of the direct calls, milliseconds per wave.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShapeCost {
    pub wave_ms: f64,
    pub verify_ms: f64,
}

/// Everything the direct calls measured at one configuration.
#[derive(Debug, Default)]
pub struct Direct {
    /// Indexed by `Shape as usize`.
    pub cost: [ShapeCost; 2],
    pub sram: Stats,
    pub engine_batches: u64,
    pub fastpath_hits: u64,
    pub fastpath_fallbacks: u64,
    pub sharded_cycles: u64,
    pub sharded_results: u64,
    pub exec_us: Vec<f64>,
    pub compile_ms: f64,
    pub wrong: u64,
}

impl Direct {
    /// Adds another configuration's calls: counters and per-wave costs
    /// sum (the limbs of one RNS group run on the same cores).
    pub fn merge(&mut self, o: Direct) {
        for (mine, theirs) in self.cost.iter_mut().zip(o.cost) {
            mine.wave_ms += theirs.wave_ms;
            mine.verify_ms += theirs.verify_ms;
        }
        self.sram += o.sram;
        self.engine_batches += o.engine_batches;
        self.fastpath_hits += o.fastpath_hits;
        self.fastpath_fallbacks += o.fastpath_fallbacks;
        self.sharded_cycles += o.sharded_cycles;
        self.sharded_results += o.sharded_results;
        self.exec_us.extend(o.exec_us);
        self.compile_ms += o.compile_ms;
        self.wrong += o.wrong;
    }
}

/// Times `reps` rounds of direct calls at `cfg` on pooled requests, one
/// call per entry of `mix` in each round: a sharded wave of `wave_polys`
/// requests (verification off, as the service's engine runs before its
/// verifier), the same batch through one engine's `load_batch` /
/// `run_compiled_pipeline` / `read_batch`, `Verifier::check` under
/// `policy`, and `polymul_ntt_with` per polymul request. Every sharded
/// output is compared with `refs`.
#[allow(clippy::too_many_arguments)]
pub fn direct_calls(
    cfg: &BpNttConfig,
    pool: &[Req],
    refs: &[Vec<u64>],
    policy: VerifyPolicy,
    mix: &[Shape],
    wave_polys: usize,
    reps: usize,
    trace: &mut Trace,
) -> Result<Direct, String> {
    let params = cfg.params();
    let twiddles = TwiddleTable::new(params);
    let verifier = Verifier::new(params);
    let mut sharded =
        ShardedBpNtt::new(cfg, ServiceOptions::default().shards).map_err(|e| e.to_string())?;
    let mut eng = BpNtt::new(cfg.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let pipes = [
        eng.compile_pipeline(&Shape::Forward.spec())
            .map_err(|e| e.to_string())?,
        eng.compile_pipeline(&Shape::Polymul.spec())
            .map_err(|e| e.to_string())?,
    ];
    let mut d = Direct {
        compile_ms: t.elapsed().as_secs_f64() * 1e3,
        ..Direct::default()
    };
    let mut wave_ms: [Vec<f64>; 2] = Default::default();
    let mut verify_ms: [Vec<f64>; 2] = Default::default();
    // Compile outside the timed calls, as the service does at tenant
    // registration.
    for shape in mix {
        let warm = slot_major(pool.iter().filter(|r| r.shape == *shape).take(1));
        let warm: Vec<&[Vec<u64>]> = warm.iter().map(Vec::as_slice).collect();
        sharded
            .run_pipeline_batch(&shape.spec(), ExecMode::default(), &warm)
            .map_err(|e| e.to_string())?;
    }
    sharded.reset_stats();
    let wave_polys = wave_polys.clamp(1, sharded.lanes_total());
    for rep in 0..reps * mix.len() {
        let shape = mix[rep % mix.len()];
        let spec = shape.spec();
        let req_id = rep as u64;
        // `wave_polys` requests of this shape, rotating through the pool.
        let picked: Vec<usize> = (0..pool.len())
            .filter(|&k| pool[k].shape == shape)
            .cycle()
            .skip(rep * wave_polys)
            .take(wave_polys)
            .collect();
        let batch = slot_major(picked.iter().map(|&k| &pool[k]));
        let refs_in: Vec<&[Vec<u64>]> = batch.iter().map(Vec::as_slice).collect();

        let t0 = Instant::now();
        let outs = sharded
            .run_pipeline_batch(&spec, ExecMode::default(), &refs_in)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        trace.record("ShardedBpNtt::run_pipeline_batch", req_id, None, t0, t1);
        wave_ms[shape.index()].push((t1 - t0).as_secs_f64() * 1e3);
        d.sharded_results += outs.len() as u64;
        d.wrong += picked
            .iter()
            .zip(&outs)
            .filter(|(&k, o)| refs[k] != **o)
            .count() as u64;

        let seed = rep as u64;
        let t0 = Instant::now();
        let checked = verifier.check(&spec, &refs_in, &outs, policy, seed);
        let t1 = Instant::now();
        trace.record("Verifier::check", req_id, None, t0, t1);
        checked.map_err(|e| format!("verifier rejected a correct wave: {e}"))?;
        verify_ms[shape.index()].push((t1 - t0).as_secs_f64() * 1e3);

        // One engine chunk (at most one shard's lanes) through the
        // engine's entry points.
        let lanes = cfg.layout().lanes().min(wave_polys);
        let chunk: Vec<&[Vec<u64>]> = batch.iter().map(|s| &s[..lanes]).collect();
        let t0 = Instant::now();
        let load = eng.load_batch(chunk[0]);
        let t1 = Instant::now();
        trace.record("BpNtt::load_batch", req_id, None, t0, t1);
        load.map_err(|e| e.to_string())?;
        let load_us = (t1 - t0).as_secs_f64() * 1e6;
        eng.reset_stats();
        let t0 = Instant::now();
        eng.run_compiled_pipeline(&pipes[shape.index()], ExecMode::default(), &chunk)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        trace.record("BpNtt::run_compiled_pipeline", req_id, None, t0, t1);
        d.sram += *eng.stats();
        d.fastpath_hits += eng.fastpath_stats().hits();
        d.fastpath_fallbacks += eng.fastpath_stats().fallbacks;
        d.engine_batches += 1;
        let t2 = Instant::now();
        let read = eng.read_batch(lanes);
        let t3 = Instant::now();
        trace.record("BpNtt::read_batch", req_id, None, t2, t3);
        read.map_err(|e| e.to_string())?;
        let rcp_us = (t1 - t0).as_secs_f64() * 1e6;
        let read_us = (t3 - t2).as_secs_f64() * 1e6;
        d.exec_us
            .push(rcp_us - load_us * chunk.len() as f64 - read_us);

        if shape == Shape::Polymul {
            for &k in &picked {
                let r = &pool[k];
                let p = trace.time("polymul_ntt_with", req_id, None, || {
                    polymul_ntt_with(params, &twiddles, &r.inputs[0], &r.inputs[1])
                });
                std::hint::black_box(p.map_err(|e| e.to_string())?);
            }
        }
    }
    d.sharded_cycles = sharded.stats().cycles;
    for s in [Shape::Forward, Shape::Polymul] {
        d.cost[s.index()] = ShapeCost {
            wave_ms: stats::median(&wave_ms[s.index()]),
            verify_ms: stats::median(&verify_ms[s.index()]),
        };
    }
    Ok(d)
}

/// One resolved service request.
pub struct Record {
    pub id: u64,
    pub latency_ms: f64,
    pub submit_us: f64,
    pub done: Instant,
}

/// Sets the sram, engine, sharded and ntt layer metrics from the direct
/// calls' spans and counters.
pub fn set_direct_layers(out: &mut Outcome, d: &Direct, trace: &Trace) {
    let batches = d.engine_batches.max(1) as f64;
    out.set_layer(
        "sram.instructions_per_batch",
        d.sram.counts.total() as f64 / batches,
    );
    out.set_layer("sram.cycles_per_batch", d.sram.cycles as f64 / batches);
    out.set_layer(
        "sram.row_io_per_batch",
        (d.sram.row_loads + d.sram.row_stores) as f64 / batches,
    );
    out.set_layer(
        "sram.fastpath_hit_ratio",
        d.fastpath_hits as f64 / (d.fastpath_hits + d.fastpath_fallbacks).max(1) as f64,
    );
    out.set_layer(
        "engine.load_us",
        stats::median(&trace.durations("BpNtt::load_batch")),
    );
    out.set_layer("engine.exec_us", stats::median(&d.exec_us));
    out.set_layer(
        "engine.read_us",
        stats::median(&trace.durations("BpNtt::read_batch")),
    );
    out.set_layer("engine.compile_ms", d.compile_ms);
    let mut waves: Vec<f64> = trace
        .durations("ShardedBpNtt::run_pipeline_batch")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    waves.sort_by(f64::total_cmp);
    if !waves.is_empty() {
        out.set_layer("sharded.wave_ms_p50", stats::percentile(&waves, 50.0));
        out.set_layer("sharded.wave_ms_p90", stats::percentile(&waves, 90.0));
    }
    out.set_layer(
        "sharded.modeled_cycles_per_result",
        d.sharded_cycles as f64 / d.sharded_results.max(1) as f64,
    );
    out.set_layer(
        "ntt.sw_polymul_us",
        stats::median(&trace.durations("polymul_ntt_with")),
    );
    out.gate(d.wrong == 0, || {
        format!(
            "{} direct sharded results differ from the reference",
            d.wrong
        )
    });
}

/// Splits the traced requests' latency into the layers the direct calls
/// measured (submit, sharded wave, verification) and what they leave
/// unexplained (queueing, coalescing, dispatch, completion).
pub fn close_ledger(out: &mut Outcome, records: &[Record], pool: &[Req], d: &Direct) {
    let cost = |id: u64| d.cost[pool[id as usize % pool.len()].shape as usize];
    let total_ms: f64 = records.iter().map(|r| r.latency_ms).sum();
    let submit_ms: f64 = records.iter().map(|r| r.submit_us / 1e3).sum();
    let wave_ms: f64 = records.iter().map(|r| cost(r.id).wave_ms).sum();
    let verify_ms: f64 = records.iter().map(|r| cost(r.id).verify_ms).sum();
    let share = |x: f64| if total_ms > 0.0 { x / total_ms } else { 0.0 };
    out.set_layer("ledger.submit_share", share(submit_ms));
    out.set_layer("ledger.wave_share", share(wave_ms));
    out.set_layer("ledger.verify_share", share(verify_ms));
    let unexplained = 1.0 - share(submit_ms + wave_ms + verify_ms);
    out.set_layer("ledger.unexplained_share", unexplained);
    let submit_us: Vec<f64> = records.iter().map(|r| r.submit_us).collect();
    out.set_layer("service.submit_us_p50", stats::median(&submit_us));
    let wait: Vec<f64> = records
        .iter()
        .map(|r| r.latency_ms - cost(r.id).wave_ms)
        .collect();
    out.set_layer("service.wait_ms_p50", stats::median(&wait));
    out.note(format!(
        "ledger of traced latency: submit {:.1}%, wave {:.1}%, verify {:.1}%, unexplained {:.1}%",
        share(submit_ms) * 100.0,
        share(wave_ms) * 100.0,
        share(verify_ms) * 100.0,
        unexplained * 100.0
    ));
}
