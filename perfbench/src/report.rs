//! The result object: end-to-end and per-layer metrics by name and unit,
//! the serving gates, and the shared pieces every workload reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{self, percentile};

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("served_share", "share"),
    ("modeled_latency_us", "sim_us"),
    ("modeled_energy_nj_per_ntt", "nJ"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0.
///
/// `latency_p99_ms`, the untraced half's tail, is here rather than in
/// [`E2E`]: on a host of two shared cores the tail is set by when the
/// host schedules the process, so two sets of runs of the same code
/// disagree on it by more than any bound a regression gate can carry.
pub const LAYERS: [(&str, &str); 47] = [
    ("latency_p99_ms", "ms"),
    ("sram.instructions_per_batch", "count"),
    ("sram.cycles_per_batch", "cycles"),
    ("sram.row_io_per_batch", "count"),
    ("sram.fastpath_hit_ratio", "share"),
    ("sram.forward_cycles_range", "cycles"),
    ("engine.load_us", "us"),
    ("engine.exec_us", "us"),
    ("engine.read_us", "us"),
    ("engine.compile_ms", "ms"),
    ("sharded.wave_ms_p50", "ms"),
    ("sharded.wave_ms_p90", "ms"),
    ("sharded.wave_occupancy", "share"),
    ("sharded.polys_per_wave", "count"),
    ("sharded.modeled_cycles_per_result", "cycles"),
    ("sharded.retries", "count"),
    ("sharded.faults_detected", "count"),
    ("sharded.fallback_polys", "count"),
    ("sharded.quarantined", "count"),
    ("service.submit_us_p50", "us"),
    ("service.wait_ms_p50", "ms"),
    ("service.busy_share", "share"),
    ("service.peak_queue_depth", "count"),
    ("service.shed", "count"),
    ("service.deadline_expired", "count"),
    ("verify.ms_per_result", "ms"),
    ("ntt.sw_polymul_us", "us"),
    ("rns.decompose_us", "us"),
    ("rns.reconstruct_us", "us"),
    ("rns.fanout_occupancy", "share"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.bytes_per_request", "bytes"),
    ("net.overhead_us", "us"),
    ("gen.latency_samples", "count"),
    ("trace.overhead_share", "share"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.latency_p99_ms", "ms"),
    ("trace.completed_per_s", "1/s"),
    ("ledger.unexplained_share", "share"),
    ("ledger.submit_share", "share"),
    ("ledger.wave_share", "share"),
    ("ledger.verify_share", "share"),
    ("ledger.rns_share", "share"),
    ("ledger.net_share", "share"),
    ("failed_share", "share"),
    ("correct_results", "count"),
];

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    /// Failed, shed, expired and wrong results together.
    pub failed: u64,
    /// Serving-gate violations; any makes the run incorrect.
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn gate(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.layer.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn summary(&self) -> String {
        let mut s = format!("== {} ==\n", self.workload);
        for n in &self.notes {
            let _ = writeln!(s, "  {n}");
        }
        for p in &self.problems {
            let _ = writeln!(s, "  GATE FAILED: {p}");
        }
        s
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones.
    pub fn to_json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        let (table, values): (&[(&str, &str)], _) = if trace {
            (&LAYERS, &self.layer)
        } else {
            (&E2E, &self.e2e)
        };
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Set-ups per run; `setup_s` reports their median. The first runs
/// before the timed window; the rest run after it, once `peak_rss_mb` is
/// read, so freed set-ups do not inflate the peak.
pub const SETUPS: usize = 5;

/// Runs `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = std::time::Instant::now();
    let v = f()?;
    Ok((v, t.elapsed().as_secs_f64()))
}

/// What every workload measures end to end.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Process start to the end of input generation, seconds.
    pub pre_s: f64,
    /// Each set-up's duration (construction, registration, compile,
    /// warm-up), seconds.
    pub setups_s: Vec<f64>,
    /// Per-result latency, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// When each result completed, seconds after the window opened
    /// (parallel to `latencies_ms`).
    pub done_s: Vec<f64>,
    /// Results delivered and checked bit-exact.
    pub correct: u64,
    /// Seconds the timed window lasted.
    pub window_s: f64,
    pub modeled_latency_us: f64,
    pub modeled_energy_nj_per_ntt: f64,
    /// Peak resident set after the first set-up and the timed window.
    pub peak_rss_mb: f64,
}

/// Results per slice for the reported p99: enough to leave
/// [`stats::TAIL_MIN_BEYOND`] values beyond each slice's p99.
pub const P99_SLICE: usize = 1000;

/// Equal time slices the window is cut into for the reported p50 and
/// rate. On a shared host, other tenants slow the whole machine, or stall
/// it for milliseconds, at times during a run. So each timing is taken
/// per slice and the reported one is the median over slices, which a
/// disturbance covering under half the window does not move. A change to
/// the program moves every slice alike and shows in full.
pub const TIME_SLICES: usize = 10;

/// Refuses a latency sample too small to carry a p99.
pub fn require_p99(n: usize) -> Result<(), String> {
    if n < P99_SLICE {
        return Err(format!(
            "{n} latency samples: fewer than {P99_SLICE} leave under {} beyond p99",
            stats::TAIL_MIN_BEYOND
        ));
    }
    Ok(())
}

/// The reported timings of one window.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median over time slices of each slice's median latency, ms.
    pub p50: f64,
    /// Median over slices of [`P99_SLICE`] consecutive results of each
    /// slice's p99 latency, ms.
    pub p99: f64,
    /// Median over time slices of results completed per second.
    pub rate: f64,
}

/// Slices `latencies_ms` (completed `done_s` seconds into a window of
/// `window_s`) into the reported [`Timing`].
pub fn timing(done_s: &[f64], latencies_ms: &[f64], window_s: f64) -> Result<Timing, String> {
    require_p99(latencies_ms.len())?;
    let mut order: Vec<usize> = (0..latencies_ms.len()).collect();
    order.sort_by(|&a, &b| done_s[a].total_cmp(&done_s[b]));
    let in_order: Vec<f64> = order.iter().map(|&i| latencies_ms[i]).collect();
    let p99s = stats::slice_percentiles(&in_order, 99.0, P99_SLICE);
    let width = window_s / TIME_SLICES as f64;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); TIME_SLICES];
    for (&d, &l) in done_s.iter().zip(latencies_ms) {
        // Results still in flight when the window closed land in the
        // last slice.
        let k = ((d / width).max(0.0) as usize).min(TIME_SLICES - 1);
        slices[k].push(l);
    }
    let p50s: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stats::median(s))
        .collect();
    let rates: Vec<f64> = slices.iter().map(|s| s.len() as f64 / width).collect();
    Ok(Timing {
        p50: stats::median(&p50s),
        p99: stats::median(&p99s),
        rate: stats::median(&rates),
    })
}

impl Outcome {
    /// Fills the end-to-end metrics (and their human lines) from `e`.
    ///
    /// # Errors
    ///
    /// A latency sample too small for p99 makes the run invalid.
    pub fn set_end_to_end(&mut self, e: &EndToEnd) -> Result<(), String> {
        let Timing { p50, p99, rate } = timing(&e.done_s, &e.latencies_ms, e.window_s)?;
        let setup_s = e.pre_s + stats::median(&e.setups_s);
        let rss = e.peak_rss_mb;
        // The slice rate counts latency samples; `correct` counts checked
        // results, several per sample where a step carries a batch.
        let completed_per_s = rate * e.correct as f64 / e.latencies_ms.len() as f64;
        let served = if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
        };
        for (k, v) in [
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
            ("completed_per_s", completed_per_s),
            ("latency_p50_ms", p50),
            ("served_share", served),
            ("modeled_latency_us", e.modeled_latency_us),
            ("modeled_energy_nj_per_ntt", e.modeled_energy_nj_per_ntt),
        ] {
            self.e2e.insert(k, v);
        }
        let summary = stats::summarize(&e.latencies_ms).expect("nonempty: p99 was supported");
        let setups: Vec<String> = e.setups_s.iter().map(|s| format!("{s:.3}")).collect();
        self.note(format!(
            "setup_s {setup_s:.4} (inputs {:.3} s + median of set-ups [{}] s)",
            e.pre_s,
            setups.join(", ")
        ));
        self.note(format!(
            "latency_ms {summary}; reported: p50 {p50:.4} (median of {TIME_SLICES} time slices), \
             p99 {p99:.4} (median of {} slices of >= {P99_SLICE} results)",
            (e.latencies_ms.len() / P99_SLICE).max(1)
        ));
        self.note(format!(
            "completed_per_s {completed_per_s:.1} ({} checked in {:.3} s); served {}/{}; peak RSS {rss:.1} MB",
            e.correct, e.window_s, self.attempted - self.failed.min(self.attempted), self.attempted
        ));
        self.set_layer("latency_p99_ms", p99);
        self.set_layer("gen.latency_samples", e.latencies_ms.len() as f64);
        self.set_layer("correct_results", e.correct as f64);
        self.set_layer(
            "failed_share",
            if self.attempted == 0 {
                0.0
            } else {
                self.failed as f64 / self.attempted as f64
            },
        );
        Ok(())
    }

    /// The serving gates shared by every service workload: the engine,
    /// never the fallback or the retry ladder, served every result.
    pub fn service_gates(&mut self, m: &bpntt_core::ServiceMetrics) {
        for (name, v) in [
            ("fallback_polys", m.fallback_polys),
            ("retries", m.retries),
            ("faults_detected", m.faults_detected),
            ("quarantined_shards", m.quarantined_shards),
        ] {
            self.gate(v == 0, || format!("service reported {name} = {v}"));
        }
        self.set_layer("sharded.fallback_polys", m.fallback_polys as f64);
        self.set_layer("sharded.retries", m.retries as f64);
        self.set_layer("sharded.faults_detected", m.faults_detected as f64);
        self.set_layer("sharded.quarantined", m.quarantined_shards as f64);
        self.set_layer("service.peak_queue_depth", m.peak_queue_depth as f64);
        self.set_layer("service.shed", m.rejected as f64);
        self.set_layer("service.deadline_expired", m.deadline_expired as f64);
    }
}

/// Service counters over the timed window: `after − before` for the
/// cumulative ones, with the wave-occupancy mean re-weighted.
pub fn window_service_metrics(
    before: &bpntt_core::ServiceMetrics,
    after: &bpntt_core::ServiceMetrics,
    window_s: f64,
    out: &mut Outcome,
) {
    let waves = after.waves - before.waves;
    let polys = after.wave_polys - before.wave_polys;
    let occ_sum =
        after.wave_occupancy * after.waves as f64 - before.wave_occupancy * before.waves as f64;
    let per_wave = |x: f64| if waves == 0 { 0.0 } else { x / waves as f64 };
    out.set_layer("sharded.wave_occupancy", per_wave(occ_sum));
    out.set_layer("sharded.polys_per_wave", per_wave(polys as f64));
    out.set_layer(
        "service.busy_share",
        (after.busy_secs - before.busy_secs) / window_s,
    );
    out.set_layer(
        "verify.ms_per_result",
        if polys == 0 {
            0.0
        } else {
            (after.verify_ms - before.verify_ms) / polys as f64
        },
    );
    let rns_waves = after.rns_fanout_waves - before.rns_fanout_waves;
    let rns_occ = after.rns_fanout_occupancy * after.rns_fanout_waves as f64
        - before.rns_fanout_occupancy * before.rns_fanout_waves as f64;
    out.set_layer(
        "rns.fanout_occupancy",
        if rns_waves == 0 {
            0.0
        } else {
            rns_occ / rns_waves as f64
        },
    );
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the trace of a `--trace 1` run to `.perfbench_out/`.
pub fn write_trace(trace: &crate::trace::Trace, args: &crate::Args, out: &mut Outcome) {
    let path = std::path::PathBuf::from(format!(
        ".perfbench_out/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    match trace.write_jsonl(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write {}: {e}", path.display())),
    }
}

/// Tracing overhead: how much the traced half's median latency exceeds
/// the untraced half's, as a share of the untraced one.
pub fn trace_overhead(
    out: &mut Outcome,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    traced_window_s: f64,
) {
    let (u, t) = (stats::median(untraced_ms), stats::median(traced_ms));
    out.set_layer(
        "trace.overhead_share",
        if u > 0.0 { t / u - 1.0 } else { 0.0 },
    );
    let mut sorted = traced_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    if !sorted.is_empty() {
        out.set_layer("trace.latency_p50_ms", percentile(&sorted, 50.0));
        out.set_layer("trace.latency_p99_ms", percentile(&sorted, 99.0));
    }
    out.set_layer(
        "trace.completed_per_s",
        traced_ms.len() as f64 / traced_window_s,
    );
}
