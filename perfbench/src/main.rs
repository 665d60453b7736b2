//! The repository benchmark: three workloads over the public entry points
//! of the BP-NTT workspace, each checked bit-exact against the software
//! reference, printing its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_ntt --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (why each exists is recorded in `BENCHMARK.json`):
//!
//! * `paper_ntt` — closed loop over one `BpNtt` at the paper's Table I
//!   point, one 16-lane forward-NTT batch per step;
//! * `rns_saturated` — a fixed window of 3-limb ~90-bit polymuls in
//!   flight through `submit_rns`;
//! * `wire_small` — two `NetClient` connections in closed loops over
//!   loopback TCP, N = 64.
//!
//! There is no open-loop workload. An open loop into `NttService` times
//! a chain of sleeps and cross-thread wake-ups, and on a host of two
//! shared cores its median latency moved twofold between runs of the same
//! code with the host's load, at 75 and at 400 requests per second alike.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` splits the
//! window into an untraced and a traced half, then times direct calls
//! into each lower layer on the same inputs, reports the per-layer
//! metrics, and writes every span to `.perfbench_out/`.
//!
//! The last line of standard output is the result object; the human
//! summary goes to standard error. A run that is invalid (too few
//! samples for p99) exits non-zero without a result.

mod check;
mod ledger;
mod paper_ntt;
mod report;
mod rns_saturated;
mod stats;
mod trace;
mod wire_small;

use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

/// Deterministic input generator (SplitMix64): the same seed gives the
/// same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A polynomial of `n` coefficients uniform in `0..q`.
    pub fn poly(&mut self, n: usize, q: u64) -> Vec<u64> {
        (0..n).map(|_| self.next_u64() % q).collect()
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_ntt" => paper_ntt::run(&args, process_start),
        "rns_saturated" => rns_saturated::run(&args, process_start),
        "wire_small" => wire_small::run(&args, process_start),
        other => Err(format!(
            "unknown workload {other:?} (paper_ntt, rns_saturated, wire_small)"
        )),
    };
    match outcome {
        Ok(outcome) => {
            eprint!("{}", outcome.summary());
            println!("{}", outcome.to_json(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {} run invalid: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
