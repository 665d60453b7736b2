//! `wire_small`: two `NetClient` connections over loopback TCP to a
//! `NetServer`, each in a closed loop. N = 64, q = 7681 on a 134×256×14
//! tenant, a 2:1 forward:polymul mix, SpotCheck verification, no chaos.
//! Each request rides a nearly empty wave, so the codec, the connection
//! threads, submit validation and the coalescing window dominate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bpntt_core::{
    BpNttConfig, ExecMode, NttService, PipelineRequest, ServiceOptions, Ticket, VerifyPolicy,
};
use bpntt_net::{
    decode_request, decode_response, encode_poly_body, encode_request, encode_response,
    ClientError, FrameLimits, NetClient, NetOptions, NetServer, Request, Response, SubmitRequest,
    WireErrorCode,
};
use bpntt_ntt::{NttParams, TwiddleTable};

use crate::check::Checker;
use crate::ledger::{self, close_ledger, Record, Req, MIX};
use crate::report::{
    peak_rss_mb, timed, trace_overhead, window_service_metrics, write_trace, EndToEnd, Outcome,
    SETUPS,
};
use crate::trace::Trace;
use crate::{stats, Args, Rng};

/// Client connections, each a closed loop on its own thread.
const CLIENTS: usize = 2;
/// Distinct requests the clients cycle through.
const POOL: usize = 96;
/// Share of a traced run's window spent on the same loop in process,
/// for `net.overhead_us`.
const IN_PROCESS_SHARE: f64 = 0.2;
/// Rounds of direct lower-layer calls in a traced run.
const DIRECT_REPS: usize = 12;

fn config() -> Result<BpNttConfig, String> {
    let params = NttParams::new(64, 7681).map_err(|e| e.to_string())?;
    BpNttConfig::new(134, 256, 14, params).map_err(|e| e.to_string())
}

fn options() -> ServiceOptions {
    ServiceOptions {
        verify: VerifyPolicy::SpotCheck { points: 2 },
        ..ServiceOptions::default()
    }
}

fn submit_request(req: &Req) -> SubmitRequest {
    SubmitRequest {
        tenant: None,
        mode: ExecMode::default(),
        deadline_ms: 0,
        spec: req.shape.spec(),
        inputs: req.inputs.clone(),
    }
}

struct Served {
    service: Arc<NttService>,
    server: NetServer,
    clients: Vec<NetClient>,
}

impl Served {
    fn stop(self) -> bpntt_core::ServiceMetrics {
        drop(self.clients);
        self.server.shutdown();
        match Arc::try_unwrap(self.service) {
            Ok(svc) => svc.shutdown(),
            Err(svc) => svc.metrics(),
        }
    }
}

fn set_up(cfg: &BpNttConfig, pool: &[Req]) -> Result<Served, String> {
    let service = Arc::new(NttService::start(cfg, options()).map_err(|e| e.to_string())?);
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetOptions::default())
        .map_err(|e| e.to_string())?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut c = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        for req in pool.iter().take(MIX.len()) {
            c.submit(submit_request(req))
                .map_err(|e| format!("warm-up request failed: {e}"))?;
        }
        clients.push(c);
    }
    Ok(Served {
        service,
        server,
        clients,
    })
}

/// One client's share of a window.
struct Part {
    records: Vec<Record>,
    checker: Checker<Vec<u64>>,
    sent: u64,
    shed: u64,
    failed: u64,
    trace: Trace,
}

/// What one closed-loop client does per request: submit, block for the
/// result.
trait Submitter: Send {
    fn call(&mut self, req: &Req) -> Result<Vec<u64>, Shed>;
}

/// A request refused typed (retryable) rather than failed.
enum Shed {
    Yes,
    No(String),
}

impl Submitter for NetClient {
    fn call(&mut self, req: &Req) -> Result<Vec<u64>, Shed> {
        self.submit(submit_request(req)).map_err(|e| match e {
            ClientError::Remote {
                code: WireErrorCode::Overloaded | WireErrorCode::RateLimited,
                ..
            } => Shed::Yes,
            e => Shed::No(e.to_string()),
        })
    }
}

/// The same request straight into the service, timing the submit call
/// (over the wire it happens inside the server).
struct InProcess<'a> {
    svc: &'a NttService,
    submit_us: Vec<f64>,
}

impl Submitter for InProcess<'_> {
    fn call(&mut self, req: &Req) -> Result<Vec<u64>, Shed> {
        let request = PipelineRequest::new(req.shape.spec(), req.inputs.clone());
        let t0 = Instant::now();
        let ticket = self.svc.submit_pipeline(request);
        self.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        ticket.and_then(Ticket::wait).map_err(|e| match e {
            bpntt_core::BpNttError::Overloaded { .. } => Shed::Yes,
            e => Shed::No(e.to_string()),
        })
    }
}

/// Runs every submitter in a closed loop on its own thread for `secs`;
/// client `c` takes pool entries `c, c + CLIENTS, ...` from `first_id`.
fn closed_loops<S: Submitter>(
    subs: &mut [S],
    pool: &[Req],
    first_id: u64,
    secs: f64,
    traced: bool,
    span: &'static str,
    epoch: Instant,
) -> (Vec<Part>, Instant, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let stride = subs.len() as u64;
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = subs
            .iter_mut()
            .enumerate()
            .map(|(c, sub)| {
                s.spawn(move || {
                    let mut p = Part {
                        records: Vec::new(),
                        checker: Checker::new(POOL),
                        sent: 0,
                        shed: 0,
                        failed: 0,
                        trace: Trace::new(traced, epoch),
                    };
                    let mut id = first_id + c as u64;
                    while Instant::now() < end {
                        let slot = id as usize % POOL;
                        let t0 = Instant::now();
                        let r = sub.call(&pool[slot]);
                        let t1 = Instant::now();
                        p.sent += 1;
                        match r {
                            Ok(v) => {
                                p.checker.record(slot, v);
                                p.records.push(Record {
                                    id,
                                    latency_ms: (t1 - t0).as_secs_f64() * 1e3,
                                    submit_us: 0.0,
                                    done: t1,
                                });
                                p.trace.record(span, id, None, t0, t1);
                            }
                            Err(Shed::Yes) => p.shed += 1,
                            Err(Shed::No(e)) => {
                                eprintln!("request {id} failed: {e}");
                                p.failed += 1;
                            }
                        }
                        id += stride;
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (parts, start, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::new("wire_small");
    let cfg = config()?;
    let params = cfg.params().clone();
    let pool = ledger::pool(&mut Rng::new(args.seed, 4), &params, POOL);
    let mut e2e = EndToEnd {
        pre_s: process_start.elapsed().as_secs_f64(),
        ..EndToEnd::default()
    };
    let (mut served, secs) = timed(|| set_up(&cfg, &pool))?;
    e2e.setups_s.push(secs);

    let before = served.service.metrics();
    let epoch = Instant::now();
    let wire_secs = if args.trace {
        args.seconds * (1.0 - IN_PROCESS_SHARE) / 2.0
    } else {
        args.seconds
    };
    let main = closed_loops(&mut served.clients, &pool, 0, wire_secs, false, "", epoch);
    let main_sent: u64 = main.0.iter().map(|p| p.sent).sum();
    let mut windows = vec![main];
    let mut subs: Vec<InProcess> = (0..CLIENTS)
        .map(|_| InProcess {
            svc: &served.service,
            submit_us: Vec::new(),
        })
        .collect();
    if args.trace {
        let first = main_sent + CLIENTS as u64;
        windows.push(closed_loops(
            &mut served.clients,
            &pool,
            first,
            wire_secs,
            true,
            "NetClient::submit",
            epoch,
        ));
        windows.push(closed_loops(
            &mut subs,
            &pool,
            first * 2,
            args.seconds * IN_PROCESS_SHARE,
            true,
            "NttService::submit_pipeline+wait",
            epoch,
        ));
    }
    let after = served.service.metrics();
    let submit_us: Vec<f64> = subs.into_iter().flat_map(|s| s.submit_us).collect();
    let final_metrics = served.stop();
    e2e.peak_rss_mb = peak_rss_mb();
    for _ in 1..SETUPS {
        let (again, secs) = timed(|| set_up(&cfg, &pool))?;
        e2e.setups_s.push(secs);
        again.stop();
    }

    // ---- checking, after the window ------------------------------------
    let twiddles = TwiddleTable::new(&params);
    let refs: Vec<Vec<u64>> = pool
        .iter()
        .map(|r| ledger::reference(&params, &twiddles, r))
        .collect();
    let mut checker = Checker::new(POOL);
    let (mut shed, mut failed) = (0, 0);
    let mut trace = Trace::new(args.trace, epoch);
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut records: Vec<Vec<Record>> = Vec::new();
    let mut window_secs = Vec::new();
    let mut main_done_s = Vec::new();
    for (i, (parts, start, secs)) in windows.into_iter().enumerate() {
        window_secs.push(secs);
        if i == 0 {
            main_done_s = parts
                .iter()
                .flat_map(|p| p.records.iter().map(|r| (r.done - start).as_secs_f64()))
                .collect();
        }
        let mut lat = Vec::new();
        let mut recs = Vec::new();
        for p in parts {
            out.attempted += p.sent;
            shed += p.shed;
            failed += p.failed;
            checker.merge(p.checker);
            trace.absorb(p.trace);
            lat.extend(p.records.iter().map(|r| r.latency_ms));
            recs.extend(p.records);
        }
        latencies.push(lat);
        records.push(recs);
    }
    let wrong = checker.wrong(|slot| refs[slot].clone());
    out.failed = shed + failed + wrong;
    out.gate(wrong == 0, || {
        format!("{wrong} results differ from the software reference")
    });
    out.gate(failed == 0, || format!("{failed} requests failed"));
    out.service_gates(&final_metrics);
    window_service_metrics(&before, &after, window_secs.iter().sum(), &mut out);

    let (ml, me) = ledger::modeled_mix(&cfg)?;
    e2e.modeled_latency_us = ml;
    e2e.modeled_energy_nj_per_ntt = me;
    e2e.latencies_ms = latencies[0].clone();
    e2e.done_s = main_done_s;
    e2e.window_s = window_secs[0];
    e2e.correct = (records[0].len() as u64).saturating_sub(wrong);

    if args.trace {
        crate::report::require_p99(latencies[1].len())?;
        trace_overhead(&mut out, &latencies[0], &latencies[1], window_secs[1]);
        let wire_p50_us = stats::median(&latencies[1]) * 1e3;
        let local_p50_us = stats::median(&latencies[2]) * 1e3;
        out.set_layer("net.overhead_us", wire_p50_us - local_p50_us);
        codec_layers(&mut out, &pool, &refs, &mut trace)?;
        let wave_polys = out
            .layer
            .get("sharded.polys_per_wave")
            .copied()
            .unwrap_or(1.0);
        let direct = ledger::direct_calls(
            &cfg,
            &pool,
            &refs,
            options().verify,
            &MIX,
            wave_polys.round() as usize,
            DIRECT_REPS,
            &mut trace,
        )?;
        ledger::set_direct_layers(&mut out, &direct, &trace);
        close_ledger(&mut out, &records[1], &pool, &direct);
        out.set_layer("service.submit_us_p50", stats::median(&submit_us));
        // The wire adds the codec on both ends on top of the service path.
        let codec_ms = [
            "encode_request",
            "decode_request",
            "encode_response",
            "decode_response",
        ]
        .iter()
        .map(|name| stats::median(&trace.durations(name)))
        .sum::<f64>()
            / 1e3;
        let total: f64 = latencies[1].iter().sum();
        let net_share = codec_ms * latencies[1].len() as f64 / total;
        out.set_layer("ledger.net_share", net_share);
        let unexplained = out.layer["ledger.unexplained_share"] - net_share;
        out.set_layer("ledger.unexplained_share", unexplained);
        out.note(format!(
            "wire p50 {wire_p50_us:.1} us vs in-process p50 {local_p50_us:.1} us; codec {:.1}% of traced latency",
            net_share * 100.0
        ));
        write_trace(&trace, args, &mut out);
    }
    out.set_end_to_end(&e2e)?;
    Ok(out)
}

/// Times the wire codec, both ends, on the pooled requests and their
/// reference responses.
fn codec_layers(
    out: &mut Outcome,
    pool: &[Req],
    refs: &[Vec<u64>],
    trace: &mut Trace,
) -> Result<(), String> {
    let mut bytes = Vec::new();
    for (k, (req, r)) in pool.iter().zip(refs).enumerate() {
        let k = k as u64;
        let request = Request::Submit(submit_request(req));
        let frame = trace.time("encode_request", k, None, || encode_request(&request));
        let limits = FrameLimits::default();
        let back = trace.time("decode_request", k, None, || {
            decode_request(&frame, &limits)
        });
        let body = Response::Ok(encode_poly_body(r));
        let response = trace.time("encode_response", k, None, || encode_response(&body));
        let decoded = trace.time("decode_response", k, None, || decode_response(&response));
        let ok = back.as_ref().is_ok_and(|b| *b == request)
            && decoded.as_ref().is_ok_and(|d| *d == body);
        out.gate(ok, || {
            format!("the wire codec does not round-trip pool entry {k}")
        });
        // Two length prefixes of 4 bytes each carry the two frames.
        bytes.push((frame.len() + response.len() + 8) as f64);
    }
    out.set_layer(
        "net.encode_us",
        stats::median(&trace.durations("encode_request")),
    );
    out.set_layer(
        "net.decode_us",
        stats::median(&trace.durations("decode_response")),
    );
    out.set_layer(
        "net.bytes_per_request",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
    );
    Ok(())
}
