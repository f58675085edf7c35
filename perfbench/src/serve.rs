//! The open-loop `serve-lnn` workload: a seeded Poisson schedule of
//! distinct LNN cases, offered at fixed absolute rates in a light and a
//! loaded phase, over loopback `nsgp/1` through `Gateway` → `Server`.
//!
//! The generator uses two threads on one pipelined connection: one
//! writes each request frame when due, the other reads the in-order
//! responses. Latency runs from a request's *scheduled* send time to the
//! moment its response is observed, so a stall also charges the requests
//! queued behind it.

use crate::host;
use crate::sched::{case_id, poisson_schedule, Arrival};
use crate::stats::{median, percentile};
use crate::sweep::{self, check_quality, Sweep};
use crate::trace::{now, SpanId, SpanLog};
use crate::Out;
use nsai_gateway::wire::{self, encode_output, Frame, Status};
use nsai_gateway::{Gateway, GatewayConfig, GatewaySnapshot};
use nsai_serve::{MetricsSnapshot, ServeConfig, Server, ShutdownMode};
use nsai_workloads::{CaseInput, Lnn, LnnConfig, Workload};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rate of the light phase, where requests rarely overlap. Rates
/// are fixed: a faster program shows as lower latency at the same
/// offered load, never as a different load.
const LIGHT_RPS: f64 = 40.0;
/// Offered rate of the loaded phase, about a third of the closed-loop
/// capacity measured on a 2-vCPU host.
const LOADED_RPS: f64 = 300.0;
/// A loaded-phase request slower than this misses the goodput count. It
/// sits in the seed's loaded tail, so both a faster serving path and a
/// slower one move `goodput_rps`.
const LIMIT_MS: f64 = 10.0;

/// Shares of `--seconds` given to the light phase (cut in two halves
/// around the loaded phase), the loaded phase and the closing reference
/// pass of the characterization sweep.
const LIGHT_SHARE: f64 = 0.25;
const LOADED_SHARE: f64 = 0.45;
const REFERENCE_SHARE: f64 = 0.3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Warm-up requests in each set-up.
const WARM_REQUESTS: u64 = 96;
/// The run is invalid when the generator sends later than this at p99.
const LAG_LIMIT_MS: f64 = 10.0;
/// A response not seen this long after its send fails the request.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);
/// Threads re-running served cases for the output check.
const VERIFY_THREADS: usize = 2;

const LIGHT_STREAM: u64 = 20;
const LOADED_STREAM: u64 = 21;
const WARM_STREAM: u64 = 22;

/// The served workload, as characterized.
fn replica() -> Box<dyn Workload + Send> {
    Box::new(Lnn::new(LnnConfig::small()))
}

/// The program under test: a gateway in front of a server, and the
/// generator's client connection to it.
struct Rig {
    gateway: Gateway,
    conn: TcpStream,
    /// Wire workload id of LNN.
    lnn: u32,
    next_id: u64,
}

impl Rig {
    fn start() -> Result<Rig, String> {
        let config = ServeConfig::default().workers(2).queue_capacity(256);
        let server = Server::builder(config)
            .register("lnn", replica)
            .start()
            .map_err(|e| format!("server start: {e}"))?;
        // The loaded phase's bursts pipeline on the one connection, so
        // its in-flight window is sized for them.
        let gateway = Gateway::start(server, GatewayConfig::default().window(256))
            .map_err(|e| format!("gateway start: {e}"))?;
        let lnn = gateway.workload_id("lnn").expect("registered above");
        let conn = TcpStream::connect(gateway.local_addr()).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Rig {
            gateway,
            conn,
            lnn,
            next_id: 0,
        })
    }

    /// Zero the server's and gateway's metrics for a new phase.
    fn reset_metrics(&self) {
        self.gateway.server().reset_metrics();
        let m = self.gateway.metrics();
        for counter in [
            &m.accepted,
            &m.refused,
            &m.frames_in,
            &m.frames_out,
            &m.decode_errors,
            &m.window_rejected,
            &m.expired,
            &m.conn_dropped,
            &m.write_errors,
        ] {
            counter.reset();
        }
        m.connections.reset_peak();
        m.in_flight.reset_peak();
        m.wire_latency_us.reset();
    }

    /// Close the connection, then stop the gateway and server.
    fn shutdown(self) {
        drop(self.conn);
        self.gateway.shutdown(ShutdownMode::Drain);
    }
}

/// What became of one request.
#[derive(Debug, Clone)]
enum Outcome {
    /// The canonical output bytes (`wire::encode_output`).
    Ok(Vec<u8>),
    /// Refused at admission or by flow control.
    Refused(String),
    Failed(String),
}

/// One request of a phase, in schedule order.
#[derive(Debug, Clone)]
struct Rec {
    arrival: Arrival,
    sent_s: f64,
    submit_us: f64,
    done_s: f64,
    outcome: Outcome,
    traced: bool,
}

impl Outcome {
    fn error(&self) -> Option<&str> {
        match self {
            Outcome::Ok(_) => None,
            Outcome::Refused(e) | Outcome::Failed(e) => Some(e),
        }
    }
}

impl Rec {
    /// Latency from the scheduled send; a failed or refused request never
    /// meets any limit.
    fn latency_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Ok(_) => (self.done_s - self.arrival.at_s) * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// Latency from the actual send, as the layers below see it.
    fn service_side_us(&self) -> f64 {
        (self.done_s - self.sent_s) * 1e6
    }

    fn lag_ms(&self) -> f64 {
        (self.sent_s - self.arrival.at_s) * 1e3
    }
}

fn sleep_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(now()));
}

/// A request the sender has written, handed to the receiver.
struct Sent {
    pos: usize,
    id: u64,
    sent: Instant,
    submitted: Instant,
    error: Option<String>,
}

/// One thread writes each request frame when due; the calling thread
/// reads the in-order responses off the same connection and records a
/// `request` span with `send` and `recv` children for each.
fn run_wire(
    rig: &mut Rig,
    arrivals: &[Arrival],
    start: Instant,
    trace: bool,
    log: &mut SpanLog,
) -> Result<Vec<Rec>, String> {
    let reader = rig
        .conn
        .try_clone()
        .map_err(|e| format!("clone connection: {e}"))?;
    reader
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut reader = BufReader::new(reader);
    let first_id = rig.next_id + 1;
    rig.next_id += arrivals.len() as u64;
    let (conn, lnn) = (&rig.conn, rig.lnn);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut recs = Vec::with_capacity(arrivals.len());
    // nsai-lint: allow(pool-only-parallelism): the load generator's sender is a client thread outside the program under test.
    std::thread::scope(|s| {
        s.spawn(move || {
            for (pos, arrival) in arrivals.iter().enumerate() {
                sleep_until(start + Duration::from_secs_f64(arrival.at_s));
                let id = first_id + pos as u64;
                let frame = Frame::Request {
                    id,
                    workload: lnn,
                    deadline_us: 0,
                    case: arrival.case,
                };
                let sent = now();
                let error = wire::encode_frame(&frame)
                    .map_err(|e| e.to_string())
                    .and_then(|bytes| (&*conn).write_all(&bytes).map_err(|e| e.to_string()))
                    .err();
                let submitted = now();
                let _ = tx.send(Sent {
                    pos,
                    id,
                    sent,
                    submitted,
                    error,
                });
            }
        });
        let mut broken: Option<String> = None;
        let mut free_since = start;
        for sent in rx {
            let waited = free_since.max(sent.submitted);
            let outcome = if let Some(e) = sent.error.clone().or_else(|| broken.clone()) {
                Outcome::Failed(e)
            } else {
                match wire::read_frame(&mut reader) {
                    Ok(Frame::Response {
                        id,
                        status,
                        payload,
                    }) if id == sent.id => match status {
                        Status::Ok => Outcome::Ok(payload),
                        Status::QueueFull | Status::WindowExceeded => {
                            Outcome::Refused(format!("{status:?}"))
                        }
                        _ => Outcome::Failed(format!(
                            "{status:?}: {}",
                            String::from_utf8_lossy(&payload)
                        )),
                    },
                    Ok(frame) => {
                        let e = format!("unexpected frame {frame:?} for request {}", sent.id);
                        broken = Some(e.clone());
                        Outcome::Failed(e)
                    }
                    Err(e) => {
                        let e = format!("recv: {e}");
                        broken = Some(e.clone());
                        Outcome::Failed(e)
                    }
                }
            };
            let done = now();
            free_since = done;
            let rec = Rec {
                arrival: arrivals[sent.pos],
                sent_s: sent.sent.duration_since(start).as_secs_f64(),
                submit_us: sent.submitted.duration_since(sent.sent).as_secs_f64() * 1e6,
                done_s: done.duration_since(start).as_secs_f64(),
                outcome,
                traced: trace && sent.pos % 2 == 0,
            };
            log.set_enabled(rec.traced);
            let request = log.open_at("request", SpanId::root(), rec.arrival.case, sent.sent);
            let child = log.open_at("send", request, rec.arrival.case, sent.sent);
            log.close_at(child, sent.submitted);
            let child = log.open_at("recv", request, rec.arrival.case, waited);
            log.close_at(child, done);
            log.close_at(request, done);
            recs.push(rec);
        }
    });
    log.set_enabled(trace);
    Ok(recs)
}

/// One phase: the schedule's records and the metrics the server and
/// gateway recorded during it.
struct PhaseRun {
    recs: Vec<Rec>,
    seconds: f64,
    serve: MetricsSnapshot,
    gateway: GatewaySnapshot,
}

impl PhaseRun {
    /// Append a later block of the same phase; its snapshots supersede
    /// this block's.
    fn absorb(&mut self, later: PhaseRun) {
        self.recs.extend(later.recs);
        self.seconds += later.seconds;
        self.serve = later.serve;
        self.gateway = later.gateway;
    }
}

/// Split a schedule at `at_s`, re-basing the second part to start at 0.
fn split(arrivals: Vec<Arrival>, at_s: f64) -> (Vec<Arrival>, Vec<Arrival>) {
    let (first, mut second): (Vec<Arrival>, Vec<Arrival>) =
        arrivals.into_iter().partition(|a| a.at_s < at_s);
    for arrival in &mut second {
        arrival.at_s -= at_s;
    }
    (first, second)
}

/// Run one block of a phase, with the server and gateway metrics zeroed
/// first.
fn run_phase(
    rig: &mut Rig,
    arrivals: Vec<Arrival>,
    seconds: f64,
    trace: bool,
    log: &mut SpanLog,
) -> Result<PhaseRun, String> {
    rig.reset_metrics();
    let start = now() + Duration::from_millis(5);
    let recs = run_wire(rig, &arrivals, start, trace, log)?;
    Ok(PhaseRun {
        recs,
        seconds,
        serve: rig.gateway.server().metrics_snapshot(),
        gateway: rig.gateway.metrics_snapshot(),
    })
}

/// Start the rig and warm it with a burst of distinct requests through
/// the timed path.
fn set_up(seed: u64, repeat: usize) -> Result<Rig, String> {
    let mut rig = Rig::start()?;
    let arrivals: Vec<Arrival> = (0..WARM_REQUESTS)
        .map(|i| Arrival {
            at_s: 0.0,
            case: case_id(seed, WARM_STREAM, repeat as u64 * WARM_REQUESTS + i),
        })
        .collect();
    let mut log = SpanLog::new(false, now());
    let run = run_phase(&mut rig, arrivals, 0.0, false, &mut log)?;
    match run.recs.iter().find_map(|r| r.outcome.error()) {
        Some(error) => Err(format!("warm-up request failed: {error}")),
        None => Ok(rig),
    }
}

/// Re-run every OK response's case on freshly prepared replicas and
/// compare bytes; return the mismatches and the quality values.
fn verify(recs: &[&Rec]) -> (Vec<String>, Vec<f64>) {
    let parts: Vec<&[&Rec]> = recs
        .chunks(recs.len().div_ceil(VERIFY_THREADS).max(1))
        .collect();
    let (_, metric, _) = sweep::QUALITY[sweep::index("lnn")];
    let mut failures = Vec::new();
    let mut quality = Vec::new();
    // nsai-lint: allow(pool-only-parallelism): reference runs split across client threads after the measured window.
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    let mut fresh = replica();
                    let mut failures = Vec::new();
                    let mut quality = Vec::new();
                    if let Err(e) = fresh.prepare() {
                        failures.push(format!("reference prepare: {e}"));
                        return (failures, quality);
                    }
                    for rec in part {
                        let Outcome::Ok(bytes) = &rec.outcome else {
                            continue;
                        };
                        let case = rec.arrival.case;
                        match fresh.run_case(&CaseInput::new(case)) {
                            Ok(direct) if encode_output(&direct) == *bytes => {
                                quality.push(direct.metric(metric).unwrap_or(f64::NAN));
                            }
                            Ok(_) => failures.push(format!(
                                "lnn case {case}: served output differs from direct run_case"
                            )),
                            Err(e) => failures
                                .push(format!("lnn case {case}: direct run_case failed: {e}")),
                        }
                    }
                    (failures, quality)
                })
            })
            .collect();
        for handle in handles {
            let (f, q) = handle.join().expect("a verification thread panicked");
            failures.extend(f);
            quality.extend(q);
        }
    });
    (failures, quality)
}

/// Sent, ok, failed and refused counts of one phase, as per-layer
/// metrics and on stderr.
fn push_counts(out: &mut Out, phase: &str, run: &PhaseRun) {
    let ok = run
        .recs
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Ok(_)))
        .count();
    let refused = run
        .recs
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Refused(_)))
        .count();
    let failed = run.recs.len() - ok - refused;
    let latencies: Vec<f64> = run.recs.iter().map(Rec::latency_ms).collect();
    eprintln!(
        "{phase}: sent {} ok {ok} failed {failed} refused {refused} over {:.1} s; \
         latency p50 {:.3} p90 {:.3} p99 {:.3} ms",
        run.recs.len(),
        run.seconds,
        median(&latencies),
        percentile(&latencies, 90.0),
        percentile(&latencies, 99.0),
    );
    out.put(&format!("loadgen.{phase}.sent"), run.recs.len() as f64);
    out.put(&format!("loadgen.{phase}.ok"), ok as f64);
    out.put(&format!("loadgen.{phase}.failed"), failed as f64);
    out.put(&format!("loadgen.{phase}.rejected"), refused as f64);
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Out) {
    let mut log = SpanLog::new(trace, now());

    let mut setups = Vec::new();
    let mut rig = None;
    for repeat in 0..SETUP_REPEATS {
        let (started, _, ms) = host::timed(|| set_up(seed, repeat));
        let started = match started {
            Ok(started) => started,
            Err(e) => return out.fail(e),
        };
        setups.push(ms / 1e3);
        if let Some(previous) = rig.replace(started) {
            previous.shutdown();
        }
    }
    let mut rig = rig.expect("at least one set-up");
    out.put("setup_s", median(&setups));

    // Timeline: light, loaded, light. Metrics are reset before each
    // block, so the loaded snapshot covers exactly the loaded phase.
    let light_s = seconds * LIGHT_SHARE;
    let loaded_s = seconds * LOADED_SHARE;
    let (light_1, light_2) = split(
        poisson_schedule(seed, LIGHT_STREAM, LIGHT_RPS, light_s),
        light_s / 2.0,
    );
    let loaded = poisson_schedule(seed, LOADED_STREAM, LOADED_RPS, loaded_s);
    let phases = (|| -> Result<(PhaseRun, PhaseRun), String> {
        let mut light = run_phase(&mut rig, light_1, light_s / 2.0, trace, &mut log)?;
        let loaded = run_phase(&mut rig, loaded, loaded_s, trace, &mut log)?;
        light.absorb(run_phase(
            &mut rig,
            light_2,
            light_s / 2.0,
            trace,
            &mut log,
        )?);
        Ok((light, loaded))
    })();
    rig.shutdown();
    let (light, loaded) = match phases {
        Ok(phases) => phases,
        Err(e) => return out.fail(e),
    };
    // Before the reference pass prepares its suite, so this is the
    // serving stack's own high-water mark.
    host::put_peak_rss(out);

    // A refused or failed request is counted as failed and misses the
    // goodput limit; it is not an output-check failure.
    let all: Vec<&Rec> = light.recs.iter().chain(&loaded.recs).collect();
    out.attempted += all.len() as u64;
    out.failed += all.iter().filter(|r| r.outcome.error().is_some()).count() as u64;
    for rec in all.iter().filter(|r| r.outcome.error().is_some()).take(5) {
        let error = rec.outcome.error().unwrap_or_default();
        eprintln!("case {} not served: {error}", rec.arrival.case);
    }
    let lag_p99 = percentile(&all.iter().map(|r| r.lag_ms()).collect::<Vec<_>>(), 99.0);
    if lag_p99.is_nan() || lag_p99 > LAG_LIMIT_MS {
        out.fail(format!(
            "invalid run: the generator sent {lag_p99:.2} ms late at p99 (limit {LAG_LIMIT_MS} ms)"
        ));
    }

    let (mismatches, quality) = verify(&all);
    out.failures.extend(mismatches);
    if quality.len() < sweep::QUALITY_MIN_CASES {
        out.fail(format!(
            "only {} requests served, too few to check their quality",
            quality.len()
        ));
    }
    check_quality("lnn", &quality, &mut out.failures);

    let latencies = |run: &PhaseRun| run.recs.iter().map(Rec::latency_ms).collect::<Vec<_>>();
    let loaded_ms = latencies(&loaded);
    out.put("light_p50_ms", median(&latencies(&light)));
    out.put("latency_p50_ms", median(&loaded_ms));
    out.put("latency_p99_ms", percentile(&loaded_ms, 99.0));
    let good = loaded_ms.iter().filter(|ms| **ms <= LIMIT_MS).count();
    out.put("goodput_rps", good as f64 / loaded.seconds);

    push_counts(out, "light", &light);
    push_counts(out, "loaded", &loaded);
    out.put("loadgen.lag_ms.p99", lag_p99);
    let s = &loaded.serve;
    out.put("serve.queue_wait_us.p50", s.queue_wait_us.p50 as f64);
    out.put("serve.queue_wait_us.p99", s.queue_wait_us.p99 as f64);
    out.put("serve.service_us.p50", s.service_us.p50 as f64);
    out.put("serve.service_us.p99", s.service_us.p99 as f64);
    out.put("serve.batch_size.mean", s.mean_batch_size());
    out.put("serve.queue_depth_peak", s.queue_depth_peak as f64);
    out.put("serve.rejected", s.rejected as f64);
    out.put("serve.timed_out", s.timed_out as f64);
    let submit_us: Vec<f64> = loaded.recs.iter().map(|r| r.submit_us).collect();
    out.put("serve.submit_us.p99", percentile(&submit_us, 99.0));
    let ok_loaded: Vec<&Rec> = loaded
        .recs
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Ok(_)))
        .collect();
    let client_us_p50 = median(
        &ok_loaded
            .iter()
            .map(|r| r.service_side_us())
            .collect::<Vec<_>>(),
    );
    out.put(
        "serve.residue_us.p50",
        client_us_p50 - s.queue_wait_us.p50 as f64 - s.service_us.p50 as f64,
    );
    let g = &loaded.gateway;
    out.put("gateway.wire_us.p50", g.wire_p50_us as f64);
    out.put("gateway.wire_us.p99", g.wire_p99_us as f64);
    out.put(
        "gateway.transport_us.p50",
        client_us_p50 - g.wire_p50_us as f64,
    );
    out.put("gateway.in_flight_peak", f64::from(g.peak_in_flight));
    out.put("gateway.window_rejected", g.window_rejected as f64);
    out.put("gateway.decode_errors", g.decode_errors as f64);
    out.put("gateway.frames_in", g.frames_in as f64);
    // Spans are recorded for even schedule positions only; the odd ones
    // are the same traffic untraced.
    let traced_p50 = |traced: bool| {
        median(
            &ok_loaded
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.service_side_us())
                .collect::<Vec<_>>(),
        )
    };
    if trace {
        out.put(
            "trace.overhead_pct",
            (traced_p50(true) / traced_p50(false) - 1.0) * 100.0,
        );
    }

    // The shortest sweep that gives this workload the `<wl>_ms` every
    // workload must print: profiled passes only, after serving.
    let (mut suite, _) = match sweep::set_up(seed) {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };
    let mut reference = Sweep::new(false);
    let deadline = now() + Duration::from_secs_f64(seconds * REFERENCE_SHARE);
    sweep::sweep(&mut suite, seed, deadline, false, &mut log, &mut reference);
    reference.check_quality();
    out.attempted += reference.attempted;
    out.failed += reference.failures.len() as u64;
    out.failures.extend(reference.failures.iter().cloned());
    reference.push_episode_latencies(out);
    if trace {
        crate::push_traced_extras(out, &reference, &mut suite, seed);
        crate::write_trace(out, &log);
    }
}
