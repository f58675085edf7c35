//! `nsai-perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <characterize|serve-lnn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the
//! traced run (`--trace 1`) prints the per-layer metrics and writes its
//! spans to `results/`. Either way the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, a summary goes
//! to stderr, and any output-check failure exits 1. See `README.md`.

mod host;
mod sched;
mod serve;
mod stats;
mod sweep;
mod trace;

use stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use sweep::{Sweep, NAMES};
use trace::{now, SpanLog};

/// Kernel pool width of every workload (see `main`).
const POOL_WIDTH: usize = 1;
/// Set-ups per `characterize` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed LNN batches of eight for `workloads.lnn.batch8_ms_per_case`.
const BATCH8_REPS: usize = 10;

/// Every end-to-end metric, on every workload. The traced run prints
/// five more user-visible latencies with the per-layer metrics: ZeroC's
/// and PrAE's episode medians and the request latencies (`light_p50_ms`,
/// `latency_p50_ms`, `latency_p99_ms`). On the 2-vCPU test host their
/// spread between runs on one of the two workloads reaches 12-22%, too
/// close to the 25% regression bound to gate them (see README.md).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lnn_ms", "ms"),
    ("ltn_ms", "ms"),
    ("nvsa_ms", "ms"),
    ("nlm_ms", "ms"),
    ("vsait_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// Every per-layer metric with its unit. The traced run prints all of
/// them; a layer the workload does not pass through reads 0 (no serve
/// queue or gateway frame on `characterize`).
fn layer_registry() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| names.push((name.to_string(), unit));
    for latency in [
        "zeroc_ms",
        "prae_ms",
        "light_p50_ms",
        "latency_p50_ms",
        "latency_p99_ms",
    ] {
        add(latency, "ms");
    }
    for wl in NAMES {
        add(&format!("core.{wl}.events"), "count");
        add(&format!("core.{wl}.observer_overhead"), "ratio");
        add(&format!("core.{wl}.attributed_share"), "ratio");
        add(&format!("core.{wl}.report_ms"), "ms");
        add(&format!("workloads.{wl}.neural_ms"), "ms");
        add(&format!("workloads.{wl}.symbolic_ms"), "ms");
        add(&format!("workloads.{wl}.unprofiled_ms"), "ms");
        add(&format!("workloads.{wl}.wall_ms"), "ms");
    }
    add("workloads.lnn.batch8_ms_per_case", "ms");
    for kernel in ["circular_corr", "sgemm", "sgemv", "conv2d"] {
        add(&format!("tensor.{kernel}.gflops"), "GFLOP/s");
        add(&format!("tensor.{kernel}.roofline_pct"), "%");
    }
    for ms in [
        "tensor.circular_corr.ms",
        "tensor.circular_conv_fft.ms",
        "tensor.sgemm.ms",
        "tensor.sgemv.ms",
        "tensor.conv2d.zeroc.ms",
        "tensor.conv2d.prae.ms",
        "tensor.conv2d.vsait.ms",
        "tensor.conv2d.nvsa.ms",
        "tensor.permute_axes.ms",
        "tensor.outer.ms",
        "logic.bound_tighten.ms",
        "logic.forward_chain_iter.ms",
        "logic.fuzzy_aggregate.ms",
        "vsa.cosine_similarity.ms",
    ] {
        add(ms, "ms");
    }
    for (name, unit) in [
        ("serve.queue_wait_us.p50", "us"),
        ("serve.queue_wait_us.p99", "us"),
        ("serve.service_us.p50", "us"),
        ("serve.service_us.p99", "us"),
        ("serve.batch_size.mean", "count"),
        ("serve.queue_depth_peak", "count"),
        ("serve.submit_us.p99", "us"),
        ("serve.rejected", "count"),
        ("serve.timed_out", "count"),
        ("serve.residue_us.p50", "us"),
        ("gateway.wire_us.p50", "us"),
        ("gateway.wire_us.p99", "us"),
        ("gateway.transport_us.p50", "us"),
        ("gateway.in_flight_peak", "count"),
        ("gateway.window_rejected", "count"),
        ("gateway.decode_errors", "count"),
        ("gateway.frames_in", "count"),
        ("loadgen.lag_ms.p99", "ms"),
    ] {
        add(name, unit);
    }
    for phase in ["light", "loaded"] {
        for count in ["sent", "ok", "failed", "rejected"] {
            add(&format!("loadgen.{phase}.{count}"), "count");
        }
    }
    for (name, unit) in [
        ("host.triad_gbps", "GB/s"),
        ("host.fma_gflops", "GFLOP/s"),
        ("host.triad_mib", "MiB"),
        ("host.llc_mib", "MiB"),
        ("host.pool_width", "count"),
        ("trace.overhead_pct", "%"),
    ] {
        add(name, unit);
    }
    names
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Out {
    /// Every metric measured, end-to-end and per-layer alike; the result
    /// line prints the kind the run was asked for.
    values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Name of the trace file, `<workload>-seed<n>`.
    tag: String,
}

impl Out {
    /// Record a metric; its unit is in [`END_TO_END`] or
    /// [`layer_registry`].
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// The result line: every metric of the requested kind, in registry
    /// order. A missing end-to-end value or a non-finite value is a
    /// failure (and prints as 0 to keep the line valid JSON).
    fn result_line(&mut self, trace: bool) -> String {
        let registry: Vec<(String, &str)> = if trace {
            layer_registry()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let layers = layer_registry();
        for name in self.values.keys() {
            let registered =
                END_TO_END.iter().any(|(n, _)| n == name) || layers.iter().any(|(n, _)| n == name);
            if !registered {
                self.failures
                    .push(format!("metric {name} is not registered"));
            }
        }
        let values = &self.values;
        let mut metrics = String::new();
        let mut problems = Vec::new();
        for (i, (name, unit)) in registry.iter().enumerate() {
            let value = match values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    problems.push(format!("metric {name} is {v}"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    problems.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        self.failures.extend(problems);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The traced run's layer metrics that need the host ceilings, kernel
/// micro calls and a batch of LNN cases, on top of a sweep's reports.
pub fn push_traced_extras(
    out: &mut Out,
    sweep: &Sweep,
    suite: &mut [Box<dyn nsai_workloads::Workload>],
    seed: u64,
) {
    let ceilings = host::ceilings(out);
    sweep.push_layers(out, ceilings);
    host::kernel_micros(out);
    out.put(
        "host.pool_width",
        nsai_tensor::par::current_threads() as f64,
    );
    let lnn = suite[sweep::index("lnn")].as_mut();
    let per_case = sweep::lnn_batch8_ms_per_case(lnn, seed, BATCH8_REPS, &mut out.failures);
    out.put("workloads.lnn.batch8_ms_per_case", per_case);
}

/// Write the spans to `results/trace-<workload>-seed<n>.json` in the
/// benchmark's directory.
pub fn write_trace(out: &mut Out, log: &SpanLog) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = dir.join(format!("trace-{}.json", out.tag));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, log.to_json()));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", log.spans().len(), path.display()),
        Err(e) => out.fail(format!("writing {}: {e}", path.display())),
    }
}

fn characterize(seed: u64, seconds: f64, trace: bool, out: &mut Out) {
    let mut setups = Vec::new();
    let mut suite = None;
    for _ in 0..SETUP_REPEATS {
        match sweep::set_up(seed) {
            Ok((workloads, secs)) => {
                setups.push(secs);
                suite = Some(workloads);
            }
            Err(e) => return out.fail(e),
        }
    }
    let mut suite = suite.expect("at least one set-up");
    out.put("setup_s", median(&setups));
    let mut log = SpanLog::new(trace, now());
    let deadline = now() + std::time::Duration::from_secs_f64(seconds);
    let mut sweep = Sweep::new(true);
    sweep::sweep(&mut suite, seed, deadline, trace, &mut log, &mut sweep);
    sweep.check_quality();
    out.attempted += sweep.attempted;
    out.failed += sweep.failures.len() as u64;
    out.failures.extend(sweep.failures.iter().cloned());
    sweep.push_episode_latencies(out);
    sweep.push_pooled_latencies(out);
    host::put_peak_rss(out);
    if trace {
        out.put("trace.overhead_pct", sweep.trace_overhead_pct());
        push_traced_extras(out, &sweep, &mut suite, seed);
        write_trace(out, &log);
    }
}

const USAGE: &str = "usage: perfbench --workload <characterize|serve-lnn> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["characterize", "serve-lnn"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The pool width is read once per process, so pin it before any
    // kernel runs. One thread: on the 2-vCPU test host, episode medians
    // at width 2 spread by up to 36% between runs (width 1: up to 24%),
    // because a parallel kernel waits for whichever vCPU the host slows.
    std::env::set_var("NEUROSYM_THREADS", POOL_WIDTH.to_string());
    eprintln!(
        "perfbench {} seed {} for {} s, trace {}, pool width {POOL_WIDTH}",
        args.workload, args.seed, args.seconds, args.trace
    );

    let mut out = Out {
        tag: format!("{}-seed{}", args.workload, args.seed),
        ..Out::default()
    };
    match args.workload.as_str() {
        "characterize" => characterize(args.seed, args.seconds, args.trace, &mut out),
        _ => serve::run(args.seed, args.seconds, args.trace, &mut out),
    }

    for (name, value) in &out.values {
        eprintln!("  {name:40} {value:.4}");
    }
    let line = out.result_line(args.trace);
    for failure in &out.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{line}");
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str, next: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |e| start + e);
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| {
                    let name = &s[..s.find('"').expect("closing quote")];
                    let unit_at = s.find("\"unit\": \"").expect("unit") + 9;
                    let unit =
                        &s[unit_at..unit_at + s[unit_at..].find('"').expect("closing quote")];
                    (name.to_string(), unit.to_string())
                })
                .collect::<Vec<_>>()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = layer_registry()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("end_to_end", "per_layer"), e2e);
        assert_eq!(section("per_layer", "run_seconds"), layers);
    }

    #[test]
    fn result_line_reports_every_registered_metric() {
        let mut out = Out::default();
        for (name, _) in END_TO_END {
            out.put(name, 1.5);
        }
        out.attempted = 3;
        let line = out.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert_eq!(line.matches("\"value\": 1.5").count(), END_TO_END.len());
        // A non-finite value fails the run but keeps the line valid.
        out.put("setup_s", f64::NAN);
        assert!(out.result_line(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload serve-lnn --seed 9 --seconds 12 --trace 1").expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (9, 12.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload characterize --trace 2").is_err());
        assert!(parse("--workload characterize --seconds").is_err());
        assert!(parse("--workload characterize --bogus 1").is_err());
    }
}
