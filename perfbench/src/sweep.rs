//! The characterization sweep: one client thread runs the seven
//! workloads round-robin, each case once under the profiler and once
//! without it, the paper's Fig. 2a/3a protocol. `characterize` runs it for
//! the whole measured window; `serve-lnn` runs a short pass of it after
//! serving, because every workload prints every end-to-end metric.
//!
//! Episode and set-up times are host-normalized ([`host::timed`]): each
//! is scaled by a speed probe run right before and after it.

use crate::host;
use crate::sched::case_id;
use crate::stats::{mean, median, percentile};
use crate::trace::{now, secs_since, SpanId, SpanLog};
use crate::Out;
use nsai_core::{Phase, Profiler};
use nsai_gateway::wire::encode_output;
use nsai_workloads::{
    CaseInput, Lnn, LnnConfig, Ltn, LtnConfig, Nlm, NlmConfig, Nvsa, NvsaConfig, Prae, PraeConfig,
    Vsait, VsaitConfig, Workload, WorkloadOutput, ZeroC, ZeroCConfig,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The seven workloads, in round-robin order.
pub const NAMES: [&str; 7] = ["lnn", "ltn", "nvsa", "nlm", "vsait", "zeroc", "prae"];

/// Quality metric of each workload and the floor its mean over a run's
/// cases must reach. Each floor sits at least 4.5 standard errors of a
/// 20-case mean below the mean over 60-300 seeded cases (LNN 0.93, LTN
/// 1.0, NVSA 0.90, NLM 0.99, VSAIT 1.0, ZeroC 0.49, PrAE 0.77), so a
/// reasoning regression fails the run while the spread between seeds
/// does not.
pub const QUALITY: [(&str, &str, f64); 7] = [
    ("lnn", "resolved_fraction", 0.8),
    ("ltn", "accuracy", 0.85),
    ("nvsa", "accuracy", 0.65),
    ("nlm", "test_balanced_accuracy", 0.8),
    ("vsait", "cycle_consistency", 0.99),
    ("zeroc", "accuracy", 0.35),
    ("prae", "accuracy", 0.45),
];

/// A quality mean is checked only over at least this many cases; fewer
/// cases cannot tell a regression from an unlucky draw.
pub const QUALITY_MIN_CASES: usize = 20;

/// Episodes slower than this (host-normalized) miss `characterize`'s
/// latency limit.
pub const EPISODE_LIMIT_MS: f64 = 1000.0;

/// Operators whose per-episode time the per-layer metrics report.
const TRACKED_OPS: [&str; 13] = [
    "circular_corr",
    "circular_conv_fft",
    "sgemm",
    "sgemm_nt",
    "sgemm_tn",
    "sgemv",
    "conv2d",
    "permute_axes",
    "outer",
    "bound_tighten",
    "forward_chain_iter",
    "fuzzy_aggregate",
    "cosine_similarity",
];

/// Case-id streams: 0..7 are the timed cases of each workload, 10..17
/// the warm-up cases, 20..23 the serve workloads' own streams, 30 the
/// LNN batches.
const WARM_STREAM: u64 = 10;
const BATCH_STREAM: u64 = 30;

pub fn suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Lnn::new(LnnConfig::small())),
        Box::new(Ltn::new(LtnConfig::small())),
        Box::new(Nvsa::new(NvsaConfig::small())),
        Box::new(Nlm::new(NlmConfig::small())),
        Box::new(Vsait::new(VsaitConfig::small())),
        Box::new(ZeroC::new(ZeroCConfig::small())),
        Box::new(Prae::new(PraeConfig::small())),
    ]
}

/// Construct, prepare and warm the suite (one unprofiled warm-up case
/// each, which also pays VSAIT's lazy first run). Returns the suite and
/// the host-normalized seconds it took.
pub fn set_up(seed: u64) -> Result<(Vec<Box<dyn Workload>>, f64), String> {
    let (workloads, _, ms) = host::timed(|| {
        let mut workloads = suite();
        for (i, workload) in workloads.iter_mut().enumerate() {
            workload
                .prepare()
                .map_err(|e| format!("{}: prepare: {e}", NAMES[i]))?;
            let warm = CaseInput::new(case_id(seed, WARM_STREAM + i as u64, 0));
            workload
                .run_case(&warm)
                .map_err(|e| format!("{}: warm-up: {e}", NAMES[i]))?;
        }
        Ok::<_, String>(workloads)
    });
    Ok((workloads?, ms / 1e3))
}

/// Per-episode totals of one operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStat {
    pub ms: f64,
    pub flops: u64,
    pub bytes: u64,
}

/// One case of one workload, run profiled and unprofiled. Times are
/// host-normalized unless named `wall`.
#[derive(Debug, Clone)]
pub struct Episode {
    pub workload: usize,
    pub profiled_ms: f64,
    pub profiled_wall_ms: f64,
    pub bare_ms: f64,
    pub report_ms: f64,
    pub events: u64,
    pub attributed_ms: f64,
    pub neural_ms: f64,
    pub symbolic_ms: f64,
    pub ops: BTreeMap<&'static str, OpStat>,
    pub quality: f64,
    /// Whether spans were recorded around this episode.
    pub traced: bool,
}

/// What a sweep measured, over one or more stretches of rounds.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Whether each case also runs unprofiled, for the output check and
    /// the observer metrics; without it a sweep fits twice the rounds.
    twin: bool,
    pub episodes: Vec<Episode>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Rounds run so far; the next stretch continues the case ids.
    rounds: usize,
}

/// An output with its wall and host-normalized milliseconds.
type Timed = (Result<WorkloadOutput, String>, f64, f64);

fn run_timed(workload: &mut dyn Workload, case: u64) -> Timed {
    host::timed(|| {
        workload
            .run_case(&CaseInput::new(case))
            .map_err(|e| e.to_string())
    })
}

fn profiled_pass(
    log: &mut SpanLog,
    workload: &mut dyn Workload,
    profiler: &Profiler,
    parent: SpanId,
    case: u64,
) -> Timed {
    let span = log.open("episode", parent, case);
    let result = {
        let _active = profiler.activate();
        run_timed(workload, case)
    };
    log.close(span);
    result
}

fn bare_pass(log: &mut SpanLog, workload: &mut dyn Workload, parent: SpanId, case: u64) -> Timed {
    log.span("episode_bare", parent, case, || run_timed(workload, case))
}

/// Run further rounds over `workloads` into `out` until `deadline`
/// (checked between rounds, so at least one round runs). With `trace`,
/// spans are recorded on two rounds of every four, so the other two
/// measure the same work untraced. Twin rounds alternate which pass runs
/// first, and each parity meets each order once per four rounds.
pub fn sweep(
    workloads: &mut [Box<dyn Workload>],
    seed: u64,
    deadline: Instant,
    trace: bool,
    log: &mut SpanLog,
    out: &mut Sweep,
) {
    let first = out.rounds;
    loop {
        let round = out.rounds;
        if round > first && now() >= deadline {
            break;
        }
        log.set_enabled(trace && round % 4 < 2);
        let round_span = log.open("round", SpanId::root(), round as u64);
        for (i, workload) in workloads.iter_mut().enumerate() {
            let case = case_id(seed, i as u64, round as u64);
            out.attempted += 1;
            let profiler = Profiler::new();
            let workload = workload.as_mut();
            let ((profiled, profiled_wall_ms, profiled_ms), (bare, _, bare_ms)) = if !out.twin {
                let p = profiled_pass(log, workload, &profiler, round_span, case);
                let copy = p.0.clone();
                (p, (copy, f64::NAN, f64::NAN))
            } else if round.is_multiple_of(2) {
                let p = profiled_pass(log, workload, &profiler, round_span, case);
                (p, bare_pass(log, workload, round_span, case))
            } else {
                let b = bare_pass(log, workload, round_span, case);
                (profiled_pass(log, workload, &profiler, round_span, case), b)
            };
            let (profiled, bare) = match (profiled, bare) {
                (Ok(p), Ok(b)) => (p, b),
                (Err(e), _) | (_, Err(e)) => {
                    out.failures.push(format!("{} case {case}: {e}", NAMES[i]));
                    continue;
                }
            };
            if encode_output(&profiled) != encode_output(&bare) {
                out.failures.push(format!(
                    "{} case {case}: profiled output differs from unprofiled",
                    NAMES[i]
                ));
                continue;
            }
            let report_span = log.open("report", round_span, case);
            let report_start = now();
            let report = profiler.report_for(NAMES[i]);
            let report_ms = secs_since(report_start) * 1e3;
            log.close(report_span);
            let mut ops = BTreeMap::new();
            for name in TRACKED_OPS {
                if let Some(op) = report.op(name) {
                    ops.insert(
                        name,
                        OpStat {
                            ms: op.duration.as_secs_f64() * 1e3,
                            flops: op.flops,
                            bytes: op.bytes,
                        },
                    );
                }
            }
            let metric = QUALITY[i].1;
            let Some(quality) = profiled.metric(metric) else {
                out.failures
                    .push(format!("{} case {case}: no {metric}", NAMES[i]));
                continue;
            };
            out.episodes.push(Episode {
                workload: i,
                profiled_ms,
                profiled_wall_ms,
                bare_ms,
                report_ms,
                events: report.event_count(),
                attributed_ms: report.total_duration().as_secs_f64() * 1e3,
                neural_ms: report.phase_duration(Phase::Neural).as_secs_f64() * 1e3,
                symbolic_ms: report.phase_duration(Phase::Symbolic).as_secs_f64() * 1e3,
                ops,
                quality,
                traced: log.enabled(),
            });
        }
        log.close(round_span);
        out.rounds += 1;
    }
    log.set_enabled(trace);
}

impl Sweep {
    pub fn new(twin: bool) -> Self {
        Sweep {
            twin,
            ..Sweep::default()
        }
    }

    /// Check each workload's mean quality over the cases run.
    pub fn check_quality(&mut self) {
        for (i, name) in NAMES.iter().enumerate() {
            let values: Vec<f64> = self.of(i).map(|e| e.quality).collect();
            check_quality(name, &values, &mut self.failures);
        }
    }

    pub fn of(&self, workload: usize) -> impl Iterator<Item = &Episode> {
        self.episodes.iter().filter(move |e| e.workload == workload)
    }

    fn median_of(&self, workload: usize, f: impl Fn(&Episode) -> f64) -> f64 {
        median(&self.of(workload).map(f).collect::<Vec<_>>())
    }

    /// Median per-episode time of the named operators in `workload`.
    fn op_ms(&self, workload: &str, ops: &[&str]) -> f64 {
        let i = index(workload);
        self.median_of(i, |e| {
            ops.iter()
                .filter_map(|op| e.ops.get(op))
                .map(|s| s.ms)
                .sum()
        })
    }

    /// `<wl>_ms`: the median profiled episode latency of each workload.
    pub fn push_episode_latencies(&self, out: &mut Out) {
        for (i, name) in NAMES.iter().enumerate() {
            out.put(&format!("{name}_ms"), self.median_of(i, |e| e.profiled_ms));
        }
    }

    /// The latency metrics of `characterize`, which treats each profiled
    /// episode as one request of a closed loop with one client, sent as
    /// soon as the previous one ends; the unprofiled twins are the light
    /// path without the observer. Goodput is per second of (normalized)
    /// profiled episode time.
    pub fn push_pooled_latencies(&self, out: &mut Out) {
        let profiled: Vec<f64> = self.episodes.iter().map(|e| e.profiled_ms).collect();
        let bare: Vec<f64> = self.episodes.iter().map(|e| e.bare_ms).collect();
        out.put("light_p50_ms", median(&bare));
        out.put("latency_p50_ms", median(&profiled));
        out.put("latency_p99_ms", percentile(&profiled, 99.0));
        let good = profiled
            .iter()
            .filter(|ms| **ms <= EPISODE_LIMIT_MS)
            .count();
        out.put(
            "goodput_rps",
            good as f64 / (profiled.iter().sum::<f64>() / 1e3),
        );
    }

    /// The per-layer metrics of `nsai-core`, `nsai-workloads`, the
    /// tensor kernels' profiler summaries, `nsai-logic` and `nsai-vsa`.
    pub fn push_layers(&self, out: &mut Out, ceilings: Ceilings) {
        for (i, name) in NAMES.iter().enumerate() {
            let profiled = self.median_of(i, |e| e.profiled_ms);
            out.put(
                &format!("core.{name}.events"),
                self.median_of(i, |e| e.events as f64),
            );
            if self.twin {
                let bare = self.median_of(i, |e| e.bare_ms);
                out.put(&format!("core.{name}.observer_overhead"), profiled / bare);
                out.put(&format!("workloads.{name}.unprofiled_ms"), bare);
            }
            out.put(
                &format!("core.{name}.attributed_share"),
                self.median_of(i, |e| e.attributed_ms / e.profiled_wall_ms),
            );
            out.put(
                &format!("workloads.{name}.wall_ms"),
                self.median_of(i, |e| e.profiled_wall_ms),
            );
            out.put(
                &format!("core.{name}.report_ms"),
                self.median_of(i, |e| e.report_ms),
            );
            out.put(
                &format!("workloads.{name}.neural_ms"),
                self.median_of(i, |e| e.neural_ms),
            );
            out.put(
                &format!("workloads.{name}.symbolic_ms"),
                self.median_of(i, |e| e.symbolic_ms),
            );
        }
        out.put(
            "tensor.circular_corr.ms",
            self.op_ms("nvsa", &["circular_corr"]),
        );
        out.put(
            "tensor.circular_conv_fft.ms",
            self.op_ms("nvsa", &["circular_conv_fft"]),
        );
        out.put("tensor.sgemm.ms", self.op_ms("ltn", &SGEMM));
        out.put("tensor.sgemv.ms", self.op_ms("vsait", &["sgemv"]));
        for wl in ["zeroc", "prae", "vsait", "nvsa"] {
            out.put(
                &format!("tensor.conv2d.{wl}.ms"),
                self.op_ms(wl, &["conv2d"]),
            );
        }
        out.put(
            "tensor.permute_axes.ms",
            self.op_ms("nlm", &["permute_axes"]),
        );
        out.put("tensor.outer.ms", self.op_ms("prae", &["outer"]));
        out.put(
            "logic.bound_tighten.ms",
            self.op_ms("lnn", &["bound_tighten"]),
        );
        out.put(
            "logic.forward_chain_iter.ms",
            self.op_ms("lnn", &["forward_chain_iter"]),
        );
        out.put(
            "logic.fuzzy_aggregate.ms",
            self.op_ms("ltn", &["fuzzy_aggregate"]),
        );
        out.put(
            "vsa.cosine_similarity.ms",
            self.op_ms("nvsa", &["cosine_similarity"]),
        );
        for (kernel, workload, ops) in ROOFLINE_KERNELS {
            out.put(
                &format!("tensor.{kernel}.roofline_pct"),
                self.roofline_pct(workload, ops, ceilings),
            );
        }
    }

    /// Spans are recorded on two rounds of every four: compare each
    /// workload's traced and untraced episodes, then take the median
    /// workload.
    pub fn trace_overhead_pct(&self) -> f64 {
        let ratios: Vec<f64> = (0..NAMES.len())
            .map(|i| {
                let times = |traced: bool| {
                    self.of(i)
                        .filter(|e| e.traced == traced)
                        .map(|e| e.profiled_ms)
                        .collect::<Vec<_>>()
                };
                median(&times(true)) / median(&times(false))
            })
            .collect();
        (median(&ratios) - 1.0) * 100.0
    }

    /// Attained rate of `ops` inside `workload` (profiler flops over
    /// profiler time) as a share of the host roofline at the operators'
    /// intensity (profiler flops over computed bytes).
    fn roofline_pct(&self, workload: &str, ops: &[&str], ceilings: Ceilings) -> f64 {
        let (mut ms, mut flops, mut bytes) = (0.0, 0u64, 0u64);
        for e in self.of(index(workload)) {
            for stat in ops.iter().filter_map(|op| e.ops.get(op)) {
                ms += stat.ms;
                flops += stat.flops;
                bytes += stat.bytes;
            }
        }
        let attained_gflops = flops as f64 / (ms * 1e6);
        let intensity = flops as f64 / bytes as f64;
        let roof = ceilings
            .peak_gflops
            .min(ceilings.bandwidth_gbps * intensity);
        100.0 * attained_gflops / roof
    }
}

const SGEMM: [&str; 3] = ["sgemm", "sgemm_nt", "sgemm_tn"];

/// The four kernels placed on the roofline, each inside the workload
/// where it dominates.
const ROOFLINE_KERNELS: [(&str, &str, &[&str]); 4] = [
    ("circular_corr", "nvsa", &["circular_corr"]),
    ("sgemm", "ltn", &SGEMM),
    ("sgemv", "vsait", &["sgemv"]),
    ("conv2d", "zeroc", &["conv2d"]),
];

/// Host ceilings measured by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    pub peak_gflops: f64,
    pub bandwidth_gbps: f64,
}

pub fn index(workload: &str) -> usize {
    NAMES
        .iter()
        .position(|n| *n == workload)
        .expect("a workload of the suite")
}

/// Median per-case time of LNN `run_batch` over eight distinct cases,
/// with each batch output checked against `run_case` of the same case.
pub fn lnn_batch8_ms_per_case(
    lnn: &mut dyn Workload,
    seed: u64,
    reps: usize,
    failures: &mut Vec<String>,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|rep| {
            let inputs: Vec<CaseInput> = (0..8)
                .map(|k| CaseInput::new(case_id(seed, BATCH_STREAM, (rep * 8 + k) as u64)))
                .collect();
            let start = now();
            let outputs = lnn.run_batch(&inputs);
            let per_case = secs_since(start) * 1e3 / inputs.len() as f64;
            for (input, batched) in inputs.iter().zip(outputs) {
                let single = lnn.run_case(input);
                match (batched, single) {
                    (Ok(b), Ok(s)) if encode_output(&b) == encode_output(&s) => {}
                    _ => failures.push(format!(
                        "lnn case {}: batch output differs from run_case",
                        input.case
                    )),
                }
            }
            per_case
        })
        .collect();
    median(&samples)
}

/// Check the mean quality of `values` (outputs of `workload`) against
/// its reference floor.
pub fn check_quality(workload: &str, values: &[f64], failures: &mut Vec<String>) {
    let (_, metric, floor) = QUALITY[index(workload)];
    if values.len() >= QUALITY_MIN_CASES && (mean(values).is_nan() || mean(values) < floor) {
        failures.push(format!(
            "{workload}: mean {metric} {:.4} over {} cases is below the reference {floor}",
            mean(values),
            values.len()
        ));
    }
}
