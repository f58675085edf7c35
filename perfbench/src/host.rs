//! Host ceilings and kernel micro calls, measured by the traced run; the
//! speed probe that puts compute times on one host-speed scale; and the
//! process's peak resident memory.

use crate::stats::median;
use crate::sweep::Ceilings;
use crate::trace::{now, secs_since};
use crate::Out;
use nsai_core::Profiler;
use nsai_tensor::ops::conv::Conv2dParams;
use nsai_tensor::Tensor;
use std::hint::black_box;

/// Cap on the triad's three arrays together. Hosts whose last-level
/// cache reports more than a quarter of this get a triad that may partly
/// run from cache; both sizes are reported so that shows.
const TRIAD_CAP_BYTES: usize = 512 << 20;

/// Assumed last-level cache when the host does not report one.
const DEFAULT_LLC_BYTES: usize = 32 << 20;

/// Multiply-add iterations of one speed probe: 64 lanes, 2.56 MFLOP.
const PROBE_ITERS: usize = 20_000;

/// Time of one speed probe on the 2-vCPU host the benchmark was tuned
/// on, in its fast state. Host-normalized times are scaled to it, so on
/// that host in that state they read as plain wall time.
const PROBE_REFERENCE_MS: f64 = 0.085;

/// Milliseconds of a fixed multiply-add loop, the benchmark's own code
/// and so the same on every commit. Shared hosts change their
/// floating-point speed for seconds at a time (to 1.3-1.9x slower on the
/// test host, while an integer loop keeps its speed); this loop slows
/// with them.
pub fn probe_ms() -> f64 {
    let m = black_box(0.999_999f32);
    let add = black_box(1e-6f32);
    let mut acc = [[1.0f32; 8]; 8];
    let start = now();
    for _ in 0..black_box(PROBE_ITERS) {
        for lanes in acc.iter_mut() {
            for x in lanes.iter_mut() {
                *x = *x * m + add;
            }
        }
    }
    black_box(acc);
    secs_since(start) * 1e3
}

/// Run `f` between two speed probes. Returns its result, its wall time in
/// ms, and that time scaled by [`PROBE_REFERENCE_MS`] over the probes'
/// mean: the host-normalized time, which a change in the program moves by
/// the same share as the wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = probe_ms();
    let start = now();
    let out = f();
    let wall_ms = secs_since(start) * 1e3;
    let probe = (before + probe_ms()) / 2.0;
    (out, wall_ms, wall_ms * PROBE_REFERENCE_MS / probe)
}

/// Largest cache size the kernel reports for CPU 0, in bytes.
fn last_level_cache_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(|text| {
            let text = text.trim();
            let (digits, scale) = match text.strip_suffix('K') {
                Some(d) => (d, 1 << 10),
                None => match text.strip_suffix('M') {
                    Some(d) => (d, 1 << 20),
                    None => (text, 1),
                },
            };
            digits.parse::<usize>().ok().map(|n| n * scale)
        })
        .max()
        .unwrap_or(DEFAULT_LLC_BYTES)
}

/// Run `f(item)` for every item, one thread each, and join them.
fn on_threads<T: Send>(items: Vec<T>, f: impl Fn(T) + Sync) {
    // nsai-lint: allow(pool-only-parallelism): host calibration loads every core at once, outside any workload's pool.
    std::thread::scope(|s| {
        for item in items {
            let f = &f;
            s.spawn(move || f(item));
        }
    });
}

/// STREAM-style triad `a = b + s * c` over arrays at least four times
/// the last-level cache (capped), on `threads` threads. Best of five
/// passes, counting 24 bytes per element (two reads and one write).
fn triad(threads: usize, out: &mut Out) -> f64 {
    let llc = last_level_cache_bytes();
    let total = (4 * llc).min(TRIAD_CAP_BYTES);
    let n = total / (3 * std::mem::size_of::<f64>());
    let chunk = n.div_ceil(threads);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let scalar = black_box(3.0);
        let start = now();
        let chunks: Vec<_> = a
            .chunks_mut(chunk)
            .zip(b.chunks(chunk))
            .zip(c.chunks(chunk))
            .collect();
        on_threads(chunks, |((a, b), c)| {
            for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                *x = y + scalar * z;
            }
        });
        best = best.min(secs_since(start));
    }
    black_box(&a);
    out.put("host.llc_mib", llc as f64 / f64::from(1 << 20));
    out.put("host.triad_mib", (3 * n * 8) as f64 / f64::from(1 << 20));
    (3 * n * 8) as f64 / best / 1e9
}

/// Multiply-add peak: eight independent 8-lane accumulators per thread,
/// compiled for the build's target like the kernels are. Best of three.
fn multiply_add_peak(threads: usize) -> f64 {
    const ITERS: usize = 4_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = now();
        on_threads((0..threads).collect(), |_: usize| {
            let m = black_box(0.999_999f32);
            let add = black_box(1e-6f32);
            let mut acc = [[1.0f32; 8]; 8];
            for _ in 0..ITERS {
                for lanes in acc.iter_mut() {
                    for x in lanes.iter_mut() {
                        *x = *x * m + add;
                    }
                }
            }
            black_box(acc);
        });
        best = best.min(secs_since(start));
    }
    (threads * ITERS * 64 * 2) as f64 / best / 1e9
}

/// Measure the host ceilings and report them.
pub fn ceilings(out: &mut Out) -> Ceilings {
    let threads = nsai_tensor::par::current_threads();
    let bandwidth_gbps = triad(threads, out);
    let peak_gflops = multiply_add_peak(threads);
    out.put("host.triad_gbps", bandwidth_gbps);
    out.put("host.fma_gflops", peak_gflops);
    Ceilings {
        peak_gflops,
        bandwidth_gbps,
    }
}

/// GFLOP/s of one kernel call: flops from the profiler's count of one
/// call, time as the median of 15 unprofiled samples of ~2 ms each.
fn micro(f: impl Fn()) -> f64 {
    let profiler = Profiler::new();
    {
        let _active = profiler.activate();
        f();
    }
    let flops = profiler
        .report()
        .ops()
        .iter()
        .map(|op| op.flops)
        .sum::<u64>();
    let start = now();
    f();
    let once = secs_since(start).max(1e-7);
    let calls = ((2e-3 / once) as usize).max(1);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = now();
            for _ in 0..calls {
                f();
            }
            secs_since(start) / calls as f64
        })
        .collect();
    flops as f64 / median(&samples) / 1e9
}

/// Kernel rates at the shapes the workloads use them with.
pub fn kernel_micros(out: &mut Out) {
    // NVSA's HRR unbind: two 1024-d hypervectors.
    let x = Tensor::rand_normal(&[1024], 1.0, 1);
    let y = Tensor::rand_normal(&[1024], 1.0, 2);
    out.put(
        "tensor.circular_corr.gflops",
        micro(|| {
            black_box(x.circular_corr(&y).expect("same-length vectors"));
        }),
    );
    // LTN's grounding MLP hidden layer: 120 points x 64 units.
    let act = Tensor::rand_normal(&[120, 64], 1.0, 3);
    let weight = Tensor::rand_normal(&[64, 64], 1.0, 4);
    out.put(
        "tensor.sgemm.gflops",
        micro(|| {
            black_box(act.matmul_bt(&weight).expect("inner dimensions agree"));
        }),
    );
    // VSAIT's LSH projection: 1024 features into 4096 dimensions.
    let projection = Tensor::rand_normal(&[4096, 1024], 1.0, 5);
    let features = Tensor::rand_normal(&[1024], 1.0, 6);
    out.put(
        "tensor.sgemv.gflops",
        micro(|| {
            black_box(
                projection
                    .matvec(&features)
                    .expect("inner dimensions agree"),
            );
        }),
    );
    // ZeroC's matched filter: a 32x32 scene against an 8x8 template.
    let scene = Tensor::rand_normal(&[1, 1, 32, 32], 1.0, 7);
    let template = Tensor::rand_normal(&[1, 1, 8, 8], 1.0, 8);
    out.put(
        "tensor.conv2d.gflops",
        micro(|| {
            black_box(
                scene
                    .conv2d(&template, None, Conv2dParams::default())
                    .expect("template fits the scene"),
            );
        }),
    );
}

/// The process's peak resident set, in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Record `peak_rss_mb`, the process's high-water RSS so far.
pub fn put_peak_rss(out: &mut Out) {
    match peak_rss_mb() {
        Some(mb) => out.put("peak_rss_mb", mb),
        None => out.fail("peak RSS is unavailable".to_string()),
    }
}
