//! Facts about the host, and the two roofline probes (STREAM triad and a
//! multiply-add loop) measured in the same run as the kernels they bound.

use sem_obs::WallTimer;
use std::hint::black_box;

/// Run metadata recorded next to every result.
pub struct HostInfo {
    pub cores: usize,
    pub llc_bytes: usize,
    pub rustc: &'static str,
    pub commit: String,
}

impl HostInfo {
    pub fn probe() -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            llc_bytes: llc_bytes(),
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit: git_commit(),
        }
    }
}

/// Size of the last-level cache: the highest-level cache sysfs lists for
/// cpu0, else the `cache size` line of `/proc/cpuinfo`, else 32 MiB.
fn llc_bytes() -> usize {
    let mut best: Option<(u32, usize)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Ok(level), Ok(size)) = (
            std::fs::read_to_string(format!("{dir}/level")),
            std::fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(&size)) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, bytes)| bytes)
        .or_else(|| {
            std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines()
                        .find(|l| l.starts_with("cache size"))
                        .and_then(|l| l.split(':').nth(1))
                        .and_then(parse_size)
                })
        })
        .unwrap_or(32 << 20)
}

/// Parse `107520K`, `107520 KB`, `32M` or a plain byte count.
fn parse_size(text: &str) -> Option<usize> {
    let text = text
        .trim()
        .trim_end_matches('B')
        .trim_end_matches('i')
        .trim();
    let (digits, shift) = match text.chars().last()? {
        'K' | 'k' => (&text[..text.len() - 1], 10),
        'M' | 'm' => (&text[..text.len() - 1], 20),
        _ => (text, 0),
    };
    digits.trim().parse::<usize>().ok().map(|n| n << shift)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|c| c.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host roofline: sustained bandwidth and peak arithmetic rate over all
/// cores.
pub struct Roofline {
    pub triad_gbs: f64,
    /// Bytes of each of the three triad arrays (at least 4x the LLC).
    pub triad_array_bytes: usize,
    pub fma_gflops: f64,
}

impl Roofline {
    pub fn measure(host: &HostInfo) -> Self {
        let (triad_gbs, triad_array_bytes) = triad(host.llc_bytes, host.cores);
        Self {
            triad_gbs,
            triad_array_bytes,
            fma_gflops: multiply_add_peak(host.cores),
        }
    }

    /// The bound `min(peak, bandwidth x intensity)` at `degree`.
    pub fn bound_gflops(&self, degree: usize) -> f64 {
        perf_model::roofline_gflops(
            self.fma_gflops,
            self.triad_gbs,
            perf_model::operational_intensity(degree),
        )
    }
}

/// STREAM triad `a = b + s c` over `threads` threads; the best of five
/// passes.  Bytes are computed from the array sizes (24 per element, no
/// write-allocate traffic), not measured.
fn triad(llc_bytes: usize, threads: usize) -> (f64, usize) {
    let len = (4 * llc_bytes).div_ceil(8);
    let b = vec![1.0_f64; len];
    let c = vec![2.0_f64; len];
    let mut a = vec![0.0_f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = 0.0_f64;
    // The first pass faults the pages in and is not counted.
    for pass in 0..6 {
        let timer = WallTimer::start();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    let s = black_box(3.0);
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + s * c;
                    }
                });
            }
        });
        let seconds = timer.elapsed_wall_seconds();
        black_box(&a);
        if pass > 0 {
            best = best.max(24.0 * len as f64 / seconds / 1e9);
        }
    }
    (best, len * 8)
}

/// Peak multiply-add rate over `threads` threads: 32 independent
/// `x = x m + a` chains per thread, compiled with the same flags as the
/// kernels (so it is the peak this build can reach); the best of three.
fn multiply_add_peak(threads: usize) -> f64 {
    const LANES: usize = 32;
    const ITERS: u64 = 20_000_000;
    let mut best = 0.0_f64;
    for _ in 0..3 {
        let timer = WallTimer::start();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let m = black_box(0.999_999_9);
                    let add = black_box(1e-7);
                    let mut acc = [1.0_f64; LANES];
                    for _ in 0..ITERS {
                        for x in &mut acc {
                            *x = *x * m + add;
                        }
                    }
                    black_box(acc);
                });
            }
        });
        let flops = 2.0 * (LANES as u64 * ITERS * threads as u64) as f64;
        best = best.max(flops / timer.elapsed_wall_seconds() / 1e9);
    }
    best
}
