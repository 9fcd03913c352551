//! Spans recorded on the benchmark's side of every layer call, plus the
//! process resource usage (CPU seconds, peak resident memory) the
//! metrics are derived from.
//!
//! A [`Trace`] that is off costs one branch per call: the end-to-end
//! metrics are measured through the same code with tracing off.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    /// Wall seconds inside the layer's calls.
    pub wall: f64,
    /// Process CPU seconds over the same intervals (every thread of the
    /// process, so concurrent workers are included).
    pub cpu: f64,
    /// Number of calls.
    pub calls: u64,
}

/// Layer spans and work counters of one timed unit of work.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    on: bool,
    /// Time per layer, keyed by layer name (`rhop`, `gdp.dfg`, ...).
    pub layers: BTreeMap<&'static str, Layer>,
    /// Work counters, summed over the calls of the unit.
    pub counters: BTreeMap<&'static str, f64>,
    /// Peak-valued counters (maximum over the calls of the unit).
    pub peaks: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A trace that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Trace { on, ..Trace::default() }
    }

    /// Whether spans and counters are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let cpu = cpu_seconds();
        let clock = Instant::now();
        let out = f();
        self.add(layer, clock.elapsed().as_secs_f64(), cpu_seconds() - cpu);
        out
    }

    /// Adds one call of `layer` measured elsewhere (a span the program
    /// itself emitted through `Obs`, which carries no CPU time).
    pub fn add(&mut self, layer: &'static str, wall: f64, cpu: f64) {
        if !self.on {
            return;
        }
        let l = self.layers.entry(layer).or_default();
        l.wall += wall;
        l.cpu += cpu;
        l.calls += 1;
    }

    /// Adds `value` to a summed work counter.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// Raises a peak counter to at least `value`.
    pub fn peak(&mut self, name: &'static str, value: f64) {
        if self.on {
            let p = self.peaks.entry(name).or_default();
            *p = p.max(value);
        }
    }

    /// Folds another unit's trace into this one (worker traces of one
    /// pass): times and counters add, peaks take the maximum.
    pub fn merge(&mut self, other: Trace) {
        for (name, l) in other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.wall += l.wall;
            mine.cpu += l.cpu;
            mine.calls += l.calls;
        }
        for (name, v) in other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, v) in other.peaks {
            let p = self.peaks.entry(name).or_default();
            *p = p.max(v);
        }
    }

    /// Wall seconds of `layer` (0 when it never ran).
    pub fn wall(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |l| l.wall)
    }

    /// A summed or peak counter (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).or_else(|| self.peaks.get(name)).copied().unwrap_or(0.0)
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s then
/// fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux (and no smaller than it on other
    // Unix targets), so `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    u
}

/// User plus system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident memory of this process image so far, in MiB (0 when
/// `/proc/self/status` cannot be read). This is `VmHWM`, which starts
/// afresh at `exec`; `getrusage`'s `ru_maxrss` does not, so under
/// `cargo run` it would report cargo's own peak whenever that is larger.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
