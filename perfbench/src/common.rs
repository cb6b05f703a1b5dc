//! Shared measurement plumbing: run configuration, latency statistics,
//! process CPU time and peak memory, and the result line.

use std::time::{Duration, Instant};

use lockbind_engine::{Engine, EngineConfig};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (`grid` or `attack`).
    pub workload: String,
    /// Seed every generated input is derived from.
    pub seed: u64,
    /// Measuring budget.
    pub seconds: Duration,
    /// `true` for the per-layer (traced) run.
    pub trace: bool,
}

impl RunConfig {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<RunConfig, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds out of range: {value}"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(RunConfig {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Worker count the workloads use: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fresh engine with one worker per core, as a batch caller runs it.
pub fn engine(seed: u64) -> Engine {
    Engine::new(EngineConfig {
        threads: nproc(),
        root_seed: seed,
        fail_fast: false,
        progress: false,
        check: false,
        audit: false,
        ..EngineConfig::default()
    })
}

/// Percentiles the tail metric may report, highest first. The ladder
/// stops at p99: on a shared 2-core VM the last per-mille is set by
/// multi-millisecond host stalls, not by the program, and moves several-fold
/// between runs of the same code.
const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 97.5, 95.0, 90.0, 75.0];

/// Fewest samples that must lie beyond the tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// Latency samples of one run, in milliseconds. `p50_ms` and `tail_ms`
/// both come from this one set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, ms: f64) {
        self.sorted.push(ms);
        self.dirty = true;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn sort(&mut self) {
        if self.dirty {
            self.sorted.sort_by(f64::total_cmp);
            self.dirty = false;
        }
    }

    /// Nearest-rank percentile and the number of samples beyond it.
    pub fn percentile(&mut self, pct: f64) -> Option<(f64, usize)> {
        self.sort();
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        Some((self.sorted[rank - 1], n - rank))
    }

    /// The median.
    pub fn p50(&mut self) -> Option<f64> {
        self.percentile(50.0).map(|(v, _)| v)
    }

    /// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
    /// samples beyond it; `None` when even the lowest rung has fewer (the
    /// run is then invalid).
    pub fn tail(&mut self) -> Option<Tail> {
        TAIL_LADDER.iter().find_map(|&pct| {
            let (value, beyond) = self.percentile(pct)?;
            (beyond >= TAIL_MIN_BEYOND).then_some(Tail { pct, value, beyond })
        })
    }
}

/// Median of a slice (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`s on
    // the 64-bit Linux targets this benchmark builds for) and the clock id
    // is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Repetitions after which peak memory is read. A fixed amount of work
/// keeps the reading independent of how many repetitions the host's speed
/// fits into the budget: the allocator's high-water mark creeps up with
/// every repetition.
const PEAK_RSS_REPS: usize = 4;

/// Wall and CPU time of each measured repetition (sweep or round) of a
/// run, so set-up work between them stays out of throughput and CPU per
/// op, and a slow stretch of the run moves one repetition, not the whole.
#[derive(Debug, Default)]
pub struct Meter {
    /// `(ops, wall s, cpu s)` per repetition.
    reps: Vec<(f64, f64, f64)>,
    /// Peak memory after [`PEAK_RSS_REPS`] repetitions, MB.
    peak_rss_mb: Option<f64>,
}

impl Meter {
    /// Runs `f` as one measured repetition of `ops` ops.
    pub fn measure<T>(&mut self, ops: usize, f: impl FnOnce() -> T) -> T {
        let (wall0, cpu0) = (Instant::now(), process_cpu());
        let out = f();
        let cpu = process_cpu().saturating_sub(cpu0);
        self.reps
            .push((ops as f64, wall0.elapsed().as_secs_f64(), cpu.as_secs_f64()));
        if self.reps.len() == PEAK_RSS_REPS {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
        out
    }

    /// Peak memory after [`PEAK_RSS_REPS`] repetitions (now, when fewer
    /// ran), MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb.unwrap_or_else(peak_rss_mb)
    }

    /// Median over repetitions of ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.reps.iter().map(|&(n, w, _)| n / w).collect::<Vec<_>>())
    }

    /// Median over repetitions of CPU milliseconds per op.
    pub fn cpu_ms_per_op(&self) -> f64 {
        median(
            &self
                .reps
                .iter()
                .map(|&(n, _, c)| c * 1e3 / n)
                .collect::<Vec<_>>(),
        )
    }
}

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("engine.busy_frac", "ratio"),
    ("engine.cache_hit_rate", "ratio"),
    ("bench.prepare_ms", "ms"),
    ("bench.class_context_ms", "ms"),
    ("core.error_cell_ms", "ms"),
    ("core.combos_evaluated", "count"),
    ("core.combos_pruned", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.locked_sim_ms", "ms"),
    ("matching.solves", "count"),
    ("matching.augment_steps", "count"),
    ("matching.warm_rows_reaugmented", "count"),
    ("matching.warm_hit_rate", "ratio"),
    ("locking.lock_us", "us"),
    ("attacks.verify_ms", "ms"),
    ("netlist.eval_ns_per_pattern", "ns"),
    ("netlist.encode_us", "us"),
    ("netlist.clauses", "count"),
    ("attacks.dips", "count"),
    ("attacks.ms_per_dip", "ms"),
    ("sat.propagations_per_dip", "count"),
    ("sat.conflicts_per_dip", "count"),
    ("sat.watcher_visits_per_dip", "count"),
    ("sat.blocker_hit_rate", "ratio"),
    ("sat.props_per_s", "1/s"),
    ("serve.decode_us", "us"),
    ("serve.render_us", "us"),
    ("serve.ping_us", "us"),
    ("telemetry.record_ns", "ns"),
    ("serve.compute_ms.bind", "ms"),
    ("serve.compute_ms.codesign", "ms"),
    ("serve.compute_ms.error_rate", "ms"),
    ("serve.compute_ms.locked_sim", "ms"),
    ("serve.compute_ms.sat_attack", "ms"),
    ("durable.append_us", "us"),
    ("durable.get_us", "us"),
    ("serve.hit_share", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.queue_max_depth", "count"),
    ("serve.shed_share", "ratio"),
    ("durable.open_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.uncovered_pct", "%"),
];

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or whose output check failed.
    pub failed: u64,
    /// Reasons the run is not a valid measurement (too few tail samples,
    /// a late generator, a failed check of the harness itself).
    pub invalid: Vec<String>,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks the run invalid.
    pub fn invalidate(&mut self, reason: impl Into<String>) {
        self.invalid.push(reason.into());
    }

    /// Takes over another run's ops, checks and notes, and those of its
    /// metrics whose names start with one of `prefixes`.
    pub fn absorb(&mut self, other: Report, prefixes: &[&str]) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.invalid.extend(other.invalid);
        self.notes.extend(other.notes);
        for (name, value) in other.values {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, value);
            }
        }
    }

    /// Fills the latency, throughput, CPU and memory metrics every
    /// workload reports from one sample set and one meter. Set-up time,
    /// throughput and CPU per op are medians over the run's repetitions.
    pub fn set_end_to_end(&mut self, samples: &mut Samples, meter: &Meter, setups: &[f64]) {
        self.set("setup_s", median(setups));
        self.set("ops_per_s", meter.ops_per_s());
        self.set("p50_ms", samples.p50().unwrap_or(f64::NAN));
        match samples.tail() {
            Some(tail) => {
                self.set("tail_ms", tail.value);
                self.note(format!(
                    "tail_ms is p{} of {} samples ({} beyond it); p50_ms is from the same samples",
                    tail.pct,
                    samples.len(),
                    tail.beyond
                ));
            }
            None => {
                self.set("tail_ms", f64::NAN);
                self.invalidate(format!(
                    "only {} latency samples: fewer than {TAIL_MIN_BEYOND} beyond any tail percentile",
                    samples.len()
                ));
            }
        }
        self.set("cpu_ms_per_op", meter.cpu_ms_per_op());
        self.set("peak_rss_mb", meter.peak_rss_mb());
        let attempted = self.attempted.max(1) as f64;
        self.set("ok_ratio", (attempted - self.failed as f64) / attempted);
        self.note(format!(
            "setup_s, ops_per_s and cpu_ms_per_op are medians over {} repetitions; fail_ratio {} ({} of {} ops)",
            setups.len(),
            self.failed as f64 / attempted,
            self.failed,
            self.attempted
        ));
    }

    /// Renders the result line for the metric list `wanted`, invalidating
    /// the run if any value is missing or not finite.
    pub fn result_line(&mut self, wanted: &[(&'static str, &'static str)]) -> (bool, String) {
        let mut metrics = Vec::new();
        for &(name, unit) in wanted {
            match self.get(name) {
                Some(v) if v.is_finite() => metrics.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                other => {
                    self.invalidate(format!("metric {name} missing or not finite: {other:?}"));
                    metrics.push(format!(
                        "\"{name}\": {{\"value\": null, \"unit\": \"{unit}\"}}"
                    ));
                }
            }
        }
        let correct = self.failed == 0 && self.invalid.is_empty();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        (correct, line)
    }
}

/// A deadline-driven loop guard: `true` while the budget lasts or fewer
/// than `min` iterations have run.
pub fn keep_going(start: Instant, budget: Duration, done: usize, min: usize) -> bool {
    done < min || start.elapsed() < budget
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let mut s = Samples::default();
        for i in 1..=1000 {
            s.push(i as f64);
        }
        let tail = s.tail().expect("enough samples");
        assert_eq!(tail.pct, 99.0);
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(s.p50(), Some(500.0));
        assert!(s.p50().unwrap() <= tail.value);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let mut s = Samples::default();
        for i in 0..19 {
            s.push(i as f64);
        }
        assert_eq!(s.tail(), None);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn cpu_clock_advances() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu() > before, "{x}");
    }
}
