//! The run loop shared by every workload: repeated set-up, timed rounds,
//! per-job output checks that count failures instead of aborting, exact
//! simulated counters, and the simulated-statistics digest.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::trace::Tracer;

/// Input sizes: `Full` is what the benchmark measures; `Small` keeps the
/// benchmark's own tests fast.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// How one run is made.
#[derive(Copy, Clone, Debug)]
pub struct RunOpts {
    /// Host seconds of timed rounds (split evenly between the untraced and
    /// the traced half when `trace` is set).
    pub seconds: f64,
    /// Whether to record spans (in the second half of the run).
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt every checked output before its comparison (the benchmark's
    /// own tests use this to show a bad output is counted, not fatal).
    pub corrupt: bool,
}

/// A benchmark workload: a set of jobs built from a seed.
pub trait Workload: Sized {
    /// Generate the inputs and reference outputs (everything before the
    /// first timed call).
    fn setup(ctx: &mut Ctx, seed: u64, scale: Scale) -> Self;
    /// Run every job once, checking each output.
    fn round(&mut self, ctx: &mut Ctx);
}

/// One timed stretch of host work, with the host's speed around it.
#[derive(Copy, Clone, Debug)]
pub struct Timed {
    pub wall_ns: u64,
    /// Mean time of the calibration loop run just before and just after.
    pub calib_ns: u64,
}

impl Timed {
    /// Host seconds, scaled to the reference host speed (see [`calibrate`]).
    pub fn seconds(&self) -> f64 {
        self.wall_ns as f64 / self.calib_ns as f64 * CALIB_REF_NS / 1e9
    }
}

/// One timed pass over all of a workload's jobs.
#[derive(Clone, Debug)]
pub struct Round {
    pub time: Timed,
    /// Simulated cycles reported by the round's jobs (cache replays too).
    pub sim_cycles: u64,
    /// Digest of every job's simulated cycles and exported counters.
    pub digest: String,
}

/// A corruptible output, for the error-path test hook.
pub trait Output: PartialEq + Debug {
    fn corrupt(&mut self);
}

impl Output for Vec<i64> {
    fn corrupt(&mut self) {
        self[0] += 1;
    }
}

impl Output for Vec<u64> {
    fn corrupt(&mut self) {
        self[0] ^= 1;
    }
}

impl Output for String {
    fn corrupt(&mut self) {
        self.push(' ');
    }
}

/// What a workload's jobs report to the harness while they run.
pub struct Ctx {
    pub tracer: Tracer,
    corrupt: bool,
    attempted: u64,
    failed: u64,
    job_span: Option<usize>,
    round_cycles: u64,
    round_words: Vec<u64>,
    counters: BTreeMap<String, u64>,
}

impl Ctx {
    pub fn new(trace: bool, corrupt: bool) -> Ctx {
        Ctx {
            tracer: Tracer::new(trace),
            corrupt,
            attempted: 0,
            failed: 0,
            job_span: None,
            round_cycles: 0,
            round_words: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Time one call into a layer under span `name`.
    pub fn call<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let token = self.tracer.open(name, layer);
        let r = f();
        self.tracer.close(token);
        r
    }

    /// Run one job. A job that returns an error or panics counts as failed;
    /// the run goes on.
    pub fn job(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> Result<(), String>) {
        self.attempted += 1;
        self.tracer.set_job(self.attempted);
        let token = self.tracer.open(name, "perfbench");
        self.job_span = token;
        let outcome = catch_unwind(AssertUnwindSafe(|| f(self)));
        self.tracer.close(token);
        self.tracer.set_job(0);
        self.job_span = None;
        let err = match outcome {
            Ok(Ok(())) => return,
            Ok(Err(e)) => e,
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string()),
        };
        self.failed += 1;
        eprintln!("perfbench: job {name} failed: {err}");
    }

    /// Rename the running job's span once its kind is known (a cache hit or
    /// a miss).
    pub fn name_job(&mut self, name: &'static str) {
        self.tracer.rename(self.job_span, name);
    }

    /// Record a job's simulated cycles and the exact counters that go into
    /// the digest.
    pub fn simulated(&mut self, cycles: u64, digest_words: &[u64]) {
        self.round_cycles += cycles;
        self.round_words.push(cycles);
        self.round_words.extend_from_slice(digest_words);
    }

    /// Add to an exact per-layer counter of the current round.
    pub fn count(&mut self, key: &str, value: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += value;
    }

    /// Compare an output with its reference exactly.
    pub fn expect_eq<T: Output>(&self, what: &str, mut got: T, want: &T) -> Result<(), String> {
        if self.corrupt {
            got.corrupt();
        }
        if &got == want {
            Ok(())
        } else {
            Err(format!("{what}: output differs from the reference"))
        }
    }

    /// Compare floating-point outputs with a reference within `tol`.
    pub fn expect_close(
        &self,
        what: &str,
        mut got: Vec<f64>,
        want: &[f64],
        tol: f64,
    ) -> Result<(), String> {
        if self.corrupt {
            got[0] += 1.0;
        }
        if got.len() != want.len() {
            return Err(format!(
                "{what}: {} values, expected {}",
                got.len(),
                want.len()
            ));
        }
        let dev = got
            .iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        if dev <= tol {
            Ok(())
        } else {
            Err(format!("{what}: deviation {dev:e} above {tol:e}"))
        }
    }

    fn begin_round(&mut self) {
        self.round_cycles = 0;
        self.round_words.clear();
        self.counters.clear();
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Host time of each set-up.
    pub setups: Vec<Timed>,
    pub untraced: Vec<Round>,
    pub traced: Vec<Round>,
    /// Exact counters of the last round (identical in every round).
    pub counters: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
}

impl Outcome {
    /// The counts, counters and spans `ctx` gathered, with no rounds.
    pub fn from_ctx(ctx: Ctx) -> Outcome {
        Outcome {
            setups: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            counters: ctx.counters,
            attempted: ctx.attempted,
            failed: ctx.failed,
            tracer: ctx.tracer,
        }
    }

    /// The simulated-statistics digest (every round's is compared).
    pub fn digest(&self) -> &str {
        &self.untraced[0].digest
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Rounds per timed phase, at least (a digest needs two to compare).
const MIN_ROUNDS: usize = 2;

/// Run workload `W`: set up, then time rounds until the budget is spent,
/// then (traced runs) time as many traced rounds. One more set-up runs
/// after every round, so set-up samples span the run as rounds do. The
/// calibration loop runs between every two of these.
pub fn run<W: Workload>(seed: u64, opts: RunOpts) -> Outcome {
    let mut ctx = Ctx::new(opts.trace, opts.corrupt);
    let mut setups = Vec::new();
    let mut calib_ns = calibrate();
    let mut setup = |ctx: &mut Ctx, calib_ns: &mut u64| {
        let (w, time) = timed(calib_ns, || {
            let token = ctx.tracer.open("setup", "perfbench");
            let w = W::setup(ctx, seed, opts.scale);
            ctx.tracer.close(token);
            w
        });
        setups.push(time);
        w
    };
    let mut workload = setup(&mut ctx, &mut calib_ns);
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut phase = |ctx: &mut Ctx, trace: bool| {
        ctx.tracer.set_enabled(trace);
        let started = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < budget {
            ctx.begin_round();
            let ((), time) = timed(&mut calib_ns, || {
                let token = ctx.tracer.open("round", "perfbench");
                workload.round(ctx);
                ctx.tracer.close(token);
            });
            rounds.push(Round {
                time,
                sim_cycles: ctx.round_cycles,
                digest: sa_memo::hash_u64s(&ctx.round_words),
            });
            drop(setup(ctx, &mut calib_ns));
        }
        rounds
    };
    let untraced = phase(&mut ctx, false);
    let traced = if opts.trace {
        phase(&mut ctx, true)
    } else {
        Vec::new()
    };
    let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
    let first = all[0].digest.clone();
    ctx.job("digest", |_| match all.iter().find(|r| r.digest != first) {
        None => Ok(()),
        Some(r) => Err(format!(
            "simulated statistics changed between rounds: {first} vs {}",
            r.digest
        )),
    });
    Outcome {
        setups,
        untraced,
        traced,
        ..Outcome::from_ctx(ctx)
    }
}

/// Time `f`, then run the calibration loop; the sample's host speed is the
/// mean of the calibration before (`calib_ns` on entry) and after (left in
/// `calib_ns` for the next sample).
fn timed<R>(calib_ns: &mut u64, f: impl FnOnce() -> R) -> (R, Timed) {
    let t = Instant::now();
    let r = f();
    let wall_ns = t.elapsed().as_nanos() as u64;
    let after = calibrate();
    let time = Timed {
        wall_ns,
        calib_ns: (*calib_ns + after) / 2,
    };
    *calib_ns = after;
    (r, time)
}

/// Calibration-loop time on the reference host (the 2-core machine the
/// bounds were set on, in a fast phase): host times are reported as if the
/// host ran at that speed.
pub const CALIB_REF_NS: f64 = 5.0e6;

/// Host nanoseconds of a fixed, std-only loop: random-key hash-map updates
/// and batch sorts, the kinds of work the simulator does, and no code of the
/// repository, so a change to the simulator cannot move it.
///
/// Host speed on a shared machine shifts by up to 1.8x in phases lasting
/// seconds to minutes, and a run's raw times move with it. This loop slows
/// in step with the simulator, so a time divided by the loop time measured
/// around it stays steady across phases.
pub fn calibrate() -> u64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut batch: Vec<u64> = Vec::with_capacity(1 << 14);
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 50_000).or_insert(0) += i;
        batch.push(x);
        if batch.len() == batch.capacity() {
            batch.sort_unstable();
            std::hint::black_box(&batch);
            batch.clear();
        }
    }
    std::hint::black_box(&map);
    t.elapsed().as_nanos() as u64
}

/// Median of `xs` (which need not be sorted); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile the sample count supports: p90 needs at least ten
/// samples beyond it (100 samples); with fewer, the highest percentile that
/// still has ten beyond it, and never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.9)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
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
