//! The one run loop. It drives every front end: the §4.4 rig, the bare
//! scatter driver, the hardware scan, the stream executor (`sa-proc`) and
//! the §4.6 multinode (`sa-multinode`).
//!
//! A front end supplies one simulated cycle as a [`Stepped`] workload.
//! [`run`] owns the rest: the [`Clock`] and its runaway limit, the
//! event-horizon skip and its `skipped_cycles` count, the clamp of each
//! skip to the next due probe cycle (so snapshots are identical with
//! fast-forward on or off), heartbeats, and the host-profiler `skip` phase
//! that times folding skipped cycles (see `docs/PERFORMANCE.md`).
//!
//! Each cycle runs [`Stepped::step`], the probe snapshot when due, the
//! heartbeat, [`Stepped::settle`] (done → stop), then the skip.

use std::time::Instant;

use sa_sim::{Clock, Cycle};
use sa_telemetry::{HostProfiler, Introspect, Json, ProbeRegistry};

/// Simulated cycles after which a run is declared deadlocked and panics;
/// far beyond any run the evaluation makes.
pub const RUNAWAY_LIMIT: u64 = 8_000_000_000;

/// A heartbeat is considered on cycles with these low bits zero;
/// [`sa_telemetry::Progress::heartbeat`] then throttles by wall clock.
pub const HEARTBEAT_MASK: u64 = 0x3FF;

/// One simulated workload, as the run loop sees it.
pub trait Stepped {
    /// Simulate cycle `now`, attributing host time to phases via `prof`.
    fn step(&mut self, now: Cycle, prof: &mut HostProfiler);

    /// Whether the run is complete after cycle `now`. Also asked once
    /// before the first cycle, with `now == Cycle::ZERO`; a workload that
    /// always simulates a cycle answers `false` there. May change state (a
    /// flush round, say) that the following [`horizon`](Self::horizon) sees.
    fn settle(&mut self, now: Cycle, prof: &mut HostProfiler) -> bool;

    /// With fast-forward on: the earliest cycle after `now` at which the
    /// workload can change state, or `None` when cycle `now + 1` must be
    /// ticked (a retry is pending, say). The default never skips.
    fn horizon(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Fold the `k` idle cycles after `now` into per-cycle accounting.
    fn skip(&mut self, _now: Cycle, _k: u64) {
        unreachable!("a workload without a horizon is never skipped");
    }

    /// Register the components a probe snapshot shows.
    fn register(&self, _reg: &mut ProbeRegistry) {}

    /// Add workload fields to a heartbeat (after `cycle`).
    fn heartbeat(&self, _o: &mut Json) {}
}

/// How long a run took.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Finish {
    /// The last simulated cycle (0 when the workload was done at start).
    pub cycles: u64,
    /// Cycles jumped over instead of ticked (0 with fast-forward off).
    pub skipped_cycles: u64,
}

/// Run `work` to completion, ticking every cycle with `fast_forward` off
/// (the per-cycle oracle). [`Introspect::off`] makes each probe, heartbeat
/// and profiler site one branch.
///
/// # Panics
///
/// Panics with "simulation exceeded … cycles: likely deadlock" past
/// [`RUNAWAY_LIMIT`].
// Inlined so a workload's fields can live in registers across cycles.
#[inline]
pub fn run<S: Stepped>(work: &mut S, fast_forward: bool, probe: &mut Introspect) -> Finish {
    let mut clock = Clock::with_limit(RUNAWAY_LIMIT);
    let mut skipped_cycles = 0u64;
    let started = Instant::now();
    // Fixed for the run; read once so the off path stays out of the loop.
    let (snapshots, heartbeats) = (probe.recorder.is_on(), probe.progress.is_on());
    if !work.settle(clock.now(), &mut probe.profiler) {
        loop {
            let now = clock.advance();
            work.step(now, &mut probe.profiler);
            if snapshots && probe.recorder.due(now.raw()) {
                let mut reg = ProbeRegistry::new();
                work.register(&mut reg);
                probe.recorder.record(reg, now.raw(), skipped_cycles);
            }
            if heartbeats && now.raw() & HEARTBEAT_MASK == 0 {
                heartbeat(work, probe, now, skipped_cycles, started);
            }
            if work.settle(now, &mut probe.profiler) {
                break;
            }
            if fast_forward {
                let due = if snapshots {
                    probe.recorder.next_due()
                } else {
                    None
                };
                if let Some(mut h) = work.horizon(now) {
                    // Never jump past a due probe cycle.
                    if let Some(due) = due {
                        h = h.min(Cycle(due.max(now.raw() + 1)));
                    }
                    if h > now + 1 {
                        let k = h.raw() - now.raw() - 1;
                        probe.profiler.time("skip", || work.skip(now, k));
                        clock.skip_to(now + k);
                        skipped_cycles += k;
                    }
                }
            }
        }
    }
    Finish {
        cycles: clock.now().raw(),
        skipped_cycles,
    }
}

/// Emit one heartbeat (wall-clock throttled by the progress handle). The
/// rate counts from `started`, the start of this run: the progress handle
/// is process-wide and older than every run of a sweep but the first.
fn heartbeat<S: Stepped>(
    work: &S,
    probe: &Introspect,
    now: Cycle,
    skipped_cycles: u64,
    started: Instant,
) {
    let elapsed = started.elapsed().as_secs_f64();
    let rate = if elapsed > 0.0 {
        now.raw() as f64 / elapsed
    } else {
        0.0
    };
    probe.progress.heartbeat(|o| {
        o.push("cycle", Json::UInt(now.raw()));
        work.heartbeat(o);
        o.push("skipped_cycles", Json::UInt(skipped_cycles));
        o.push("sim_cycles_per_sec", Json::Num(rate));
        let ff_ratio = skipped_cycles as f64 / now.raw() as f64;
        o.push("ff_ratio", Json::Num(ff_ratio));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_telemetry::{ProbeRecorder, Progress};
    use std::io::Write;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// A toy workload with events at fixed cycles: ticked cycles are
    /// recorded, skips are recorded as (after, k), and the run is done once
    /// the last event has been ticked. A `gap` beyond the last event makes
    /// it run forever.
    #[derive(Default)]
    struct Toy {
        events: Vec<u64>,
        forever: Option<u64>,
        ticked: Vec<u64>,
        skips: Vec<(u64, u64)>,
    }

    impl Stepped for Toy {
        fn step(&mut self, now: Cycle, _prof: &mut HostProfiler) {
            self.ticked.push(now.raw());
        }

        fn settle(&mut self, now: Cycle, _prof: &mut HostProfiler) -> bool {
            self.forever.is_none() && self.events.last().is_none_or(|&e| now.raw() >= e)
        }

        fn horizon(&self, now: Cycle) -> Option<Cycle> {
            if let Some(gap) = self.forever {
                return Some(now + gap);
            }
            self.events
                .iter()
                .find(|&&e| e > now.raw())
                .map(|&e| Cycle(e))
        }

        fn skip(&mut self, now: Cycle, k: u64) {
            self.skips.push((now.raw(), k));
        }

        fn register(&self, reg: &mut ProbeRegistry) {
            reg.register_json("toy", "toy", Json::obj());
        }
    }

    fn toy(events: &[u64]) -> Toy {
        Toy {
            events: events.to_vec(),
            ..Toy::default()
        }
    }

    #[test]
    fn done_at_start_takes_no_cycles() {
        let mut t = toy(&[]);
        let f = run(&mut t, true, &mut Introspect::off());
        assert_eq!((f.cycles, f.skipped_cycles), (0, 0));
        assert!(t.ticked.is_empty());
    }

    #[test]
    fn skips_land_on_events_and_sum_to_skipped_cycles() {
        let mut on = toy(&[5, 6, 100, 1000]);
        let f = run(&mut on, true, &mut Introspect::off());
        assert_eq!(f.cycles, 1000);
        assert_eq!(on.ticked, vec![1, 5, 6, 100, 1000]);
        assert_eq!(on.skips, vec![(1, 3), (6, 93), (100, 899)]);
        let jumps: u64 = on.skips.iter().map(|&(_, k)| k).sum();
        assert_eq!(f.skipped_cycles, jumps);
        assert_eq!(f.skipped_cycles + on.ticked.len() as u64, f.cycles);

        let mut off = toy(&[5, 6, 100, 1000]);
        let g = run(&mut off, false, &mut Introspect::off());
        assert_eq!((g.cycles, g.skipped_cycles), (1000, 0));
        assert_eq!(off.ticked, (1..=1000).collect::<Vec<u64>>());
    }

    #[test]
    fn skips_never_cross_a_due_probe_cycle() {
        let interval = 64;
        let mut probe = Introspect::off();
        probe.recorder = ProbeRecorder::every(interval);
        let mut t = toy(&[3, 500, 501, 777]);
        let f = run(&mut t, true, &mut probe);
        assert_eq!(f.cycles, 777);
        for due in (interval..=f.cycles).step_by(interval as usize) {
            assert!(t.ticked.contains(&due), "due cycle {due} was skipped");
        }
        for &(after, k) in &t.skips {
            let next_due = (after / interval + 1) * interval;
            assert!(
                after + k < next_due,
                "skip ({after}, {k}) crossed {next_due}"
            );
        }
        // One snapshot per due cycle, the same as with fast-forward off.
        let mut probe_off = Introspect::off();
        probe_off.recorder = ProbeRecorder::every(interval);
        run(&mut toy(&[3, 500, 501, 777]), false, &mut probe_off);
        assert_eq!(probe.recorder.lines().len(), (777 / interval) as usize);
        assert_eq!(
            probe.recorder.lines().len(),
            probe_off.recorder.lines().len()
        );
    }

    #[test]
    #[should_panic(expected = "simulation exceeded 8000000000 cycles: likely deadlock")]
    fn runaway_limit_panics() {
        let mut t = Toy {
            forever: Some(1 << 30),
            ..Toy::default()
        };
        run(&mut t, true, &mut Introspect::off());
    }

    /// A progress writer whose bytes the test reads back.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn heartbeat_rate_counts_from_the_start_of_the_run() {
        let sink = Sink::default();
        let mut probe = Introspect::off();
        probe.progress = Progress::to_writer(Box::new(sink.clone()));
        // The handle is older than the run, as for every later point of a
        // sweep; its age must not dilute the rate.
        std::thread::sleep(Duration::from_millis(200));
        let t0 = Instant::now();
        run(&mut toy(&[2048]), false, &mut probe);
        let wall = t0.elapsed().as_secs_f64();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let beat = Json::parse(text.lines().next().expect("a heartbeat")).unwrap();
        let cycle = beat.get("cycle").and_then(Json::as_u64).unwrap();
        let rate = beat
            .get("sim_cycles_per_sec")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(cycle, HEARTBEAT_MASK + 1);
        assert!(
            rate >= cycle as f64 / wall,
            "rate {rate} below {cycle} cycles / {wall} s"
        );
    }
}
