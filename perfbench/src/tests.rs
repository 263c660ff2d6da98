//! The benchmark's own tests, at a small size.

use sa_telemetry::Json;

use crate::harness::{run, Ctx, Outcome, RunOpts, Scale};
use crate::metrics::{end_to_end, per_layer};
use crate::trace::{chrome_trace_json, self_times_ns, Span};
use crate::workloads::SessionCache;
use crate::{result_json, run_workload, WORKLOADS};

fn small(trace: bool, corrupt: bool) -> RunOpts {
    RunOpts {
        seconds: 0.001,
        trace,
        scale: Scale::Small,
        corrupt,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(metrics: &[crate::metrics::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for workload in WORKLOADS {
        let o = run_workload(workload, 7, small(true, false));
        assert_eq!(o.failed, 0, "{workload}: a job failed");
        let e2e = end_to_end(&o, 1.0);
        assert_eq!(emitted(&e2e), declared(&doc, "end_to_end"), "{workload}");
        let layers = per_layer(&o);
        assert_eq!(emitted(&layers), declared(&doc, "per_layer"), "{workload}");
        for m in e2e.iter().filter(|m| m.name != "peak_rss_mb") {
            assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
        }
        let line = Json::parse(&result_json(&o, &layers)).expect("result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn corrupted_outputs_count_in_error_rate_and_the_run_completes() {
    for workload in WORKLOADS {
        let o = run_workload(workload, 3, small(false, true));
        assert!(
            o.failed > 0,
            "{workload}: corrupted outputs passed their checks"
        );
        // The run went on past the first bad output: every round ran, and the
        // digest comparison still ran after them.
        assert!(
            o.untraced.len() >= 2 && o.attempted > o.failed,
            "{workload}"
        );
        let rate = per_layer(&o)
            .into_iter()
            .find(|m| m.name == "error_rate")
            .expect("error_rate");
        assert_eq!(rate.value, o.failed as f64 / o.attempted as f64);
        let line = Json::parse(&result_json(&o, &[])).expect("result line is JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    }
}

#[test]
fn a_panicking_job_is_counted_not_fatal() {
    let mut ctx = Ctx::new(true, false);
    ctx.job("boom", |_| panic!("deliberate"));
    ctx.job("fine", |_| Ok(()));
    ctx.job("bad", |_| Err("deliberate".into()));
    let outcome = Outcome::from_ctx(ctx);
    assert_eq!((outcome.attempted, outcome.failed), (3, 2));
    // The panicking job's span was closed like the others.
    assert!(outcome
        .tracer
        .spans()
        .iter()
        .all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn span_self_time_is_non_negative_and_within_its_duration() {
    let o: Outcome = run::<SessionCache>(5, small(true, false));
    let spans = o.tracer.spans();
    assert!(spans.iter().any(|s| s.name == "memo.lookup"));
    let self_ns = self_times_ns(spans);
    for (s, &own) in spans.iter().zip(&self_ns) {
        assert!(
            own <= s.duration_ns(),
            "{}: self {own} > duration {}",
            s.name,
            s.duration_ns()
        );
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{} escapes {}",
                s.name,
                parent.name
            );
            if parent.job != 0 {
                assert_eq!(
                    s.job, parent.job,
                    "{} changes job inside {}",
                    s.name, parent.name
                );
            }
        }
    }
    // Overlapping and out-of-bounds children are clipped, never double
    // counted.
    let span = |start_ns, end_ns, parent| Span {
        name: "s",
        layer: "l",
        start_ns,
        end_ns,
        parent,
        job: 1,
    };
    let synthetic = [
        span(10, 20, None),
        span(8, 14, Some(0)),
        span(12, 16, Some(0)),
        span(18, 30, Some(0)),
    ];
    assert_eq!(self_times_ns(&synthetic), [2, 6, 4, 12]);
    // The Chrome trace holds one complete event per span.
    let doc = Json::parse(&chrome_trace_json(spans, "session-cache")).expect("trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    assert_eq!(complete, spans.len());
}

#[test]
fn digests_repeat_exactly_across_runs() {
    for workload in WORKLOADS {
        let a = run_workload(workload, 11, small(false, false));
        let b = run_workload(workload, 11, small(false, false));
        assert_eq!(a.digest(), b.digest(), "{workload}");
        let c = run_workload(workload, 12, small(false, false));
        assert_ne!(
            a.digest(),
            c.digest(),
            "{workload}: the seed does not reach the inputs"
        );
    }
}
