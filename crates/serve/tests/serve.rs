//! End-to-end exercises of the daemon over real sockets: warm hits are
//! byte-identical with zero simulation, quotas answer 429, streaming
//! replays probe lines, shutdown drains cleanly.

use std::path::PathBuf;
use std::sync::Arc;

use sa_serve::{client, ServeConfig, Server};
use sa_telemetry::Json;
use scatter_add_repro::{ResultCache, SessionSpec, Workload};

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sa-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn histogram_spec(n: u64, range: u64) -> String {
    let spec = SessionSpec::new(Workload::Histogram {
        base_word: 0,
        indices: (0..n).map(|i| (i * 17 + 3) % range).collect(),
    });
    spec.to_json().to_string_pretty()
}

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn warm_hit_is_byte_identical_and_simulation_free() {
    let dir = temp_cache("warm");
    let cache = Arc::new(ResultCache::open(&dir).expect("cache"));
    let (server, addr) = start(ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });

    let spec = histogram_spec(512, 64);
    let cold = client::submit(&addr, &spec, "", None).expect("cold submit");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-sa-cache"), Some("miss"));
    assert_eq!(cold.header("x-sa-simulated"), Some("1"));

    let warm = client::submit(&addr, &spec, "", None).expect("warm submit");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-sa-cache"), Some("hit"));
    assert_eq!(warm.header("x-sa-simulated"), Some("0"));
    assert_eq!(cold.body, warm.body, "warm body must be byte-identical");
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.stores(), 1);

    // The embedded stats section is a valid sa-stats document.
    let doc = Json::parse(&cold.body).expect("result json");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("sa-serve-result")
    );
    sa_telemetry::validate_stats_json(doc.get("stats").expect("stats")).expect("valid stats");
    let report = doc.get("report").expect("report");
    scatter_add_repro::SessionReport::from_json(report).expect("report parses");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_job_quota_rejects_with_429() {
    let (server, addr) = start(ServeConfig {
        tenant_jobs: 2,
        ..ServeConfig::default()
    });
    let spec = histogram_spec(64, 16);
    for _ in 0..2 {
        let ok = client::submit(&addr, &spec, "alice", None).expect("submit");
        assert_eq!(ok.status, 200);
    }
    let over = client::submit(&addr, &spec, "alice", None).expect("submit");
    assert_eq!(over.status, 429);
    let doc = Json::parse(&over.body).expect("error json");
    let error = doc.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("quota"), "unexpected error: {error}");

    // A different tenant is still served.
    let other = client::submit(&addr, &spec, "bob", None).expect("submit");
    assert_eq!(other.status, 200);

    let stats = client::stats(&addr).expect("stats");
    let doc = Json::parse(&stats.body).expect("stats json");
    assert_eq!(
        doc.get("jobs")
            .and_then(|j| j.get("rejected_quota"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        doc.get("tenants")
            .and_then(|t| t.get("alice"))
            .and_then(|a| a.get("completed"))
            .and_then(Json::as_u64),
        Some(2)
    );
    server.shutdown();
    server.join();
}

#[test]
fn streaming_replays_probe_lines_on_warm_hits() {
    let dir = temp_cache("stream");
    let cache = Arc::new(ResultCache::open(&dir).expect("cache"));
    let (server, addr) = start(ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });

    let mut spec = SessionSpec::new(Workload::Histogram {
        base_word: 0,
        indices: (0..2048u64).map(|i| (i * 31 + 7) % 128).collect(),
    });
    spec.probe_interval = 256;
    let text = spec.to_json().to_string_pretty();

    let mut cold_lines = Vec::new();
    let cold = {
        let mut sink = |line: &str| cold_lines.push(line.to_string());
        client::submit(&addr, &text, "", Some(&mut sink)).expect("cold stream")
    };
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-sa-cache"), Some("miss"));

    let mut warm_lines = Vec::new();
    let warm = {
        let mut sink = |line: &str| warm_lines.push(line.to_string());
        client::submit(&addr, &text, "", Some(&mut sink)).expect("warm stream")
    };
    assert_eq!(warm.header("x-sa-cache"), Some("hit"));
    assert_eq!(warm.header("x-sa-simulated"), Some("0"));
    assert_eq!(cold.body, warm.body, "final result line must match");

    // Warm replay carries the stored probe snapshots (heartbeats are live
    // progress and intentionally absent), every one a valid probe line.
    let warm_probes: Vec<_> = warm_lines
        .iter()
        .filter(|l| l.contains("\"sa-probe\""))
        .collect();
    assert!(!warm_probes.is_empty(), "warm stream should replay probes");
    for line in &warm_probes {
        let doc = Json::parse(line).expect("probe json");
        sa_telemetry::validate_probe_json(&doc).expect("valid probe line");
    }
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_specs_and_unknown_routes_answer_4xx() {
    let (server, addr) = start(ServeConfig::default());
    let bad = client::submit(&addr, "{\"schema\":\"nope\"}", "", None).expect("submit");
    assert_eq!(bad.status, 400);
    let not_json = client::submit(&addr, "not json at all", "", None).expect("submit");
    assert_eq!(not_json.status, 400);
    let missing = client::request(&addr, "GET", "/v1/nothing", &[], None).expect("request");
    assert_eq!(missing.status, 404);
    let wrong_method = client::request(&addr, "GET", "/v1/jobs", &[], None).expect("request");
    assert_eq!(wrong_method.status, 405);
    let health = client::health(&addr).expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");
    server.shutdown();
    server.join();
}

#[test]
fn http_shutdown_drains_the_server() {
    let (server, addr) = start(ServeConfig::default());
    let resp = client::shutdown(&addr).expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(server.is_shutting_down());
    server.join();
}

#[test]
fn panicking_job_answers_500_and_the_server_keeps_serving() {
    // One worker and one in-flight slot: a job that killed its worker or
    // leaked its slot would leave the follow-up job unserved or rejected.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        tenant_inflight: 1,
        ..ServeConfig::default()
    });
    // Hit and FU latencies this long pass validation, but one scatter-add
    // then takes more than the simulator's runaway-cycle limit, which
    // panics.
    let mut spec = SessionSpec::new(Workload::Histogram {
        base_word: 0,
        indices: (0..64u64).collect(),
    });
    spec.config.cache.hit_latency = u32::MAX;
    spec.config.sa.fu_latency = u32::MAX;
    let text = spec.to_json().to_string_pretty();
    let failed = client::submit(&addr, &text, "carol", None).expect("submit");
    assert_eq!(failed.status, 500);
    let doc = Json::parse(&failed.body).expect("error json");
    let error = doc.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        error.starts_with("job failed") && error.contains("simulation exceeded"),
        "unexpected error: {error}"
    );

    assert_eq!(client::health(&addr).expect("health").status, 200);
    let ok = client::submit(&addr, &histogram_spec(64, 16), "carol", None).expect("submit");
    assert_eq!(ok.status, 200);

    let stats = client::stats(&addr).expect("stats");
    let doc = Json::parse(&stats.body).expect("stats json");
    let jobs = doc.get("jobs").expect("jobs");
    assert_eq!(jobs.get("failed").and_then(Json::as_u64), Some(1));
    assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(1));
    let carol = doc
        .get("tenants")
        .and_then(|t| t.get("carol"))
        .expect("tenant ledger");
    assert_eq!(carol.get("inflight").and_then(Json::as_u64), Some(0));
    assert_eq!(carol.get("completed").and_then(Json::as_u64), Some(1));
    server.shutdown();
    server.join();
}
