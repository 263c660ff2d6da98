//! The closed flag set at the binary level: removed and misspelled flags
//! fail loudly with usage (exit 2) instead of being silently ignored,
//! `serve --help` prints usage without binding a socket, and hostile JSON
//! (a version-1 job spec, nesting far past any stack) is an error, never an
//! abort.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("SA_JOBS")
        .env_remove("SA_CACHE_DIR")
        .output()
        .expect("binary runs")
}

fn assert_usage_exit(bin: &str, args: &[&str], flag: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown flag --{flag}")),
        "{bin} {args:?} must name the flag: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} must not run");
}

#[test]
fn removed_stepping_flags_exit_with_usage() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_fig6"),
        &["--quick", "--node-threads", "2"],
        "node-threads",
    );
    assert_usage_exit(
        env!("CARGO_BIN_EXE_fig13"),
        &["--quick", "--step-threads", "2"],
        "step-threads",
    );
    assert_usage_exit(
        env!("CARGO_BIN_EXE_explore"),
        &["multinode", "--step-threads", "2"],
        "step-threads",
    );
}

#[test]
fn unknown_flags_exit_with_usage() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_fig6"),
        &["--quick", "--bogus-flag", "3"],
        "bogus-flag",
    );
    assert_usage_exit(env!("CARGO_BIN_EXE_hotloop"), &["--bogus"], "bogus");
    assert_usage_exit(env!("CARGO_BIN_EXE_serve"), &["--bogus"], "bogus");
}

#[test]
fn serve_help_prints_usage_without_listening() {
    // If `--help` started the daemon it would listen forever: give it a few
    // seconds to exit on its own, then kill it and fail.
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--help", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while child.try_wait().expect("poll serve").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve --help did not exit: it started the daemon");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("serve output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.starts_with("usage: serve"), "{stdout}");
    assert!(!stdout.contains("listening"), "{stdout}");
}

fn temp_file(tag: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sa-cli-flags-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, text).expect("write temp file");
    path
}

/// A version-1 job spec (the schema that carried the removed stepping
/// knobs) exits 2 through `--spec` and answers 400 from the daemon.
#[test]
fn version_one_spec_is_a_usage_error_and_a_400() {
    let spec = scatter_add_repro::SessionSpec::new(scatter_add_repro::Workload::Histogram {
        base_word: 0,
        indices: vec![1, 2, 3],
    });
    let current = format!("\"version\":{}", scatter_add_repro::SPEC_SCHEMA_VERSION);
    let v1 = spec
        .to_json()
        .to_string_compact()
        .replace(&current, "\"version\":1");
    let path = temp_file("v1", &v1);
    let out = run(
        env!("CARGO_BIN_EXE_fig6"),
        &["--spec", path.to_str().expect("utf-8 path")],
    );
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("version is 1"), "{stderr}");

    let server =
        sa_serve::Server::bind("127.0.0.1:0", sa_serve::ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let resp = sa_serve::client::submit(&addr, &v1, "", None).expect("submit");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("version is 1"), "{}", resp.body);
    server.shutdown();
    server.join();
}

/// Nesting 200K levels deep used to overflow the parser's stack: `analyze
/// --check` aborted and one such job killed the whole daemon.
#[test]
fn deeply_nested_json_is_rejected_not_fatal() {
    let deep = "[".repeat(200_000);
    let path = temp_file("deep", &deep);
    let out = run(
        env!("CARGO_BIN_EXE_analyze"),
        &["--check", path.to_str().expect("utf-8 path")],
    );
    let _ = std::fs::remove_file(&path);
    let code = out.status.code();
    assert!(
        matches!(code, Some(c) if c != 0),
        "analyze --check must fail cleanly, got {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let server =
        sa_serve::Server::bind("127.0.0.1:0", sa_serve::ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let resp = sa_serve::client::submit(&addr, &deep, "", None).expect("submit");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let health = sa_serve::client::health(&addr).expect("daemon still up");
    assert_eq!(health.status, 200);
    server.shutdown();
    server.join();
}
