//! The closed flag set at the binary level: removed and misspelled flags
//! fail loudly with usage (exit 2) instead of being silently ignored, and
//! hostile input (a version-1 job spec, nesting far past any stack, a
//! machine or node count that cannot be built) is an error, never a panic
//! or an abort.

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
}

fn temp_file(tag: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sa-cli-flags-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, text).expect("write temp file");
    path
}

/// A version-1 job spec (the schema that carried the removed stepping
/// knobs) exits 2 through `--spec`.
#[test]
fn version_one_spec_is_a_usage_error() {
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
}

/// Nesting 200K levels deep used to overflow the parser's stack: `analyze
/// --check` aborted, and so did a job file given to `--spec`.
#[test]
fn deeply_nested_json_is_rejected_not_fatal() {
    let deep = "[".repeat(200_000);
    let path = temp_file("deep", &deep);
    let path_str = path.to_str().expect("utf-8 path");
    let spec = run(env!("CARGO_BIN_EXE_fig6"), &["--spec", path_str]);
    let out = run(env!("CARGO_BIN_EXE_analyze"), &["--check", path_str]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&spec.stderr);
    assert_eq!(spec.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("not JSON"), "{stderr}");
    let code = out.status.code();
    assert!(
        matches!(code, Some(c) if c != 0),
        "analyze --check must fail cleanly, got {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A machine that cannot be built (a zero divisor or capacity, a line that
/// is not whole words, no whole set per bank, a cache past the size cap, a
/// node count of zero or past the unit cap) used to panic or abort on
/// allocation; now it exits 2 through `--spec`.
#[test]
fn unbuildable_machine_specs_are_usage_errors() {
    use sa_sim::MachineConfig;
    type Edit = fn(&mut MachineConfig);
    let cases: [(&str, Edit); 14] = [
        ("cache.banks", |c| c.cache.banks = 0),
        ("cache.ways", |c| c.cache.ways = 0),
        ("cache.line_bytes", |c| c.cache.line_bytes = 0),
        ("cache.line_bytes", |c| c.cache.line_bytes = 12),
        ("cache.mshrs_per_bank", |c| c.cache.mshrs_per_bank = 0),
        ("cache.total_bytes", |c| c.cache.total_bytes = 1 << 40),
        ("no whole set", |c| c.cache.total_bytes = 512),
        ("dram.channels", |c| c.dram.channels = 0),
        ("dram.banks_per_channel", |c| c.dram.banks_per_channel = 0),
        ("dram.row_bytes", |c| c.dram.row_bytes = 0),
        ("dram.queue_depth", |c| c.dram.queue_depth = 0),
        ("sa.cs_entries", |c| c.sa.cs_entries = 0),
        ("ag.count", |c| c.ag.count = 0),
        ("ag.width", |c| c.ag.width = 0),
    ];
    let mut specs: Vec<(&str, scatter_add_repro::SessionSpec)> = cases
        .into_iter()
        .map(|(what, edit)| {
            let mut spec =
                scatter_add_repro::SessionSpec::new(scatter_add_repro::Workload::Histogram {
                    base_word: 0,
                    indices: vec![28, 2, 459],
                });
            edit(&mut spec.config);
            (what, spec)
        })
        .collect();
    // 50M nodes used to abort on allocating them.
    for nodes in [0, 1025, 50_000_000] {
        let spec = scatter_add_repro::SessionSpec::new(scatter_add_repro::Workload::MultiNode {
            nodes,
            network: sa_sim::NetworkConfig::low(),
            combining: false,
            topology: scatter_add_repro::Topology::Flat,
            trace: vec![28, 2, 459],
            values: vec![1.0; 3],
        });
        specs.push(("nodes must be in 1..=1024", spec));
    }
    for (i, (what, spec)) in specs.into_iter().enumerate() {
        let path = temp_file(&format!("machine{i}"), &spec.to_json().to_string_compact());
        let out = run(
            env!("CARGO_BIN_EXE_fig6"),
            &["--spec", path.to_str().expect("utf-8 path")],
        );
        let _ = std::fs::remove_file(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(stderr.contains(what), "{what}: {stderr}");
    }

    // explore's machine and node-count flags go through the same checks.
    for args in [
        ["scatter", "--line-bytes", "12"],
        ["scatter", "--cache-kb", "0"],
        ["multinode", "--nodes", "1025"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_explore"), &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
