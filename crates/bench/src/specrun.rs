//! `--spec FILE`: run a serialized [`SessionSpec`] instead of the binary's
//! built-in experiment.
//!
//! Every figure/ablation binary parses its flags through [`Cli`], so the
//! hook lives there: when `--spec` is present the binary loads the JSON job
//! description, overlays any execution knobs given explicitly on the
//! command line (`--fast-forward`, `--probe-interval`), runs the session
//! (through the result cache with `--cache`), prints a deterministic
//! summary, and exits — the same job file therefore means the same
//! simulation whether it is replayed by `fig6 --spec job.json` or
//! fingerprinted by the result cache (see `docs/SPEC.md`). A malformed spec
//! follows the shared usage convention: `error: ...` plus a usage block,
//! exit status 2.

use std::sync::Arc;

use crate::cli::Cli;
use sa_telemetry::{Json, MetricsRegistry};
use scatter_add_repro::{ResultCache, SessionReport, SessionSpec};

/// Usage block printed (to stderr) on any `--spec` error.
pub const SPEC_USAGE: &str = "\
usage: <bin> --spec JOB.json [run-control flags]

  runs the serialized session the file describes instead of the binary's
  built-in experiment (schema: sa-session-spec v2, see docs/SPEC.md).
  execution knobs given explicitly on the command line override the spec's
  exec section: --fast-forward on|off, --probe-interval N. --cache[=DIR] and --progress attach as usual; with a
  cache, a warm spec replays without simulating.
  --stats-json PATH additionally writes the job's sa-stats document.
";

/// Run the `--spec` job and exit: status 0 on success, 2 on a malformed
/// spec (shared usage convention), 1 on an I/O failure writing outputs.
pub fn run_and_exit(cli: &Cli) -> ! {
    let Some(path) = cli.args().raw("spec") else {
        crate::usage_error("--spec needs a job file path", SPEC_USAGE);
    };
    match run_spec(path, cli) {
        Ok(summary) => {
            print!("{summary}");
            std::process::exit(0);
        }
        Err(SpecError::Spec(e)) => crate::usage_error(&e, SPEC_USAGE),
        Err(SpecError::Io(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// What went wrong running a spec: a bad job description (usage, exit 2)
/// or a failed output write (I/O, exit 1).
pub enum SpecError {
    /// The job file is missing, malformed, or semantically invalid.
    Spec(String),
    /// An output (e.g. `--stats-json`) could not be written.
    Io(String),
}

/// Load, overlay, run, and summarize one spec file. The summary is
/// deterministic (no wall-clock, no cache state), so repeated runs of the
/// same job print identical bytes; cache traffic goes to stderr.
pub fn run_spec(path: &str, cli: &Cli) -> Result<String, SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError::Spec(format!("--spec {path}: {e}")))?;
    let doc =
        Json::parse(&text).map_err(|e| SpecError::Spec(format!("--spec {path}: not JSON: {e}")))?;
    let mut spec =
        SessionSpec::from_json(&doc).map_err(|e| SpecError::Spec(format!("--spec {path}: {e}")))?;

    // Command-line execution knobs beat the spec's exec section, but only
    // when explicitly given — absence means "respect the job file".
    let args = cli.args();
    if args.raw("fast-forward").is_some() {
        spec.exec.fast_forward = Some(cli.fast_forward());
    }
    if args.raw("probe-interval").is_some() {
        spec.probe_interval = cli.probe_interval();
    }

    let digest = spec.fingerprint().digest();
    let mut builder = spec.to_builder();
    let cache = match cli.cache_dir() {
        Some(dir) => {
            let cache = Arc::new(
                ResultCache::open(dir).map_err(|e| SpecError::Io(format!("--cache {dir}: {e}")))?,
            );
            builder = builder.cache(Arc::clone(&cache));
            Some(cache)
        }
        None => None,
    };
    let progress = cli.progress();
    if progress.is_on() {
        builder = builder.progress(progress);
    }
    let session = builder
        .build()
        .map_err(|e| SpecError::Spec(format!("--spec {path}: {e}")))?;
    let report = session.run();

    if let Some(cache) = &cache {
        eprintln!(
            "cache: {} (hits {} misses {} stores {})",
            if cache.hits() > 0 { "hit" } else { "miss" },
            cache.hits(),
            cache.misses(),
            cache.stores()
        );
    }
    if let Some(out) = args.raw("stats-json") {
        let stats = job_stats_json(&spec, &report);
        std::fs::write(out, format!("{}\n", stats.to_string_pretty()))
            .map_err(|e| SpecError::Io(format!("--stats-json {out}: {e}")))?;
        eprintln!("stats-json: wrote {out}");
    }

    let mut summary = String::new();
    summary.push_str(&format!("spec {path}\n"));
    summary.push_str(&format!("  digest        {digest}\n"));
    summary.push_str(&format!("  cycles        {}\n", report.cycles));
    summary.push_str(&format!("  adds          {}\n", report.adds));
    summary.push_str(&format!("  result words  {}\n", report.result.len()));
    summary.push_str(&format!("  nodes         {}\n", report.node_stats.len()));
    if report.sum_back_lines > 0 {
        summary.push_str(&format!("  sum-back      {}\n", report.sum_back_lines));
    }
    Ok(summary)
}

/// The `--stats-json` document of a spec job: a full `sa-stats` document
/// mirroring the registry layout [`SessionReport::bottleneck`] uses, so
/// bound classification works and `analyze --check` accepts it.
fn job_stats_json(spec: &SessionSpec, report: &SessionReport) -> Json {
    let mut registry = MetricsRegistry::new();
    {
        let mut scope = registry.scope("session");
        scope.counter("cycles", report.cycles);
        scope.counter("adds", report.adds);
        if let [only] = report.node_stats.as_slice() {
            only.record(&mut scope);
        } else {
            for (i, ns) in report.node_stats.iter().enumerate() {
                ns.record(&mut scope.scope(&format!("node{i}")));
            }
        }
    }
    let mut doc = sa_telemetry::stats_json(
        "spec",
        spec.config.fingerprint_json(),
        &registry,
        None,
        Json::Arr(Vec::new()),
    );
    sa_telemetry::attach_bottleneck(&mut doc);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use scatter_add_repro::Workload;

    fn cli(argv: &str) -> Cli {
        Cli::try_from_args(Args::parse(argv.split_whitespace().map(str::to_owned)), &[])
            .expect("argv parses")
    }

    fn write_spec(tag: &str) -> std::path::PathBuf {
        let spec = SessionSpec::new(Workload::Histogram {
            base_word: 0,
            indices: (0..256u64).map(|i| (i * 13 + 1) % 32).collect(),
        });
        let path =
            std::env::temp_dir().join(format!("sa-specrun-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, spec.to_json().to_string_pretty()).expect("write spec");
        path
    }

    #[test]
    fn summaries_are_deterministic_across_exec_knobs() {
        let path = write_spec("det");
        let base = run_spec(path.to_str().unwrap(), &cli("")).ok().unwrap();
        assert!(base.contains("cycles"));
        let stepped = run_spec(path.to_str().unwrap(), &cli("--fast-forward off"))
            .ok()
            .unwrap();
        assert_eq!(base, stepped, "exec knobs must not change the summary");
        let _ = std::fs::remove_file(&path);
        // Restore the fast-forward default the overlay parse installed.
        sa_sim::set_fast_forward_default(true);
    }

    #[test]
    fn bad_specs_are_usage_errors() {
        let missing = run_spec("/nonexistent/job.json", &cli(""));
        assert!(matches!(missing, Err(SpecError::Spec(_))));
        let path = std::env::temp_dir().join(format!("sa-specrun-bad-{}.json", std::process::id()));
        std::fs::write(&path, "{\"schema\":\"wrong\"}").expect("write");
        let bad = run_spec(path.to_str().unwrap(), &cli(""));
        match bad {
            Err(SpecError::Spec(e)) => assert!(e.contains("schema"), "got: {e}"),
            _ => panic!("expected a spec error"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_cache_replays_summary_stats_and_probe_lines() {
        let dir = std::env::temp_dir().join(format!("sa-specrun-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = SessionSpec::new(Workload::Histogram {
            base_word: 0,
            indices: (0..2048u64).map(|i| (i * 31 + 7) % 128).collect(),
        });
        spec.probe_interval = 256;
        std::fs::create_dir_all(&dir).expect("cache dir");
        let path = dir.join("job.json");
        std::fs::write(&path, spec.to_json().to_string_pretty()).expect("write spec");
        let stats = |tag: &str| dir.join(format!("{tag}.stats.json"));
        let run = |tag: &str| {
            let argv = format!(
                "--cache={} --stats-json {}",
                dir.join("cache").display(),
                stats(tag).display()
            );
            run_spec(path.to_str().unwrap(), &cli(&argv)).ok().unwrap()
        };
        let cold = run("cold");
        let warm = run("warm");
        assert_eq!(cold, warm, "a warm replay prints the cold summary");
        let doc = std::fs::read_to_string(stats("cold")).expect("cold stats");
        assert_eq!(doc, std::fs::read_to_string(stats("warm")).unwrap());
        let doc = Json::parse(&doc).expect("stats json");
        sa_telemetry::validate_stats_json(&doc).expect("valid sa-stats");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("spec"));

        // The cached payload carries the probe lines: a hit replays them.
        let cache = Arc::new(ResultCache::open(dir.join("cache")).expect("cache"));
        let replay = spec
            .to_builder()
            .cache(Arc::clone(&cache))
            .build()
            .unwrap()
            .run();
        assert_eq!(cache.hits(), 1);
        assert!(!replay.probe_lines.is_empty());
        assert_eq!(replay, spec.to_builder().build().unwrap().run());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
