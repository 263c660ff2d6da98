//! One shared command-line surface for every sa-bench binary.
//!
//! The figure binaries grew identical run-control flags one copy at a time
//! (`--jobs` scanned raw argv in `sweep`, `--fast-forward` lived inside
//! `BenchRun`). [`Cli`] parses them once and installs the process-wide
//! defaults they control, so a binary only handles flags specific to its
//! experiment. The flag set is closed: a flag that is neither one of these
//! ([`COMMON_FLAGS`]) nor one the binary declares prints usage and exits 2.
//!
//! - `--jobs N` — sweep worker threads (beats `SA_JOBS`, defaults to cores)
//! - `--fast-forward on|off` — event-horizon cycle skipping (default `on`)
//! - `--stats-json PATH`, `--trace PATH`, `--sample-interval N`,
//!   `--req-sample N` — telemetry outputs (consumed by
//!   [`BenchRun`](crate::telemetry::BenchRun))
//! - `--faults PLAN.json` — install a fault plan for every machine the
//!   binary builds (see `docs/RESILIENCE.md`)
//! - `--fault-seed N` — override the plan's seed without editing the file
//! - `--quick` — reduced-size smoke run
//! - `--progress` — NDJSON heartbeats (cycles/sec, ff ratio, sweep ETA) on
//!   stderr
//! - `--probe-listen PATH` — serve heartbeats *and* `sa-probe` snapshots on
//!   a unix socket for `analyze --watch PATH`
//! - `--probe-wait-client` — with `--probe-listen`, block (up to 30s) until
//!   a client connects before simulating, so a fast run cannot finish
//!   before its watcher attaches (the CI smoke job relies on this)
//! - `--probe-interval N` — snapshot cadence in simulated cycles (defaults
//!   to [`DEFAULT_PROBE_INTERVAL`] while listening, otherwise 0/off)
//! - `--host-profile` — collect host wall-clock phase attribution into the
//!   nondeterministic `host_profile` stats sidecar
//! - `--spec JOB.json` — run a serialized `SessionSpec` job instead of
//!   the binary's built-in experiment (see [`crate::specrun`] and
//!   `docs/SPEC.md`); handled here so every figure binary gets it
//! - `--cache[=DIR]` / `--cache DIR` — content-addressed result cache for
//!   sweep points and the canonical run (see `docs/PERFORMANCE.md`); a bare
//!   `--cache` uses `SA_CACHE_DIR` or `.sa-cache`, and setting the
//!   `SA_CACHE_DIR` environment variable enables the cache without any flag
//!
//! Construction has side effects by design: [`Cli::from_args`] applies
//! `--fast-forward` via [`sa_sim::set_fast_forward_default`], `--faults`
//! via [`sa_faults::set_default_plan`], and the progress sink via
//! [`sa_telemetry::set_global_progress`], so simulators built afterwards
//! pick the settings up without explicit plumbing. The installs are
//! idempotent for a given argument vector.

use crate::args::Args;
use sa_faults::FaultPlan;
use sa_telemetry::Progress;

/// The run-control flags every [`Cli`] binary accepts (see the module docs).
/// `--cache=DIR` is accepted as the `cache` flag.
pub const COMMON_FLAGS: &[&str] = &[
    "jobs",
    "fast-forward",
    "stats-json",
    "trace",
    "sample-interval",
    "req-sample",
    "faults",
    "fault-seed",
    "quick",
    "progress",
    "probe-listen",
    "probe-wait-client",
    "probe-interval",
    "host-profile",
    "spec",
    "cache",
];

/// Usage block for [`COMMON_FLAGS`], printed after a binary's own usage
/// when a flag is rejected.
pub const COMMON_USAGE: &str = "\
run-control flags (every binary):
  --quick                      reduced-size smoke run
  --jobs N                     sweep worker threads (default: SA_JOBS, else cores)
  --fast-forward on|off        event-horizon cycle skipping (default on)
  --stats-json PATH            write the sa-stats document
  --trace PATH                 write a Chrome trace_event JSON file
  --sample-interval N          occupancy sampling cadence in cycles
  --req-sample N               trace one request in N
  --faults PLAN.json           install a fault plan; --fault-seed N overrides its seed
  --progress                   NDJSON heartbeats on stderr
  --probe-listen PATH          serve heartbeats and probe snapshots on a unix socket
  --probe-wait-client          with --probe-listen, wait for a watcher first
  --probe-interval N           probe snapshot cadence in cycles
  --host-profile               host wall-clock attribution sidecar
  --spec JOB.json              run a serialized SessionSpec instead
  --cache[=DIR]                content-addressed result cache
";

/// The first flag in `args` that is neither a [`COMMON_FLAGS`] entry nor
/// one of the binary's `own` flags.
fn unknown_flag<'a>(args: &'a Args, own: &[&str]) -> Option<&'a str> {
    args.flags()
        .find(|f| !(COMMON_FLAGS.contains(f) || own.contains(f) || f.starts_with("cache=")))
}

/// Probe snapshot cadence (simulated cycles) used when `--probe-listen` is
/// given without an explicit `--probe-interval`.
pub const DEFAULT_PROBE_INTERVAL: u64 = 4096;

/// Resolve the result-cache directory from `--cache[=DIR]` and the
/// `SA_CACHE_DIR` environment variable; `None` means caching stays off.
///
/// The argument grammar has no `=` splitting, so `--cache=DIR` arrives as a
/// switch literally named `cache=DIR` — scan the flag names for the prefix.
fn resolve_cache_dir(args: &Args) -> Option<String> {
    if let Some(dir) = args.raw("cache") {
        return Some(dir.to_owned());
    }
    for flag in args.flags() {
        if let Some(dir) = flag.strip_prefix("cache=") {
            if !dir.is_empty() {
                return Some(dir.to_owned());
            }
        }
    }
    let env = std::env::var(sa_memo::ENV_DIR)
        .ok()
        .filter(|d| !d.is_empty());
    if args.has("cache") {
        return Some(env.unwrap_or_else(|| sa_memo::DEFAULT_DIR.to_owned()));
    }
    env
}

/// Parsed common flags plus the raw [`Args`] for binary-specific ones.
///
/// Exits the process with status 2 on a malformed flag (consistent with
/// the historical per-binary parsers), so binaries can assume a valid
/// configuration after construction.
#[derive(Debug)]
pub struct Cli {
    args: Args,
    jobs: usize,
    fast_forward: bool,
    fault_plan: Option<FaultPlan>,
    probe_interval: u64,
    host_profile: bool,
    cache_dir: Option<String>,
    /// Keeps the `--probe-listen` socket (and its accept thread) alive for
    /// the binary's lifetime; the socket file is removed when the `Cli`
    /// drops.
    #[cfg(unix)]
    listener: Option<sa_telemetry::ProbeListener>,
}

impl Cli {
    /// Parse the process arguments of a binary with no flags of its own
    /// and install the process-wide defaults.
    pub fn from_env() -> Cli {
        Cli::from_args(Args::from_env(), &[], "")
    }

    /// Parse pre-collected arguments and install the process-wide defaults.
    /// `own` lists the binary's own flags and `usage` describes them; any
    /// other flag outside [`COMMON_FLAGS`], and any malformed flag, prints
    /// `usage` plus [`COMMON_USAGE`] and exits with status 2.
    ///
    /// When `--spec JOB.json` is among them the binary's own experiment is
    /// skipped entirely: the serialized session runs through
    /// [`crate::specrun`] and the process exits (status 0, or 2 on a
    /// malformed spec — the shared usage convention).
    pub fn from_args(args: Args, own: &[&str], usage: &str) -> Cli {
        match Cli::try_from_args(args, own) {
            Ok(cli) => {
                if cli.args().has("spec") || cli.args().raw("spec").is_some() {
                    crate::specrun::run_and_exit(&cli);
                }
                cli
            }
            Err(e) => {
                let usage = if usage.is_empty() {
                    let bin = std::env::args().next().unwrap_or_default();
                    let bin = std::path::Path::new(&bin)
                        .file_name()
                        .map_or(bin.clone(), |b| b.to_string_lossy().into_owned());
                    format!("usage: {bin} [flags]\n\n")
                } else {
                    format!("{}\n\n", usage.trim_end())
                };
                crate::usage_error(&e, &format!("{usage}{COMMON_USAGE}"))
            }
        }
    }

    /// [`Cli::from_args`] returning parse failures instead of exiting.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown flag (outside
    /// [`COMMON_FLAGS`] and `own`) or malformed flag (bad number, an
    /// unknown `--fast-forward` mode, or an unreadable/invalid fault plan).
    pub fn try_from_args(args: Args, own: &[&str]) -> Result<Cli, String> {
        if let Some(flag) = unknown_flag(&args, own) {
            return Err(format!("unknown flag --{flag}"));
        }
        let jobs = crate::sweep::resolve_jobs(match args.get_or("jobs", 0usize) {
            Ok(n) if n > 0 => Some(n),
            Ok(_) => None,
            Err(e) => return Err(e.to_string()),
        });
        let fast_forward = args
            .choice("fast-forward", &["on", "off"], "on")
            .map_err(|e| e.to_string())?
            == "on";
        sa_sim::set_fast_forward_default(fast_forward);

        let fault_plan = match args.raw("faults") {
            None => None,
            Some(path) => {
                let mut plan = FaultPlan::load(std::path::Path::new(path))?;
                if let Some(seed) = args.raw("fault-seed") {
                    plan.seed = seed
                        .parse()
                        .map_err(|_| format!("--fault-seed: could not parse {seed:?}"))?;
                }
                Some(plan)
            }
        };
        sa_faults::set_default_plan(fault_plan.clone());

        let mut probe_interval = args
            .get_or("probe-interval", 0u64)
            .map_err(|e| e.to_string())?;
        let host_profile = args.has("host-profile");
        let cache_dir = resolve_cache_dir(&args);

        #[cfg(unix)]
        let mut listener = None;
        let progress = if let Some(path) = args.raw("probe-listen") {
            #[cfg(unix)]
            {
                let l = sa_telemetry::ProbeListener::bind(std::path::Path::new(path))
                    .map_err(|e| format!("--probe-listen {path}: {e}"))?;
                if args.has("probe-wait-client")
                    && !l.wait_for_client(std::time::Duration::from_secs(30))
                {
                    return Err(format!(
                        "--probe-wait-client: no client connected to {path} within 30s"
                    ));
                }
                let p = l.progress();
                listener = Some(l);
                if probe_interval == 0 {
                    probe_interval = DEFAULT_PROBE_INTERVAL;
                }
                p
            }
            #[cfg(not(unix))]
            {
                return Err(format!(
                    "--probe-listen {path}: unix sockets unavailable on this platform"
                ));
            }
        } else if args.has("progress") {
            Progress::stderr()
        } else {
            Progress::off()
        };
        sa_telemetry::set_global_progress(progress);

        Ok(Cli {
            args,
            jobs,
            fast_forward,
            fault_plan,
            probe_interval,
            host_profile,
            cache_dir,
            #[cfg(unix)]
            listener,
        })
    }

    /// The raw arguments, for flags specific to one binary.
    pub fn args(&self) -> &Args {
        &self.args
    }

    /// Sweep worker threads (`--jobs` / `SA_JOBS` / available cores).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether event-horizon fast-forward is enabled (`--fast-forward`).
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// The installed fault plan, when `--faults` was given.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Whether a reduced-size smoke run was requested (`--quick`).
    pub fn quick(&self) -> bool {
        self.args.has("quick") || std::env::var_os("SA_QUICK").is_some()
    }

    /// Probe snapshot cadence in simulated cycles (0 = probing off).
    pub fn probe_interval(&self) -> u64 {
        self.probe_interval
    }

    /// Whether to collect the `host_profile` wall-clock sidecar
    /// (`--host-profile`).
    pub fn host_profile(&self) -> bool {
        self.host_profile
    }

    /// The result-cache directory (`--cache[=DIR]` / `SA_CACHE_DIR`), or
    /// `None` when caching is off.
    pub fn cache_dir(&self) -> Option<&str> {
        self.cache_dir.as_deref()
    }

    /// The process-wide progress sink installed at parse time (off unless
    /// `--progress` or `--probe-listen` was given).
    pub fn progress(&self) -> Progress {
        sa_telemetry::global_progress()
    }

    /// Connected `--probe-listen` clients (0 when not listening).
    #[cfg(unix)]
    pub fn probe_clients(&self) -> usize {
        self.listener.as_ref().map_or(0, |l| l.client_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Cli, String> {
        Cli::try_from_args(Args::parse(s.split_whitespace().map(str::to_owned)), &[])
    }

    #[test]
    fn defaults() {
        let cli = parse("").expect("empty argv parses");
        assert!(cli.jobs() >= 1);
        assert!(cli.fast_forward());
        assert!(cli.fault_plan().is_none());
    }

    #[test]
    fn common_flags_parse() {
        let cli = parse("--jobs 3 --fast-forward off --quick").expect("parses");
        assert_eq!(cli.jobs(), 3);
        assert!(!cli.fast_forward());
        assert!(cli.quick());
        // restore the global for neighbouring tests
        sa_sim::set_fast_forward_default(true);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for argv in [
            "--node-threads 2",
            "--step-threads 2",
            "--quick --bogus-flag 3",
        ] {
            let e = parse(argv).unwrap_err();
            assert!(e.starts_with("unknown flag --"), "{argv}: {e}");
        }
        let own = Args::parse(["--banks".to_owned(), "4".to_owned()]);
        assert!(Cli::try_from_args(own.clone(), &["banks"]).is_ok());
        assert!(Cli::try_from_args(own, &[]).is_err());
        assert!(parse("--cache=/tmp/store").is_ok());
    }

    #[test]
    fn probe_flags_parse() {
        let cli = parse("--probe-interval 512 --host-profile").expect("parses");
        assert_eq!(cli.probe_interval(), 512);
        assert!(cli.host_profile());
        let cli = parse("").expect("parses");
        assert_eq!(cli.probe_interval(), 0);
        assert!(!cli.host_profile());
    }

    #[cfg(unix)]
    #[test]
    fn probe_listen_defaults_the_interval_and_binds() {
        let path = std::env::temp_dir().join(format!("sa-cli-test-{}.sock", std::process::id()));
        let cli = parse(&format!("--probe-listen {}", path.display())).expect("binds and parses");
        assert_eq!(cli.probe_interval(), DEFAULT_PROBE_INTERVAL);
        assert!(cli.progress().is_on());
        assert_eq!(cli.probe_clients(), 0);
        drop(cli);
        assert!(!path.exists(), "socket removed when Cli drops");
        sa_telemetry::set_global_progress(Progress::off());
    }

    #[cfg(unix)]
    #[test]
    fn probe_wait_client_blocks_until_a_watcher_connects() {
        let path =
            std::env::temp_dir().join(format!("sa-cli-wait-test-{}.sock", std::process::id()));
        // Parsing blocks until a client connects, so attach one from a
        // helper thread as soon as the socket appears.
        let client_path = path.clone();
        let client = std::thread::spawn(move || loop {
            if let Ok(s) = std::os::unix::net::UnixStream::connect(&client_path) {
                break s;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let cli = parse(&format!(
            "--probe-listen {} --probe-wait-client",
            path.display()
        ))
        .expect("binds, waits, parses");
        assert!(
            cli.probe_clients() >= 1,
            "parse returned with a client attached"
        );
        drop(client.join().expect("client thread"));
        drop(cli);
        sa_telemetry::set_global_progress(Progress::off());
    }

    #[test]
    fn cache_flag_forms_resolve() {
        // Explicit directory, both spellings.
        let cli = parse("--cache /tmp/store").expect("parses");
        assert_eq!(cli.cache_dir(), Some("/tmp/store"));
        let cli = parse("--cache=/tmp/store2").expect("parses");
        assert_eq!(cli.cache_dir(), Some("/tmp/store2"));
        // Bare switch falls back to the default directory (the SA_CACHE_DIR
        // branch is environment-dependent, so only the unset case is exact).
        if std::env::var_os(sa_memo::ENV_DIR).is_none() {
            let cli = parse("--cache --quick").expect("parses");
            assert_eq!(cli.cache_dir(), Some(sa_memo::DEFAULT_DIR));
            let cli = parse("").expect("parses");
            assert_eq!(cli.cache_dir(), None);
        }
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(parse("--jobs frog").unwrap_err().contains("jobs"));
        assert!(parse("--probe-interval frog")
            .unwrap_err()
            .contains("probe-interval"));
        assert!(parse("--fast-forward sometimes")
            .unwrap_err()
            .contains("fast-forward"));
        assert!(parse("--faults /nonexistent/plan.json").is_err());
    }

    #[test]
    fn fault_seed_overrides_plan() {
        let dir = std::env::temp_dir().join("sa-bench-cli-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("plan.json");
        let plan = FaultPlan::parse(
            r#"{"schema":"sa-faultplan","version":1,"seed":1,
                "faults":[{"kind":"ecc_single","period":5}]}"#,
        )
        .expect("valid plan");
        std::fs::write(&path, plan.to_json().to_string_pretty()).expect("write plan");
        let cli = parse(&format!("--faults {} --fault-seed 99", path.display())).expect("parses");
        assert_eq!(cli.fault_plan().expect("plan installed").seed, 99);
        sa_faults::set_default_plan(None);
    }
}
