//! [`SessionSpec`] — the serializable, versioned job description behind
//! [`Session`](crate::Session).
//!
//! Historically three surfaces each described "a run" in their own ad-hoc
//! vocabulary: the [`SessionBuilder`](crate::SessionBuilder) chain, the
//! `sa_bench::cli::Cli` flag set, and the result-cache fingerprint assembled
//! field by field inside `Session::fingerprint`. A `SessionSpec` is the one
//! canonical description all three lower to:
//!
//! * **Wire form** ([`SessionSpec::to_json`]) — a complete, executable JSON
//!   document (schema `sa-session-spec` v2) carrying the full workload
//!   arrays. `from_json(to_json(spec))` reproduces the spec exactly, and
//!   re-serializing yields byte-identical text, so a spec file is a stable
//!   artifact that can be committed, diffed, and replayed with `--spec`
//!   (see `docs/SPEC.md`).
//! * **Canonical form** ([`SessionSpec::canonical_json`]) — the wire form
//!   with the large index/value arrays folded into SHA-256 digests and the
//!   `exec` section dropped. This *is* the cache fingerprint input: the
//!   execution knob (`fast_forward`) is excluded because the byte-identity
//!   contract proves it cannot change the report, so a warm query matches
//!   regardless of how the cold run was scheduled.
//!
//! ```
//! use scatter_add_repro::{SessionSpec, Workload};
//!
//! let spec = SessionSpec::new(Workload::Histogram {
//!     base_word: 0,
//!     indices: vec![3, 1, 3],
//! });
//! let text = spec.to_json().to_string_pretty();
//! let back = SessionSpec::from_json(&sa_telemetry::Json::parse(&text)?)?;
//! assert_eq!(back, spec);
//! let report = back.to_builder().build()?.run();
//! assert_eq!(report.result, [0, 1, 0, 2]);
//! # Ok::<(), String>(())
//! ```

use sa_faults::FaultPlan;
use sa_memo::{hash_f64s, hash_u64s, Fingerprint};
use sa_multinode::Topology;
use sa_sim::{MachineConfig, NetworkConfig, ScalarKind, ScatterOp};
use sa_telemetry::Json;

use crate::session::{SessionBuilder, Telemetry, Workload};
use sa_core::ScatterKernel;

/// Schema tag carried by every serialized spec.
pub const SPEC_SCHEMA_NAME: &str = "sa-session-spec";

/// Current spec schema version. Version 1 also carried the two removed
/// per-cycle stepping widths in its exec section; such documents are
/// rejected with an error naming the version, never silently reinterpreted.
pub const SPEC_SCHEMA_VERSION: u64 = 2;

/// Execution knobs: how a run is scheduled on the host, never what it
/// computes. The byte-identity contract (see `docs/PERFORMANCE.md`)
/// guarantees every setting produces the same report (modulo
/// `skipped_cycles`), which is why this whole section is excluded from
/// [`SessionSpec::canonical_json`] and hence from cache keys.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecSpec {
    /// Event-horizon fast-forward override (`None` = the process default).
    pub fast_forward: Option<bool>,
}

/// A versioned, canonical-JSON description of everything a
/// [`Session`](crate::Session) needs: workload, machine and network
/// configuration, fault plan, telemetry cadences, and execution knobs.
///
/// Round-trips losslessly to and from [`SessionBuilder`] (via
/// [`SessionSpec::to_builder`] and [`Session::spec`](crate::Session::spec)),
/// and its canonical form is the result-cache fingerprint input.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSpec {
    /// What to simulate.
    pub workload: Workload,
    /// The single-node machine description (every node in a multinode run).
    pub config: MachineConfig,
    /// Deterministic fault schedule, if any.
    pub faults: Option<FaultPlan>,
    /// Telemetry sampling cadences.
    pub telemetry: Telemetry,
    /// `sa-probe` snapshot cadence in simulated cycles (0 = off).
    pub probe_interval: u64,
    /// Whether every scatter request is a fetch-op (single-node only).
    pub fetch: bool,
    /// Host scheduling knobs (excluded from the canonical form).
    pub exec: ExecSpec,
}

impl SessionSpec {
    /// A spec for `workload` with the default machine and no extras.
    pub fn new(workload: Workload) -> SessionSpec {
        SessionSpec {
            workload,
            config: MachineConfig::merrimac(),
            faults: None,
            telemetry: Telemetry::default(),
            probe_interval: 0,
            fetch: false,
            exec: ExecSpec::default(),
        }
    }

    /// The complete wire form: schema header, workload with full arrays,
    /// flat config, fault plan, telemetry, and execution knobs. Serializing
    /// with [`Json::to_string_compact`] (or pretty) is deterministic, and
    /// [`SessionSpec::from_json`] restores an equal spec.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(SPEC_SCHEMA_NAME.to_string()));
        doc.push("version", Json::UInt(SPEC_SCHEMA_VERSION));
        doc.push("workload", workload_json(&self.workload));
        doc.push("config", self.config.fingerprint_json());
        doc.push("faults", faults_json(&self.faults));
        doc.push("telemetry", self.telemetry_json());
        doc.push("fetch", Json::Bool(self.fetch));
        let mut exec = Json::obj();
        exec.push(
            "fast_forward",
            Json::Str(
                match self.exec.fast_forward {
                    None => "default",
                    Some(true) => "on",
                    Some(false) => "off",
                }
                .to_string(),
            ),
        );
        doc.push("exec", exec);
        doc
    }

    /// The canonical form: the wire form with index/value arrays folded
    /// into SHA-256 digests (plus their lengths) and the `exec` section
    /// removed. Two specs with equal canonical forms produce byte-identical
    /// reports, so this document is the result-cache key payload.
    pub fn canonical_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(SPEC_SCHEMA_NAME.to_string()));
        doc.push("version", Json::UInt(SPEC_SCHEMA_VERSION));
        doc.push("workload", workload_canonical_json(&self.workload));
        doc.push("config", self.config.fingerprint_json());
        doc.push("faults", faults_json(&self.faults));
        doc.push("telemetry", self.telemetry_json());
        doc.push("fetch", Json::Bool(self.fetch));
        doc
    }

    fn telemetry_json(&self) -> Json {
        let mut t = Json::obj();
        t.push(
            "sample_interval",
            Json::UInt(self.telemetry.sample_interval),
        );
        t.push("req_sample", Json::UInt(self.telemetry.req_sample));
        t.push("probe_interval", Json::UInt(self.probe_interval));
        t
    }

    /// The result-cache fingerprint: the canonical form as the sole payload
    /// of a `"session"` cache key (see [`Fingerprint::for_payload`]).
    /// Equal for every builder chain or spec file that describes the same
    /// execution-relevant inputs.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::for_payload("session", self.canonical_json())
    }

    /// Parse a document written by [`SessionSpec::to_json`] (or authored by
    /// hand / `analyze mkspec`).
    ///
    /// Strict: the schema header must match, every section and field is
    /// required, and unknown keys anywhere are rejected — a typo in a job
    /// spec is an error, never a silently-applied default.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem. Semantic
    /// validation (lengths, topology, fetch mode) happens in
    /// [`SessionBuilder::build`] after [`SessionSpec::to_builder`].
    pub fn from_json(doc: &Json) -> Result<SessionSpec, String> {
        let mut top = Reader::new("spec", doc)?;
        let schema = top.str("schema")?;
        if schema != SPEC_SCHEMA_NAME {
            return Err(format!(
                "spec: schema is '{schema}', expected '{SPEC_SCHEMA_NAME}'"
            ));
        }
        let version = top.u64("version")?;
        if version != SPEC_SCHEMA_VERSION {
            return Err(format!(
                "spec: version is {version}, expected {SPEC_SCHEMA_VERSION}"
            ));
        }
        let workload = workload_from_json(top.get("workload")?)?;
        let config = MachineConfig::from_fingerprint_json(top.get("config")?)?;
        let faults = match top.get("faults")? {
            Json::Null => None,
            plan => Some(FaultPlan::parse(&plan.to_string_compact())?),
        };
        let mut tel = Reader::new("telemetry", top.get("telemetry")?)?;
        let telemetry = Telemetry {
            sample_interval: tel.u64("sample_interval")?,
            req_sample: tel.u64("req_sample")?,
        };
        let probe_interval = tel.u64("probe_interval")?;
        tel.finish()?;
        let fetch = top.bool("fetch")?;
        let mut exec = Reader::new("exec", top.get("exec")?)?;
        let exec_spec = ExecSpec {
            fast_forward: match exec.str("fast_forward")? {
                "default" => None,
                "on" => Some(true),
                "off" => Some(false),
                other => {
                    return Err(format!(
                        "exec: fast_forward is '{other}', expected default|on|off"
                    ))
                }
            },
        };
        exec.finish()?;
        top.finish()?;
        Ok(SessionSpec {
            workload,
            config,
            faults,
            telemetry,
            probe_interval,
            fetch,
            exec: exec_spec,
        })
    }

    /// Lower the spec into a [`SessionBuilder`] carrying every field.
    /// `to_builder().build()` validates the combination; a spec made by
    /// [`Session::spec`](crate::Session::spec) always builds.
    pub fn to_builder(&self) -> SessionBuilder {
        let mut b = SessionBuilder::default()
            .config(self.config)
            .workload(self.workload.clone())
            .telemetry(self.telemetry)
            .probe(self.probe_interval)
            .fetch(self.fetch);
        if let Some(plan) = &self.faults {
            b = b.faults(plan.clone());
        }
        if let Some(ff) = self.exec.fast_forward {
            b = b.fast_forward(ff);
        }
        b
    }
}

// ---------------------------------------------------------------------------
// Workload (de)serialization
// ---------------------------------------------------------------------------

fn u64_array(items: &[u64]) -> Json {
    Json::Arr(items.iter().map(|&v| Json::UInt(v)).collect())
}

fn scalar_name(kind: ScalarKind) -> &'static str {
    match kind {
        ScalarKind::F64 => "f64",
        ScalarKind::I64 => "i64",
    }
}

fn op_name(op: ScatterOp) -> &'static str {
    match op {
        ScatterOp::Add => "add",
        ScatterOp::Min => "min",
        ScatterOp::Max => "max",
        ScatterOp::Mul => "mul",
    }
}

fn topology_name(t: Topology) -> &'static str {
    match t {
        Topology::Flat => "flat",
        Topology::Hypercube => "hypercube",
    }
}

fn workload_json(w: &Workload) -> Json {
    let mut o = Json::obj();
    match w {
        Workload::Histogram { base_word, indices } => {
            o.push("kind", Json::Str("histogram".to_string()));
            o.push("base_word", Json::UInt(*base_word));
            o.push("indices", u64_array(indices));
        }
        Workload::Scatter(kernel) => {
            o.push("kind", Json::Str("scatter".to_string()));
            o.push("base_word", Json::UInt(kernel.base_word));
            o.push("scalar", Json::Str(scalar_name(kernel.kind).to_string()));
            o.push("op", Json::Str(op_name(kernel.op).to_string()));
            o.push("indices", u64_array(&kernel.indices));
            // Raw bit patterns: lossless for every f64 (including the
            // non-finite ones plain JSON numbers cannot carry) and exact
            // for i64 payloads, which already live as bits in the kernel.
            o.push("values_bits", u64_array(&kernel.values));
        }
        Workload::MultiNode {
            nodes,
            network,
            combining,
            topology,
            trace,
            values,
        } => {
            o.push("kind", Json::Str("multinode".to_string()));
            o.push("nodes", Json::UInt(*nodes as u64));
            o.push("network", network.fingerprint_json());
            o.push("combining", Json::Bool(*combining));
            o.push("topology", Json::Str(topology_name(*topology).to_string()));
            o.push("trace", u64_array(trace));
            o.push(
                "values",
                Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
            );
        }
    }
    o
}

fn workload_canonical_json(w: &Workload) -> Json {
    let mut o = Json::obj();
    match w {
        Workload::Histogram { base_word, indices } => {
            o.push("kind", Json::Str("histogram".to_string()));
            o.push("base_word", Json::UInt(*base_word));
            o.push("n", Json::UInt(indices.len() as u64));
            o.push("indices_sha256", Json::Str(hash_u64s(indices)));
        }
        Workload::Scatter(kernel) => {
            o.push("kind", Json::Str("scatter".to_string()));
            o.push("base_word", Json::UInt(kernel.base_word));
            o.push("scalar", Json::Str(scalar_name(kernel.kind).to_string()));
            o.push("op", Json::Str(op_name(kernel.op).to_string()));
            o.push("n", Json::UInt(kernel.indices.len() as u64));
            o.push("indices_sha256", Json::Str(hash_u64s(&kernel.indices)));
            o.push("values_sha256", Json::Str(hash_u64s(&kernel.values)));
        }
        Workload::MultiNode {
            nodes,
            network,
            combining,
            topology,
            trace,
            values,
        } => {
            o.push("kind", Json::Str("multinode".to_string()));
            o.push("nodes", Json::UInt(*nodes as u64));
            o.push("network", network.fingerprint_json());
            o.push("combining", Json::Bool(*combining));
            o.push("topology", Json::Str(topology_name(*topology).to_string()));
            o.push("n", Json::UInt(trace.len() as u64));
            o.push("trace_sha256", Json::Str(hash_u64s(trace)));
            o.push("values_sha256", Json::Str(hash_f64s(values)));
        }
    }
    o
}

fn workload_from_json(doc: &Json) -> Result<Workload, String> {
    let mut r = Reader::new("workload", doc)?;
    let workload = match r.str("kind")? {
        "histogram" => Workload::Histogram {
            base_word: r.u64("base_word")?,
            indices: r.u64_array("indices")?,
        },
        "scatter" => {
            let base_word = r.u64("base_word")?;
            let kind = match r.str("scalar")? {
                "f64" => ScalarKind::F64,
                "i64" => ScalarKind::I64,
                other => return Err(format!("workload: scalar '{other}', expected f64|i64")),
            };
            let op = match r.str("op")? {
                "add" => ScatterOp::Add,
                "min" => ScatterOp::Min,
                "max" => ScatterOp::Max,
                "mul" => ScatterOp::Mul,
                other => return Err(format!("workload: op '{other}', expected add|min|max|mul")),
            };
            Workload::Scatter(ScatterKernel {
                base_word,
                indices: r.u64_array("indices")?,
                values: r.u64_array("values_bits")?,
                kind,
                op,
            })
        }
        "multinode" => Workload::MultiNode {
            nodes: r.usize("nodes")?,
            network: NetworkConfig::from_fingerprint_json(r.get("network")?)?,
            combining: r.bool("combining")?,
            topology: match r.str("topology")? {
                "flat" => Topology::Flat,
                "hypercube" => Topology::Hypercube,
                other => {
                    return Err(format!(
                        "workload: topology '{other}', expected flat|hypercube"
                    ))
                }
            },
            trace: r.u64_array("trace")?,
            values: r.f64_array("values")?,
        },
        other => {
            return Err(format!(
                "workload: kind '{other}', expected histogram|scatter|multinode"
            ))
        }
    };
    r.finish()?;
    Ok(workload)
}

fn faults_json(faults: &Option<FaultPlan>) -> Json {
    match faults {
        Some(plan) => plan.to_json(),
        None => Json::Null,
    }
}

// ---------------------------------------------------------------------------
// Strict object reader: every key consumed exactly once, leftovers rejected.
// ---------------------------------------------------------------------------

struct Reader<'a> {
    what: &'static str,
    pairs: &'a [(String, Json)],
    seen: Vec<&'a str>,
}

impl<'a> Reader<'a> {
    fn new(what: &'static str, doc: &'a Json) -> Result<Reader<'a>, String> {
        let pairs = doc
            .as_obj()
            .ok_or_else(|| format!("{what}: not a JSON object"))?;
        Ok(Reader {
            what,
            pairs,
            seen: Vec::new(),
        })
    }

    fn get(&mut self, key: &'a str) -> Result<&'a Json, String> {
        self.seen.push(key);
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{}: missing field '{key}'", self.what))
    }

    fn str(&mut self, key: &'a str) -> Result<&'a str, String> {
        let what = self.what;
        self.get(key)?
            .as_str()
            .ok_or_else(|| format!("{what}: field '{key}' is not a string"))
    }

    fn u64(&mut self, key: &'a str) -> Result<u64, String> {
        let what = self.what;
        self.get(key)?
            .as_u64()
            .ok_or_else(|| format!("{what}: field '{key}' is not an unsigned integer"))
    }

    fn usize(&mut self, key: &'a str) -> Result<usize, String> {
        let what = self.what;
        let v = self.u64(key)?;
        usize::try_from(v).map_err(|_| format!("{what}: field '{key}' out of range"))
    }

    fn bool(&mut self, key: &'a str) -> Result<bool, String> {
        let what = self.what;
        self.get(key)?
            .as_bool()
            .ok_or_else(|| format!("{what}: field '{key}' is not a boolean"))
    }

    fn u64_array(&mut self, key: &'a str) -> Result<Vec<u64>, String> {
        let what = self.what;
        self.get(key)?
            .as_arr()
            .ok_or_else(|| format!("{what}: field '{key}' is not an array"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("{what}: '{key}' holds a non-u64 element"))
            })
            .collect()
    }

    fn f64_array(&mut self, key: &'a str) -> Result<Vec<f64>, String> {
        let what = self.what;
        self.get(key)?
            .as_arr()
            .ok_or_else(|| format!("{what}: field '{key}' is not an array"))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("{what}: '{key}' holds a non-number element"))
            })
            .collect()
    }

    fn finish(self) -> Result<(), String> {
        for (k, _) in self.pairs {
            if !self.seen.contains(&k.as_str()) {
                return Err(format!("{}: unknown field '{k}'", self.what));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    fn multinode_spec() -> SessionSpec {
        let mut spec = SessionSpec::new(Workload::MultiNode {
            nodes: 4,
            network: NetworkConfig::low(),
            combining: true,
            topology: Topology::Hypercube,
            trace: (0..300u64).map(|i| (i * 7) % 64).collect(),
            values: (0..300).map(|i| 0.25 + (i % 3) as f64).collect(),
        });
        spec.telemetry = Telemetry {
            sample_interval: 128,
            req_sample: 16,
        };
        spec.probe_interval = 512;
        spec.exec = ExecSpec {
            fast_forward: Some(false),
        };
        spec
    }

    #[test]
    fn wire_form_round_trips_bytes() {
        for spec in [
            SessionSpec::new(Workload::Histogram {
                base_word: 5,
                indices: vec![1, 2, 2, 9],
            }),
            SessionSpec::new(Workload::Scatter(ScatterKernel::superposition(
                0,
                vec![0, 1, 0],
                &[1.5, -2.25, f64::NAN],
            ))),
            multinode_spec(),
        ] {
            let text = spec.to_json().to_string_compact();
            let back = SessionSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            // NaN-carrying kernels compare unequal as structs (NaN != NaN),
            // but the bit-level wire form must still be identical.
            assert_eq!(back.to_json().to_string_compact(), text);
        }
    }

    #[test]
    fn canonical_form_excludes_exec_knobs() {
        let mut a = multinode_spec();
        let mut b = a.clone();
        b.exec = ExecSpec::default();
        assert_ne!(a.to_json().to_string_compact(), {
            b.exec = ExecSpec {
                fast_forward: Some(true),
            };
            b.to_json().to_string_compact()
        });
        assert_eq!(
            a.canonical_json().to_string_compact(),
            b.canonical_json().to_string_compact()
        );
        assert_eq!(a.fingerprint().digest(), b.fingerprint().digest());
        // ...but every execution-relevant field changes the digest.
        a.fetch = true;
        assert_ne!(a.fingerprint().digest(), b.fingerprint().digest());
    }

    #[test]
    fn spec_fingerprint_matches_the_builder_chain() {
        let spec = multinode_spec();
        let session = spec.to_builder().build().expect("valid spec");
        assert_eq!(spec.fingerprint().digest(), session.fingerprint().digest());
        assert_eq!(session.spec(), spec, "lossless through Session");
    }

    #[test]
    fn strict_parsing_rejects_drift() {
        let good = multinode_spec().to_json();
        assert!(SessionSpec::from_json(&good).is_ok());

        let mut unknown = good.clone();
        unknown.push("surprise", Json::Bool(true));
        assert!(SessionSpec::from_json(&unknown)
            .unwrap_err()
            .contains("unknown field 'surprise'"));

        let text = good.to_string_compact();
        let wrong_version = text.replace(
            &format!("\"version\":{SPEC_SCHEMA_VERSION}"),
            "\"version\":99",
        );
        assert!(
            SessionSpec::from_json(&Json::parse(&wrong_version).unwrap())
                .unwrap_err()
                .contains("version")
        );

        let bad_kind = text.replace("\"kind\":\"multinode\"", "\"kind\":\"frobnicate\"");
        assert!(SessionSpec::from_json(&Json::parse(&bad_kind).unwrap())
            .unwrap_err()
            .contains("kind"));

        assert!(SessionSpec::from_json(&Json::parse("[]").unwrap()).is_err());
    }

    #[test]
    fn spec_run_equals_builder_run() {
        let spec = SessionSpec::new(Workload::Histogram {
            base_word: 0,
            indices: (0..400u64).map(|i| (i * 13) % 96).collect(),
        });
        let from_spec = spec.to_builder().build().expect("valid").run();
        let direct = Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices: (0..400u64).map(|i| (i * 13) % 96).collect(),
            })
            .build()
            .expect("valid")
            .run();
        assert_eq!(from_spec, direct);
    }

    #[test]
    fn fault_plans_ride_along() {
        let mut spec = SessionSpec::new(Workload::Histogram {
            base_word: 0,
            indices: vec![1, 2, 3],
        });
        spec.faults = Some(
            FaultPlan::parse(
                r#"{"schema":"sa-faultplan","version":1,"seed":9,
                    "faults":[{"kind":"ecc_single","period":5}]}"#,
            )
            .unwrap(),
        );
        let text = spec.to_json().to_string_compact();
        let back = SessionSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_ne!(
            spec.fingerprint().digest(),
            SessionSpec::new(Workload::Histogram {
                base_word: 0,
                indices: vec![1, 2, 3],
            })
            .fingerprint()
            .digest(),
            "a fault plan changes the cache key"
        );
    }
}
