//! The sweep grammar: the paper's evaluation matrix — applications × one
//! scale × policies against the LAS baseline, on one backend, with a seed
//! and a repetition count — spelled in the strings a command line takes.
//!
//! [`SweepSpec`] is that spelling and [`SweepSpec::set_flag`] the one parser
//! of its flags (`--apps --scale --policies --backend --seed --reps`), so
//! `figure1`, `serve-client` and a sweep-service request say the same sweep
//! the same way; [`SweepSpec::resolve`] checks it through the registry
//! grammars, and [`ResolvedSweep::experiment`] binds it to a machine.

use std::sync::Arc;

use numadag_core::PolicyKind;
use numadag_kernels::{Application, ProblemScale, SpecCache};
use numadag_numa::Topology;
use serde::{Deserialize, Serialize};

use crate::experiment::{Backend, Experiment};

/// The seed of every default sweep ([`Experiment`]'s and [`SweepSpec`]'s),
/// the one the committed `BENCH_figure1_*.json` baselines were made with.
pub(crate) const DEFAULT_SEED: u64 = 0xF1617E;

/// Default policy list of a sweep (the Figure-1 column set).
pub const DEFAULT_POLICIES: &str = "dfifo,rgp-las,ep";

/// A sweep in the command-line string grammar. Fields a request leaves out
/// come from [`SweepSpec::default`], so requests carry only what they
/// override.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct SweepSpec {
    /// Comma-separated applications (`"jacobi,nstream"`), or `"all"`/empty
    /// for the whole Figure-1 suite.
    pub apps: String,
    /// Problem scale: `tiny`, `small` or `full`.
    pub scale: String,
    /// Comma-separated policy labels in registry grammar
    /// (`"dfifo,rgp-las:w=512,ep"`). The LAS baseline always runs.
    pub policies: String,
    /// Execution backend: `simulated` or `threaded`.
    pub backend: String,
    /// Seed for all seeded components: any `u64`, a plain number on the
    /// wire.
    pub seed: u64,
    /// Repetitions per cell.
    pub reps: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            apps: "all".to_string(),
            scale: "tiny".to_string(),
            policies: DEFAULT_POLICIES.to_string(),
            backend: "simulated".to_string(),
            seed: DEFAULT_SEED,
            reps: 1,
        }
    }
}

impl SweepSpec {
    /// Sets the field the sweep flag `flag` names from `value`, the
    /// argument after it: `--apps`, `--scale`, `--policies` and `--backend`
    /// verbatim ([`SweepSpec::resolve`] checks them), `--seed` and `--reps`
    /// as unsigned integers. An unknown flag or a missing or malformed value
    /// is an error naming it.
    pub fn set_flag(&mut self, flag: &str, value: Option<&str>) -> Result<(), String> {
        let flags = [
            "--apps",
            "--scale",
            "--policies",
            "--backend",
            "--seed",
            "--reps",
        ];
        if !flags.contains(&flag) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
        let integer = || format!("{flag} needs an unsigned integer, got {value:?}");
        match flag {
            "--apps" => self.apps = value.to_string(),
            "--scale" => self.scale = value.to_string(),
            "--policies" => self.policies = value.to_string(),
            "--backend" => self.backend = value.to_string(),
            "--seed" => self.seed = value.parse().map_err(|_| integer())?,
            _ => self.reps = value.parse().map_err(|_| integer())?,
        }
        Ok(())
    }

    /// Parses every string field through the registry grammars. A repeated
    /// application or policy is one column of the sweep.
    pub fn resolve(&self) -> Result<ResolvedSweep, String> {
        let mut apps: Vec<Application> = Vec::new();
        for app in Application::parse_list(&self.apps)? {
            if !apps.contains(&app) {
                apps.push(app);
            }
        }
        let scale: ProblemScale = self.scale.parse()?;
        let policies = PolicyKind::parse_list(&self.policies).map_err(|e| e.to_string())?;
        if policies.is_empty() {
            return Err("policies must name at least one policy".to_string());
        }
        let backend: Backend = self.backend.parse()?;
        if self.reps == 0 {
            return Err("reps must be at least 1".to_string());
        }
        Ok(ResolvedSweep {
            apps,
            scale,
            policies,
            backend,
            seed: self.seed,
            reps: self.reps,
        })
    }
}

/// A validated [`SweepSpec`]: every string field parsed into the registry
/// types.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedSweep {
    /// The applications, each once, in the order first named.
    pub apps: Vec<Application>,
    /// The problem scale.
    pub scale: ProblemScale,
    /// The policies as named; [`crate::report_order`] makes them columns.
    pub policies: Vec<PolicyKind>,
    /// The execution backend.
    pub backend: Backend,
    /// Seed for all seeded components.
    pub seed: u64,
    /// Repetitions per cell.
    pub reps: usize,
}

impl ResolvedSweep {
    /// The experiment this sweep denotes on `topology`, drawing its
    /// workload specs from `specs`.
    pub fn experiment(&self, topology: Topology, specs: Arc<SpecCache>) -> Experiment {
        Experiment::new()
            .topology(topology)
            .apps(self.apps.iter().copied())
            .scale(self.scale)
            .policies(self.policies.iter().copied())
            .backend(self.backend)
            .repetitions(self.reps)
            .seed(self.seed)
            .spec_cache(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_of(args: &[&str]) -> Result<SweepSpec, String> {
        let mut spec = SweepSpec::default();
        for pair in args.chunks(2) {
            spec.set_flag(pair[0], pair.get(1).copied())?;
        }
        Ok(spec)
    }

    #[test]
    fn flags_set_the_fields_the_grammar_names() {
        let spec = spec_of(&[
            "--apps",
            "jacobi,nstream",
            "--scale",
            "small",
            "--policies",
            "dfifo,rgp-las:scheme=rb,w=64",
            "--backend",
            "sim",
            "--seed",
            "42",
            "--reps",
            "2",
        ])
        .unwrap();
        let sweep = spec.resolve().unwrap();
        assert_eq!(sweep.apps, vec![Application::Jacobi, Application::NStream]);
        assert_eq!(sweep.scale, ProblemScale::Small);
        assert_eq!(sweep.policies.len(), 2);
        assert_eq!(sweep.backend, Backend::Simulated);
        assert_eq!((sweep.seed, sweep.reps), (42, 2));
        assert_eq!(spec_of(&[]).unwrap().resolve().unwrap().seed, DEFAULT_SEED);
    }

    /// Every malformed row of the bins' exit-2 tables that concerns a sweep
    /// flag: the flag parse or the resolution refuses it, naming the flag or
    /// the value.
    #[test]
    fn malformed_sweep_flags_are_errors() {
        let rows: &[(&[&str], &str)] = &[
            (&["--scale", "bogus"], "bogus"),
            (&["--scale"], "--scale needs a value"),
            (&["--reps", "0"], "reps"),
            (&["--reps", "-3"], "--reps needs an unsigned integer"),
            (&["--seed", "1.5"], "--seed needs an unsigned integer"),
            (&["--seed"], "--seed needs a value"),
            (&["--policies", ""], "at least one policy"),
            (&["--policies", "bogus"], "unknown policy"),
            (&["--policies", "rgp-las:anchor=deps"], "needs prop=repart"),
            (&["--backend", "gpu"], "gpu"),
            (&["--backend", "proc"], "proc"),
            (&["--apps", "fft"], "fft"),
            (&["--no-such-flag"], "unknown argument"),
        ];
        for (args, says) in rows {
            let error = spec_of(args)
                .and_then(|spec| spec.resolve())
                .expect_err(&format!("{args:?} must be refused"));
            assert!(error.contains(says), "{args:?}: {error:?}");
        }
    }

    #[test]
    fn a_repeated_policy_or_application_is_one_column() {
        // The duplicates of a sweep that used to run twice: 40 cells where
        // 24 are meant.
        let spec = spec_of(&[
            "--apps",
            "jacobi,nstream,jacobi",
            "--policies",
            "dfifo,DFIFO,rgp-las:w=512,scheme=rb,rgp-las:scheme=rb,w=512",
        ])
        .unwrap();
        let sweep = spec.resolve().unwrap();
        assert_eq!(sweep.apps, vec![Application::Jacobi, Application::NStream]);
        let plan = sweep
            .experiment(Topology::bullion_s16(), Arc::new(SpecCache::new()))
            .plan();
        let labels: Vec<String> = plan.policies().iter().map(PolicyKind::label).collect();
        assert_eq!(labels, ["DFIFO", "RGP+LAS:w=512,scheme=rb", "LAS"]);
        assert_eq!(plan.num_jobs(), 2 * 3);
    }

    #[test]
    fn partial_spec_objects_fill_in_defaults() {
        let value = serde_json::from_str(r#"{"scale": "small", "seed": 9}"#).unwrap();
        let spec = serde_json::from_value::<SweepSpec>(&value).unwrap();
        assert_eq!(spec.scale, "small");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.policies, DEFAULT_POLICIES);
        assert_eq!(spec.apps, "all");
    }

    /// Seeds an `f64` would round (2^53 + 1 becomes 2^53, u64::MAX − 5
    /// becomes u64::MAX) survive the wire as plain numbers; a seed spelled
    /// otherwise, or past `u64`, is refused with the field named.
    #[test]
    fn every_seed_crosses_the_wire_bit_exactly() {
        for seed in [0, DEFAULT_SEED, (1 << 53) + 1, u64::MAX - 5, u64::MAX] {
            let spec = SweepSpec {
                seed,
                ..SweepSpec::default()
            };
            let line = serde_json::to_string(&spec).unwrap();
            assert!(line.contains(&format!(r#""seed":{seed},"#)), "{line}");
            assert_eq!(serde::decode::<SweepSpec>(&line), Ok(spec));
        }
        for seed in ["\"9\"", "18446744073709551616", "1e999", "-1"] {
            let line = format!(r#"{{"seed": {seed}}}"#);
            let error = String::from(serde::decode::<SweepSpec>(&line).unwrap_err());
            assert!(error.contains("SweepSpec.seed"), "{seed}: {error}");
        }
    }
}
