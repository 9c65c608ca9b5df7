//! Wire codec for the coordinator ↔ worker IPC.
//!
//! Every message is one newline-delimited JSON value (the framing itself —
//! line limits, truncation detection, UTF-8 validation — lives in
//! [`numadag_runtime::framing`], shared with the serve protocol). Messages
//! are externally tagged, `{"assign": {...}}`, with unit messages encoded as
//! bare strings (`"shutdown"`).
//!
//! Two encoding rules keep cross-process results byte-identical to
//! in-process runs:
//!
//! * **`f64` travels as a JSON number.** The vendored serde writes every
//!   finite value in its shortest round-trip form (`-0.0` as `-0`) and
//!   reads it back exactly, so simulated makespans survive the hop
//!   bit-for-bit.
//! * **Integers travel as plain JSON integers, exactly.** The codec writes
//!   every integer type in exact decimal and reads it back into its own
//!   type, so fingerprints, epochs and seeds keep every bit.
//!
//! Every message is a variant of [`ToWorker`] or [`ToCoordinator`]:
//! plain data whose `#[derive(Serialize, Deserialize)]` *is* the wire
//! format, so the two directions cannot drift and both ends `match` on
//! variants instead of string tags. The runtime types the messages carry
//! ([`ExecutionConfig`], [`ExecutionReport`]) are wire types themselves:
//! their own derives (and the hand-written one of `Topology`) are the
//! format, and a decoded config is refused with the words the in-process
//! constructors panic with.
//!
//! A cell is one `assign`, answered by one `done` (with the cell's events,
//! when its config asks for them) or one `error`. The `assign` carries what
//! its worker lacks to run it: the executor configuration as an
//! [`EpochConfig`] when the worker's differs, and the [`Recipe`] of the
//! spec `fp` when the worker does not hold it — the paper kernel's
//! application, scale and socket count, which the worker builds the spec
//! from and refuses unless the built fingerprint is `fp`. A refusal of any
//! part is the `error` reply to that `assign`, and a refused `assign`
//! leaves the worker as it was. A workload no recipe builds (a custom
//! graph) never travels; the coordinator runs its cells itself.

use numadag_kernels::{Application, ProblemScale, SpecKey};
use numadag_runtime::{ExecutionConfig, ExecutionReport, Simulator};
use numadag_tdg::TaskGraphSpec;
use numadag_trace::TraceEvent;
use serde::{Deserialize, Serialize};

/// Protocol version, sent in every [`EpochConfig`]. A worker that sees a
/// version it does not speak replies with `error` instead of guessing.
pub(crate) const PROTOCOL_VERSION: u64 = 11;

/// Everything the coordinator sends. Externally tagged with snake-case
/// tags: `{"assign": {...}}`, `"shutdown"`.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ToWorker {
    /// One cell of work.
    Assign(Assignment),
    /// The coordinator's side of a collective barrier.
    Barrier {
        /// Barrier epoch, echoed in the `barrier_ack`.
        epoch: u64,
    },
    /// Leave the request loop and exit.
    Shutdown,
}

/// Everything a worker sends.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ToCoordinator {
    /// Sent once, right after connecting.
    Hello {
        /// The worker id the pool assigned through the environment.
        worker: u64,
    },
    /// The worker's side of a collective barrier.
    BarrierAck {
        /// The epoch of the `barrier` being answered.
        epoch: u64,
    },
    /// A structured, deterministic refusal of an `assign` (bad config,
    /// recipe or policy, unknown spec, …), and its one reply.
    Error {
        /// What went wrong.
        message: String,
    },
    /// The cell's result, and the one reply to its `assign`. The report's
    /// string labels do not travel: the coordinator re-attaches them.
    Done {
        /// The assignment's cell id.
        cell: u64,
        /// The full execution report, labels and events empty (boxed: it
        /// is most of the message's size).
        report: Box<ExecutionReport>,
        /// The cell's trace events, in emission order; empty unless the
        /// config it ran under asked for them (`events`).
        events: Vec<TraceEvent>,
    },
}

/// One cell of work: run `policy` (seeded with `policy_seed`) over the spec
/// identified by `fp` and report back under id `cell` — under `configure`
/// and over the spec `recipe` builds, when they ride along.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Assignment {
    /// Coordinator-side cell id, echoed back in `done`.
    pub(crate) cell: u64,
    /// Fingerprint of the spec the cell runs over.
    pub(crate) fp: u64,
    /// Canonical policy label ([`numadag_core::PolicyKind`] `FromStr` form).
    pub policy: String,
    /// Seed handed to the policy factory.
    pub(crate) policy_seed: u64,
    /// The executor configuration, when the worker's is another epoch's;
    /// the worker keeps it for the cells after this one (boxed: it is most
    /// of the message's size).
    pub(crate) configure: Option<Box<EpochConfig>>,
    /// The recipe of the spec `fp`, when the worker does not hold it; the
    /// worker keeps the spec for the cells after this one.
    pub(crate) recipe: Option<Recipe>,
}

/// The executor configuration an `assign` carries, tagged with its epoch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochConfig {
    /// Must equal `PROTOCOL_VERSION`.
    pub(crate) version: u64,
    /// The config's own fingerprint (see [`crate::WireConfig`]).
    pub(crate) epoch: u64,
    /// Whether the config asks for events ([`ExecutionConfig::events`]):
    /// the worker's simulator then returns each cell's events, sent back in
    /// its `done`. Part of the config's fingerprint, so traced and untraced
    /// cells are two epochs.
    pub(crate) events: bool,
    /// The executor configuration; its events switch is `events`.
    pub(crate) config: ExecutionConfig,
}

impl EpochConfig {
    /// `config` on the wire, tagged with `epoch`.
    pub(crate) fn new(epoch: u64, config: ExecutionConfig) -> EpochConfig {
        EpochConfig {
            version: PROTOCOL_VERSION,
            epoch,
            events: config.events,
            config,
        }
    }

    /// The simulator a worker builds for a decoded config, refusing what it
    /// must not guess at or build: another protocol version, or a machine
    /// [`Simulator::new`] would panic on (in its words). A machine
    /// `Topology::new` would panic on never decodes.
    pub(crate) fn simulator(self) -> Result<Simulator, String> {
        let EpochConfig {
            version,
            events,
            mut config,
            ..
        } = self;
        if version != PROTOCOL_VERSION {
            return Err(format!(
                "config.version {version} is not the supported protocol version {PROTOCOL_VERSION}"
            ));
        }
        config.events = events;
        Simulator::try_new(config)
    }
}

/// A kernel workload as the recipe that builds its spec: the worker builds
/// `app` at `scale` for `sockets` sockets.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Recipe {
    /// The application, in a spelling `Application`'s `FromStr` reads.
    pub(crate) app: String,
    /// The problem scale: `tiny`, `small` or `full`.
    pub(crate) scale: String,
    /// The socket count the spec is built for.
    pub(crate) sockets: u64,
}

impl Recipe {
    /// The recipe of the kernel spec `key` names.
    pub(crate) fn new((app, scale, sockets): SpecKey) -> Recipe {
        Recipe {
            app: app.label().to_string(),
            scale: scale.label().to_string(),
            sockets: sockets as u64,
        }
    }

    /// The spec a decoded recipe builds, refusing what a worker must not
    /// build or hold: an application or scale their `FromStr` does not know
    /// (in its words), a socket count outside
    /// `1..=`[`Simulator::MAX_SOCKETS`], or a spec whose fingerprint is not
    /// `fp`.
    pub(crate) fn build(&self, fp: u64) -> Result<TaskGraphSpec, String> {
        let app: Application = self.app.parse()?;
        let scale: ProblemScale = self.scale.parse()?;
        let most = Simulator::MAX_SOCKETS;
        let sockets = self.sockets;
        let sockets = usize::try_from(sockets)
            .ok()
            .filter(|n| (1..=most).contains(n))
            .ok_or_else(|| format!("recipe.sockets is {sockets}, expected 1..={most}"))?;
        let spec = app.build(scale, sockets);
        let built = spec.fingerprint();
        if built != fp {
            return Err(format!(
                "recipe fingerprint mismatch: advertised {fp:#x}, built {built:#x}"
            ));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_numa::Topology;
    use numadag_runtime::framing::{from_line, to_line, DecodeError};
    use numadag_runtime::Executor;
    use serde::testing::assert_enum_rejects_malformed;
    use serde::Value;

    /// One wire line per coordinator → worker message shape (`assign`
    /// three times), as the hand-written `encode_*` functions this module
    /// had up to commit fb5dfe3 rendered them, edited for protocol version 3
    /// (`config` gained `events`, which `assign` lost together with
    /// `placements`), re-captured for version 4, where the executor
    /// configuration began to travel in its own derived form, re-spelled for
    /// version 5, where every integer is a plain number, extended for
    /// version 6 by `recipe` (Symm. mat. inv. at Tiny scale on eight
    /// sockets), re-versioned for 7, where the `spec` message left the
    /// wire, re-captured for 8, where the config (epoch and seed
    /// `u64::MAX`) and the recipe ride in the `assign` that needs them:
    /// bare, with a recipe, and with both, re-captured for 9, whose
    /// spec fingerprints are another hash (the bare `assign` keeps a
    /// fingerprint above 2^63), re-captured for 10, whose config no longer
    /// carries its seed, and re-captured for 11, whose config lost its
    /// stage-timing switch.
    const TO_WORKER_LINES: [&str; 5] = [
        r#"{"assign":{"cell":9000,"fp":18446744073709551612,"policy":"rgp-las:w=512","policy_seed":15819134,"configure":null,"recipe":null}}"#,
        r#"{"assign":{"cell":9001,"fp":3369824997562222560,"policy":"las","policy_seed":224,"configure":null,"recipe":{"app":"Symm. mat. inv.","scale":"tiny","sockets":8}}}"#,
        r#"{"assign":{"cell":18446744073709551615,"fp":3369824997562222560,"policy":"rgp-rr:prop=repart","policy_seed":18446744073709551615,"configure":{"version":11,"epoch":18446744073709551615,"events":true,"config":{"topology":{"name":"2-node cluster (2 sockets x 3 cores, far=120)","sockets":4,"cores":3,"distances":[10,15,120,120,15,10,120,120,120,120,10,15,120,120,15,10]},"cost_model":{"local_bandwidth":8,"local_latency":100,"bandwidth_exponent":2,"latency_exponent":1.5,"contention_factor":0.25,"time_per_work_unit":1},"steal":"no_stealing"}},"recipe":{"app":"Symm. mat. inv.","scale":"tiny","sockets":8}}}"#,
        r#"{"barrier":{"epoch":18446744073709551615}}"#,
        r#""shutdown""#,
    ];

    /// The `assign` fields that may be absent.
    const OPTIONAL: [&str; 2] = ["configure", "recipe"];

    /// The same for worker → coordinator: full-range `u64`s, an escaped
    /// string, `1e300`, and a `done` with all five event kinds. Version 3
    /// dropped the two notification lines that used to precede `done` and
    /// the report's `trace` array; version 5 re-spelled the hex integers as
    /// plain numbers; version 8 dropped the config's acknowledgement and
    /// `hello`'s `pid`; version 10 cut the report's traffic ledger to its
    /// local and remote bytes; version 11 dropped the report's two stage
    /// clocks.
    const TO_COORDINATOR_LINES: [&str; 4] = [
        r#"{"hello":{"worker":3}}"#,
        r#"{"barrier_ack":{"epoch":2}}"#,
        r#"{"error":{"message":"bad \"spec\": back\\slash\nnew line\ttab ∑ \u0001"}}"#,
        r#"{"done":{"cell":77,"report":{"makespan_ns":3141592653.589793,"tasks":42,"traffic":{"local_bytes":6148914691236517205,"remote_bytes":2305843009213693952},"tasks_per_socket":[10,12,9,11],"busy_per_socket":[0.1,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,3.0000000000000004,0],"stolen_tasks":5,"deferred_bytes":36028797018963968},"events":[{"type":"assign","task":3,"socket":1,"time":1.5},{"type":"start","task":3,"socket":1,"core":5,"time":2.25,"stolen":true},{"type":"deferred_alloc","task":3,"node":1,"bytes":1099511627776,"time":2.25},{"type":"traffic","task":3,"region":17,"from":0,"to":1,"distance":21,"bytes":4096,"time":2.25},{"type":"finish","task":3,"socket":1,"core":5,"time":9.75}]}}"#,
    ];

    fn parse(line: &str) -> Value {
        serde_json::from_str(line).expect("a golden line is JSON")
    }

    #[test]
    fn the_parents_wire_lines_decode_and_re_encode_byte_for_byte() {
        for line in TO_WORKER_LINES {
            let mut message: ToWorker = from_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(to_line(&message), line);
            // ... and through what a worker builds from it.
            if let ToWorker::Assign(assign) = &mut message {
                if let Some(configure) = assign.configure.take() {
                    let epoch = configure.epoch;
                    let simulator = configure.simulator().unwrap();
                    let config = EpochConfig::new(epoch, simulator.config().clone());
                    assign.configure = Some(Box::new(config));
                }
                if let Some(recipe) = &assign.recipe {
                    let spec = recipe.build(assign.fp).unwrap();
                    assert_eq!(spec.fingerprint(), assign.fp);
                    let key = (
                        recipe.app.parse().unwrap(),
                        recipe.scale.parse().unwrap(),
                        recipe.sockets as usize,
                    );
                    assign.recipe = Some(Recipe::new(key));
                }
            }
            assert_eq!(to_line(&message), line);
        }
        for line in TO_COORDINATOR_LINES {
            let message: ToCoordinator = from_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(to_line(&message), line);
            if let ToCoordinator::Done { report, .. } = message {
                // The labels do not travel; everything else arrives exactly.
                assert_eq!((report.workload.as_ref(), report.policy), ("", ""));
                assert_eq!(report.traffic.local_bytes, u64::MAX / 3);
                assert_eq!(report.deferred_bytes, 1 << 55);
                assert_eq!(report.busy_per_socket[1], 1e300);
            }
        }
        assert_eq!(PROTOCOL_VERSION, 11);
    }

    /// `-0.0` keeps its sign across the wire in a `done` report, whose
    /// writer printed it `0` once.
    #[test]
    fn negative_zero_crosses_the_wire_bit_for_bit() {
        let done = TO_COORDINATOR_LINES[3].replacen(
            "\"makespan_ns\":3141592653.589793",
            "\"makespan_ns\":-0",
            1,
        );
        let Ok(ToCoordinator::Done { report, .. }) = from_line(&done) else {
            panic!("{done}");
        };
        assert_eq!(report.makespan_ns.to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            to_line(&ToCoordinator::Done {
                cell: 77,
                report,
                events: Vec::new()
            })
            .matches("\"makespan_ns\":-0,")
            .count(),
            1
        );
    }

    /// Every golden line, its full-range integers (`u64::MAX` epochs and
    /// seeds, the recipe's fingerprint) as written.
    #[test]
    fn every_malformed_message_is_an_error_that_names_what_is_wrong() {
        for line in TO_WORKER_LINES {
            assert_enum_rejects_malformed(line, &OPTIONAL, from_line::<ToWorker>);
        }
        for line in TO_COORDINATOR_LINES {
            assert_enum_rejects_malformed(line, &[], from_line::<ToCoordinator>);
        }
        // One direction's messages are not the other's.
        assert!(serde_json::from_value::<ToWorker>(&parse(TO_COORDINATOR_LINES[0])).is_err());
        assert!(serde_json::from_value::<ToCoordinator>(&parse(TO_WORKER_LINES[4])).is_err());
    }

    /// What a worker makes of a config: the simulator, or the complaint of
    /// the decode or of [`EpochConfig::simulator`].
    fn simulator_from(config: &Value) -> Result<Simulator, String> {
        serde_json::from_value::<EpochConfig>(config)?.simulator()
    }

    /// `message` with the value at `path` (object keys, from the top down)
    /// replaced.
    fn with_path(message: &Value, path: &[&str], value: Value) -> Value {
        let mut message = message.clone();
        let mut at = &mut message;
        for key in path {
            let Value::Object(fields) = at else {
                panic!("{key}: not an object");
            };
            at = &mut fields.iter_mut().find(|(name, _)| name == key).unwrap().1;
        }
        *at = value;
        message
    }

    #[test]
    fn a_config_a_worker_must_not_build_is_refused() {
        let two_socket = ExecutionConfig::new(Topology::two_socket(2));
        let good = serde_json::to_value(&EpochConfig::new(7, two_socket.clone()));
        // The events switch travels beside the config.
        let untraced = simulator_from(&good).unwrap();
        assert!(!untraced.config().events);
        let traced = serde_json::to_value(&EpochConfig::new(7, two_socket.with_events()));
        assert!(simulator_from(&traced).unwrap().config().events);

        let topology = ["config", "topology"];
        let at = |leaf: &'static str| [&topology[..], &[leaf]].concat();
        let numbers =
            |values: &[f64]| Value::Array(values.iter().map(|&n| Value::Number(n)).collect());
        for (path, value, complaint) in [
            (
                vec!["version"],
                Value::Number(10.0),
                "config.version 10 is not the supported protocol version 11",
            ),
            (
                vec!["version"],
                Value::Number(12.0),
                "config.version 12 is not the supported protocol version 11",
            ),
            (
                vec!["config", "steal"],
                Value::String("sometimes".to_string()),
                "unknown StealMode variant \"sometimes\"",
            ),
            (
                at("distances"),
                numbers(&[10.0, 21.0, 21.0]),
                "distance matrix must be n*n: 3 entries for 2 nodes",
            ),
            // Each of these four panicked the worker: the coordinator read
            // EOF where the reply should have been.
            (
                at("sockets"),
                Value::Number(0.0),
                "a machine needs at least one socket",
            ),
            (
                at("cores"),
                Value::Number(0.0),
                "a socket needs at least one core",
            ),
            (
                at("distances"),
                numbers(&[10.0, 21.0, 30.0, 10.0]),
                "distance matrix must be symmetric: d[0][1] = 21, d[1][0] = 30",
            ),
            (
                at("distances"),
                numbers(&[0.0, 21.0, 21.0, 10.0]),
                "diagonal of distance matrix must be the local distance 10: d[0][0] = 0",
            ),
        ] {
            let err = simulator_from(&with_path(&good, &path, value))
                .err()
                .unwrap();
            assert!(err.ends_with(complaint), "{path:?}: {err}");
        }
        // The simulator dispatches over at most 64 sockets, here and in
        // process alike.
        let sockets = |n| EpochConfig::new(1, ExecutionConfig::new(Topology::symmetric(n, 1)));
        let err = simulator_from(&serde_json::to_value(&sockets(65)))
            .err()
            .unwrap();
        assert_eq!(
            err,
            "the simulator supports at most 64 sockets, topology \"65-socket x 1 cores\" has 65"
        );
        assert!(simulator_from(&serde_json::to_value(&sockets(64))).is_ok());
    }

    fn recipe(app: &str, scale: &str, sockets: u64) -> Recipe {
        Recipe {
            app: app.to_string(),
            scale: scale.to_string(),
            sockets,
        }
    }

    /// A recipe names a spec a worker can build, or is refused: an unknown
    /// application or scale in `FromStr`'s words, a socket count the
    /// simulator does not take, and a spec that is not the advertised one.
    #[test]
    fn a_recipe_a_worker_must_not_build_is_refused() {
        const FP: u64 = 0x2ec4_05fb_2eed_87e0; // Symm. mat. inv., Tiny, 8 sockets
        assert_eq!(
            recipe("symm", "TINY", 8).build(FP).unwrap().fingerprint(),
            FP
        );
        let mismatch = "recipe fingerprint mismatch: advertised 0x2ec405fb2eed87e0, built 0x";
        for (app, scale, sockets, complaint) in [
            ("fft", "tiny", 8, "unknown application 'fft' (expected cg|gs|ih|jacobi|nstream|qr|rb|symm or a Figure-1 label)"),
            ("symm", "huge", 8, "unknown scale 'huge' (expected tiny|small|full)"),
            ("symm", "tiny", 0, "recipe.sockets is 0, expected 1..=64"),
            ("symm", "tiny", 65, "recipe.sockets is 65, expected 1..=64"),
            ("symm", "tiny", u64::MAX, "recipe.sockets is 18446744073709551615, expected 1..=64"),
            ("symm", "tiny", 4, mismatch),
            ("symm", "small", 8, mismatch),
            ("cg", "tiny", 8, mismatch),
        ] {
            let err = recipe(app, scale, sockets).build(FP).err();
            let err = err.unwrap_or_else(|| panic!("{app} {scale} {sockets}: built"));
            assert!(err.starts_with(complaint), "{app} {scale} {sockets}: {err}");
        }
        // The range is the simulator's.
        for sockets in [1, 64] {
            let fp = Application::Jacobi
                .build(ProblemScale::Tiny, sockets)
                .fingerprint();
            assert!(recipe("jacobi", "tiny", sockets as u64).build(fp).is_ok());
        }
    }

    /// Every application's recipe, at Tiny and Small, reaches a worker as a
    /// line it builds the advertised spec from: each label and scale reads
    /// back through `FromStr`.
    #[test]
    fn every_application_round_trips_at_tiny_and_small() {
        for scale in [ProblemScale::Tiny, ProblemScale::Small] {
            for app in Application::all() {
                let fp = app.build(scale, 8).fingerprint();
                let line = to_line(&Recipe::new((app, scale, 8)));
                let built = from_line::<Recipe>(&line).map(|recipe| recipe.build(fp));
                let built = built.unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(built.map(|spec| spec.fingerprint()), Ok(fp), "{line}");
            }
        }
    }

    /// A line cut short is not JSON, whatever it was: a worker ends the
    /// conversation, for its framing is lost.
    #[test]
    fn a_line_cut_anywhere_is_an_error_never_a_panic() {
        for line in TO_WORKER_LINES {
            for cut in 0..line.len() {
                assert!(
                    matches!(
                        from_line::<ToWorker>(&line[..cut]),
                        Err(DecodeError::Syntax(_))
                    ),
                    "{line} cut at {cut}"
                );
            }
        }
    }
}
