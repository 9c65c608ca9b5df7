//! The policy registry: every scheduling policy the workspace implements,
//! addressable by a stable, string-parseable label.
//!
//! [`PolicyKind`] is the single source of truth for "which policies exist":
//! DFIFO, EP, LAS and RGP. Every value is canonical — one policy is one
//! value with one [`PolicyKind::label`] — and the label round-trips through
//! [`PolicyKind::from_str`], so benchmark binaries, examples, tests and the
//! sweep service's caches name policies by label. RGP carries its parameters
//! ([`RgpTuning`]) in the label: window size, partitioning scheme,
//! refinement pass limit, propagation and, under repartition propagation
//! only, the anchoring mode, e.g. `RGP+LAS:w=512,scheme=rb,passes=4` or
//! `RGP+LAS:prop=repart,anchor=deps`; round-robin propagation is the
//! `RGP+RR` base. Partitioner ablations therefore run through the exact same
//! `Experiment`/`SweepReport` path as every other policy comparison — each
//! tuned spelling is its own report column.

use std::str::FromStr;

use numadag_graph::PartitionScheme;
use numadag_tdg::TaskGraphSpec;

use crate::dfifo::DfifoPolicy;
use crate::ep::EpPolicy;
use crate::las::LasPolicy;
use crate::policy::SchedulingPolicy;
use crate::rgp::{AnchorMode, Propagation, RgpPolicy};

/// The parameters of an RGP policy, as encoded in registry labels and read
/// by [`RgpPolicy::new`]. An unset knob (`None`) keeps its default: a
/// 1024-task window, the multilevel scheme, the partitioner's pass limit
/// and both anchors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct RgpTuning {
    /// RGP window size (`w=512`).
    pub window: Option<usize>,
    /// Partitioning scheme used on the window (`scheme=ml|rb|bfs`).
    pub scheme: Option<PartitionScheme>,
    /// Refinement passes per level of the window partitioner (`passes=4`).
    pub passes: Option<usize>,
    /// Propagation beyond the partitioned window: [`Propagation::Las`] is
    /// `RGP+LAS`, [`Propagation::RoundRobin`] is `RGP+RR` and
    /// [`Propagation::Repartition`] is `RGP+LAS:prop=repart`.
    pub prop: Propagation,
    /// Anchoring mode of repartition propagation
    /// (`anchor=none|deps|homes|both`). RGP reads it only under
    /// [`Propagation::Repartition`], and labels refuse it anywhere else.
    pub anchor: Option<AnchorMode>,
}

impl RgpTuning {
    /// The `:key=value,…` suffix of the canonical label, in stable order
    /// (`w`, `scheme`, `passes`, `prop`, `anchor`); empty when every knob
    /// is at its default.
    fn params_label(&self) -> String {
        let mut params: Vec<String> = Vec::new();
        if let Some(w) = self.window {
            params.push(format!("w={w}"));
        }
        if let Some(scheme) = self.scheme {
            params.push(format!("scheme={}", scheme.token()));
        }
        if let Some(passes) = self.passes {
            params.push(format!("passes={passes}"));
        }
        if self.prop == Propagation::Repartition {
            params.push(format!("prop={}", self.prop.token()));
        }
        if let Some(anchor) = self.anchor {
            params.push(format!("anchor={}", anchor.token()));
        }
        if params.is_empty() {
            String::new()
        } else {
            format!(":{}", params.join(","))
        }
    }
}

/// The scheduling policies evaluated in the paper: DFIFO, EP, the LAS
/// baseline and RGP, whose [`RgpTuning`] also spells the round-robin
/// propagation ablation (RGP+RR). Two kinds are equal exactly when their
/// labels are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Distributed FIFO.
    Dfifo,
    /// Expert programmer.
    Ep,
    /// Locality-aware scheduling (the baseline).
    Las,
    /// Runtime graph partitioning (the contribution) with the given
    /// parameters.
    Rgp(RgpTuning),
}

/// Error returned when a policy label cannot be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl ParsePolicyError {
    fn unknown(label: &str) -> Self {
        ParsePolicyError(format!(
            "unknown policy {label:?} (expected one of: dfifo, ep, las, rgp-las, rgp-rr, \
             optionally with RGP parameters like \
             rgp-las:w=512,scheme=rb,passes=4,prop=repart,anchor=deps \
             where scheme is one of ml, rb, bfs; prop is one of las, rr, \
             repart; anchor is one of none, deps, homes, both)"
        ))
    }
}

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParsePolicyError {}

impl PolicyKind {
    /// The paper's RGP+LAS with default parameters.
    pub const RGP_LAS: PolicyKind = PolicyKind::Rgp(RgpTuning {
        window: None,
        scheme: None,
        passes: None,
        prop: Propagation::Las,
        anchor: None,
    });

    /// The RGP+RR ablation (round-robin propagation) with default
    /// parameters.
    pub(crate) const RGP_RR: PolicyKind = PolicyKind::Rgp(RgpTuning {
        window: None,
        scheme: None,
        passes: None,
        prop: Propagation::RoundRobin,
        anchor: None,
    });

    /// All registered base policies (tuned RGP kinds are parameterised
    /// spellings of RGP+LAS/RGP+RR, not separate registry entries).
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Dfifo,
            PolicyKind::Ep,
            PolicyKind::Las,
            PolicyKind::RGP_LAS,
            PolicyKind::RGP_RR,
        ]
    }

    /// RGP+LAS with an explicit window size (shorthand for the most common
    /// tuning).
    pub fn rgp_las_window(window: usize) -> PolicyKind {
        PolicyKind::Rgp(RgpTuning {
            window: Some(window),
            ..RgpTuning::default()
        })
    }

    /// The canonical label: the paper's display name, with any parameters
    /// appended (`RGP+LAS:w=512,scheme=rb`). Round-trips through
    /// [`PolicyKind::from_str`].
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Rgp(tuning) => format!("{}{}", self.base_label(), tuning.params_label()),
            other => other.base_label().to_string(),
        }
    }

    /// The display name used in reports (matches the paper's labels); the
    /// RGP parameters, if any, are dropped.
    pub fn base_label(&self) -> &'static str {
        match self {
            PolicyKind::Dfifo => "DFIFO",
            PolicyKind::Ep => "EP",
            PolicyKind::Las => "LAS",
            PolicyKind::Rgp(RgpTuning {
                prop: Propagation::RoundRobin,
                ..
            }) => "RGP+RR",
            PolicyKind::Rgp(_) => "RGP+LAS",
        }
    }

    /// Parses a comma-separated list of policy labels (CLI convenience).
    /// Commas inside a `:`-parameter list belong to the parameter list, so
    /// `dfifo,rgp-las:w=64,scheme=rb` is two policies, not three.
    pub fn parse_list(s: &str) -> Result<Vec<PolicyKind>, ParsePolicyError> {
        let mut out = Vec::new();
        let mut current = String::new();
        for piece in s.split(',') {
            if !current.is_empty() && piece.contains('=') && !piece.contains(':') {
                // Continuation of the previous policy's parameter list.
                current.push(',');
                current.push_str(piece.trim());
                continue;
            }
            if !current.is_empty() {
                out.push(current.parse()?);
            }
            current = piece.trim().to_string();
        }
        if !current.is_empty() {
            out.push(current.parse()?);
        }
        Ok(out)
    }
}

impl FromStr for PolicyKind {
    type Err = ParsePolicyError;

    /// Parses a policy label. Matching is case-insensitive and treats `+`,
    /// `-`, `_` and spaces as the same separator, so `RGP+LAS`, `rgp-las` and
    /// `rgp_las` all name the same policy. An optional `:`-separated
    /// parameter list selects the RGP window, partitioning scheme,
    /// refinement pass limit, propagation mode and anchoring mode:
    /// `rgp-las:w=512,scheme=rb,passes=4,prop=repart,anchor=deps` (also
    /// `window=512`, `p=4`). A `prop` knob overrides the propagation the
    /// base names, so `rgp-las:prop=rr` is `RGP+RR` and
    /// `rgp-rr:prop=repart` is `RGP+LAS:prop=repart`. An anchor without
    /// `prop=repart` is refused: RGP would ignore it.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePolicyError::unknown(s);
        let normalized = s.trim().to_ascii_lowercase().replace(['+', '_', ' '], "-");
        let (base, params) = normalized.split_once(':').unwrap_or((&normalized, ""));
        let mut tuning = RgpTuning::default();
        let mut prop = None;
        for param in params.split(',').filter(|p| !p.is_empty()) {
            match param.split_once('=') {
                Some(("w" | "window", value)) => {
                    let w: usize = value.parse().map_err(|_| err())?;
                    if w == 0 {
                        return Err(err());
                    }
                    tuning.window = Some(w);
                }
                Some(("scheme" | "s", value)) => {
                    tuning.scheme = Some(PartitionScheme::from_token(value).ok_or_else(err)?);
                }
                Some(("passes" | "p", value)) => {
                    tuning.passes = Some(value.parse().map_err(|_| err())?);
                }
                Some(("prop" | "propagation", value)) => {
                    prop = Some(Propagation::from_token(value).ok_or_else(err)?);
                }
                Some(("anchor", value)) => {
                    tuning.anchor = Some(AnchorMode::from_token(value).ok_or_else(err)?);
                }
                _ => return Err(err()),
            }
        }
        let tuned = prop.is_some() || tuning != RgpTuning::default();
        tuning.prop = match base {
            // Parameters on a non-RGP policy are a user error.
            "dfifo" | "ep" | "las" if tuned => return Err(err()),
            "dfifo" => return Ok(PolicyKind::Dfifo),
            "ep" => return Ok(PolicyKind::Ep),
            "las" => return Ok(PolicyKind::Las),
            "rgp-las" | "rgplas" => prop.unwrap_or(Propagation::Las),
            "rgp-rr" | "rgprr" => prop.unwrap_or(Propagation::RoundRobin),
            _ => return Err(err()),
        };
        if tuning.anchor.is_some() && tuning.prop != Propagation::Repartition {
            return Err(ParsePolicyError(format!(
                "policy {s:?}: anchor= needs prop=repart (RGP anchors only the windows \
                 it repartitions)"
            )));
        }
        Ok(PolicyKind::Rgp(tuning))
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Instantiates a policy for a workload. RGP kinds use the parameters
/// encoded in the kind (defaults when none are encoded).
///
/// Returns `None` only for [`PolicyKind::Ep`] when the workload does not
/// define an expert placement.
///
/// The returned box is [`Send`] ([`SchedulingPolicy`] has `Send` as a
/// supertrait), and `PolicyKind` is `Copy + Send + Sync` — so sweep drivers
/// can hand a kind to each worker thread and build the policy instance
/// inside the shard that runs it. The static assertion below keeps that
/// contract from regressing silently.
pub fn make_policy(
    kind: PolicyKind,
    spec: &TaskGraphSpec,
    seed: u64,
) -> Option<Box<dyn SchedulingPolicy>> {
    Some(match kind {
        PolicyKind::Dfifo => Box::new(DfifoPolicy::new()) as Box<dyn SchedulingPolicy>,
        PolicyKind::Ep => Box::new(EpPolicy::from_spec(spec)?),
        PolicyKind::Las => Box::new(LasPolicy::new(seed)),
        PolicyKind::Rgp(tuning) => Box::new(RgpPolicy::new(tuning, seed)),
    })
}

// Compile-time contract of a sharded sweep: policy kinds can be
// shared with worker threads, and built policy instances can live on them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send + ?Sized>() {}
    assert_send_sync::<PolicyKind>();
    assert_send::<Box<dyn SchedulingPolicy>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_tdg::{TaskSpec, TdgBuilder};

    fn spec(with_ep: bool) -> TaskGraphSpec {
        let mut b = TdgBuilder::new();
        let r = b.region(64);
        b.submit(TaskSpec::new("w").writes(r, 64));
        b.submit(TaskSpec::new("r").reads(r, 64));
        let s = TaskGraphSpec::new("toy", b.finish());
        if with_ep {
            s.with_ep_placement(vec![0, 0]).unwrap()
        } else {
            s
        }
    }

    const REPART: RgpTuning = RgpTuning {
        window: None,
        scheme: None,
        passes: None,
        prop: Propagation::Repartition,
        anchor: None,
    };

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicyKind::Dfifo.label(), "DFIFO");
        assert_eq!(PolicyKind::RGP_LAS.label(), "RGP+LAS");
        assert_eq!(PolicyKind::RGP_RR.label(), "RGP+RR");
        assert_eq!(PolicyKind::Las.to_string(), "LAS");
        assert_eq!(PolicyKind::rgp_las_window(512).label(), "RGP+LAS:w=512");
        let rr = RgpTuning {
            window: Some(64),
            prop: Propagation::RoundRobin,
            ..RgpTuning::default()
        };
        assert_eq!(PolicyKind::Rgp(rr).label(), "RGP+RR:w=64");
        let tuned = RgpTuning {
            window: Some(512),
            scheme: Some(PartitionScheme::RecursiveBisection),
            passes: Some(4),
            ..RgpTuning::default()
        };
        assert_eq!(
            PolicyKind::Rgp(tuned).label(),
            "RGP+LAS:w=512,scheme=rb,passes=4"
        );
        assert_eq!(PolicyKind::all().len(), 5);
    }

    #[test]
    fn every_registered_label_round_trips() {
        for kind in PolicyKind::all() {
            assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind), "{kind}");
        }
        // Every tuning combination round-trips exactly; an anchor only
        // exists under repartition.
        for scheme in [None, Some(PartitionScheme::BfsGrowing)] {
            for window in [None, Some(1), Some(256), Some(4096)] {
                for passes in [None, Some(2)] {
                    for prop in [
                        Propagation::Las,
                        Propagation::RoundRobin,
                        Propagation::Repartition,
                    ] {
                        let anchors: &[Option<AnchorMode>] = match prop {
                            Propagation::Repartition => &[None, Some(AnchorMode::Deps)],
                            _ => &[None],
                        };
                        for &anchor in anchors {
                            let kind = PolicyKind::Rgp(RgpTuning {
                                window,
                                scheme,
                                passes,
                                prop,
                                anchor,
                            });
                            assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind), "{kind}");
                        }
                    }
                }
            }
        }
        // Every anchor token round-trips through the label.
        for anchor in [
            AnchorMode::None,
            AnchorMode::Deps,
            AnchorMode::Homes,
            AnchorMode::Both,
        ] {
            let kind = PolicyKind::Rgp(RgpTuning {
                anchor: Some(anchor),
                ..REPART
            });
            assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind), "{kind}");
        }
        // Every spelling of one policy is one kind with one label: the
        // effective propagation decides the base, whichever base was typed.
        for (spellings, label) in [
            (
                &[
                    "rgp-las",
                    "rgp_las",
                    "RGP+LAS",
                    "rgp-las:prop=las",
                    "rgp-rr:prop=las",
                ][..],
                "RGP+LAS",
            ),
            (
                &["rgp-rr", "rgp-las:prop=rr", "rgp-rr:prop=rr"][..],
                "RGP+RR",
            ),
            (
                &["rgp-las:prop=repart", "rgp-rr:prop=repart"][..],
                "RGP+LAS:prop=repart",
            ),
            (&["rgp-las:w=64,prop=rr", "rgp-rr:w=64"][..], "RGP+RR:w=64"),
        ] {
            let canonical: PolicyKind = label.parse().unwrap();
            for spelling in spellings {
                let kind: PolicyKind = spelling.parse().unwrap();
                assert_eq!(kind, canonical, "{spelling:?}");
                assert_eq!(kind.label(), label, "{spelling:?}");
            }
        }
    }

    #[test]
    fn propagation_and_anchor_knobs_parse_and_label() {
        assert_eq!(
            "rgp-las:prop=repart".parse::<PolicyKind>(),
            Ok(PolicyKind::Rgp(REPART))
        );
        assert_eq!(
            "rgp-las:w=512,prop=repart,anchor=deps".parse::<PolicyKind>(),
            Ok(PolicyKind::Rgp(RgpTuning {
                window: Some(512),
                anchor: Some(AnchorMode::Deps),
                ..REPART
            }))
        );
        // Canonical parameter order is stable regardless of input order.
        assert_eq!(
            "rgp-las:anchor=both,w=64,prop=repartition"
                .parse::<PolicyKind>()
                .unwrap()
                .label(),
            "RGP+LAS:w=64,prop=repart,anchor=both"
        );
        // Long spellings of the tokens are accepted.
        assert_eq!(
            "rgp-las:propagation=repartition,anchor=dependences".parse::<PolicyKind>(),
            Ok(PolicyKind::Rgp(RgpTuning {
                anchor: Some(AnchorMode::Deps),
                ..REPART
            }))
        );
    }

    #[test]
    fn equivalent_policy_strings_canonicalize_to_one_label() {
        // The report cache in numadag-serve keys on canonical labels, so
        // every spelling of the same policy must collapse to one string.
        let spellings = [
            "rgp-las:w=512,scheme=rb,prop=repart",
            "rgp-las:scheme=rb,w=512,prop=repart",
            "rgp-las:prop=repartition,scheme=rb,window=512",
            "RGP+LAS:prop=repart,w=512,scheme=rb",
        ];
        let labels: Vec<String> = spellings
            .iter()
            .map(|s| s.parse::<PolicyKind>().unwrap().label())
            .collect();
        for label in &labels {
            assert_eq!(label, "RGP+LAS:w=512,scheme=rb,prop=repart");
        }
        // And the canonical label round-trips to the same kind.
        let kind = spellings[0].parse::<PolicyKind>().unwrap();
        assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind));
    }

    #[test]
    fn redundant_prop_knobs_normalize_to_the_plain_kinds() {
        // `prop=las` on rgp-las (and `prop=rr` on rgp-rr) restates the
        // propagation the base kind already implies.
        assert_eq!(
            "rgp-las:prop=las".parse::<PolicyKind>(),
            Ok(PolicyKind::RGP_LAS)
        );
        assert_eq!(
            "rgp-rr:prop=rr".parse::<PolicyKind>(),
            Ok(PolicyKind::RGP_RR)
        );
        assert_eq!(
            "rgp-las:w=256,prop=las"
                .parse::<PolicyKind>()
                .unwrap()
                .label(),
            "RGP+LAS:w=256"
        );
        // Normalisation never weakens the params-on-non-RGP error.
        assert!("las:prop=las".parse::<PolicyKind>().is_err());
        assert!("dfifo:w=64".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn parsing_is_forgiving_about_case_and_separators() {
        for s in ["rgp-las", "RGP+LAS", "Rgp_Las", " rgp las "] {
            assert_eq!(s.parse::<PolicyKind>(), Ok(PolicyKind::RGP_LAS), "{s:?}");
        }
        assert_eq!(
            "rgp-las:window=256".parse::<PolicyKind>(),
            Ok(PolicyKind::rgp_las_window(256))
        );
        assert_eq!(
            "RGP+RR:w=128".parse::<PolicyKind>(),
            Ok(PolicyKind::Rgp(RgpTuning {
                window: Some(128),
                prop: Propagation::RoundRobin,
                ..RgpTuning::default()
            }))
        );
        assert_eq!(
            "rgp-las:scheme=BFS".parse::<PolicyKind>(),
            Ok(PolicyKind::Rgp(RgpTuning {
                scheme: Some(PartitionScheme::BfsGrowing),
                ..RgpTuning::default()
            }))
        );
        assert_eq!(
            "rgp-las:p=2,s=rb".parse::<PolicyKind>(),
            Ok(PolicyKind::Rgp(RgpTuning {
                scheme: Some(PartitionScheme::RecursiveBisection),
                passes: Some(2),
                ..RgpTuning::default()
            }))
        );
        assert_eq!("dfifo".parse::<PolicyKind>(), Ok(PolicyKind::Dfifo));
        // An empty parameter list is the plain kind.
        assert_eq!("rgp-las:".parse::<PolicyKind>(), Ok(PolicyKind::RGP_LAS));
    }

    #[test]
    fn bad_labels_are_rejected() {
        for s in [
            "",
            "fifo",
            "las:w=2",
            "rgp-las:w=0",
            "rgp-las:w=abc",
            "rgp-las:x=1",
            "rgp-las:scheme=quantum",
            "rgp-las:passes=lots",
            "rgp-las:prop=quantum",
            "rgp-las:anchor=elsewhere",
            "las:prop=repart",
        ] {
            assert!(s.parse::<PolicyKind>().is_err(), "{s:?} should not parse");
        }
        let msg = "nope".parse::<PolicyKind>().unwrap_err().to_string();
        assert!(msg.contains("nope"));
        // RGP ignores an anchor outside repartition, so a spelling with one
        // would be a second column for the same policy.
        for s in [
            "rgp-las:anchor=deps",
            "rgp-rr:anchor=both",
            "rgp-las:prop=las,anchor=homes",
            "rgp-rr:prop=repart,anchor=none,prop=rr",
        ] {
            let msg = s.parse::<PolicyKind>().unwrap_err().to_string();
            assert!(msg.contains("needs prop=repart"), "{s:?}: {msg}");
        }
    }

    #[test]
    fn parse_list_splits_on_policies_not_parameters() {
        let kinds = PolicyKind::parse_list("dfifo, rgp-las:w=512, ep").unwrap();
        assert_eq!(
            kinds,
            vec![
                PolicyKind::Dfifo,
                PolicyKind::rgp_las_window(512),
                PolicyKind::Ep
            ]
        );
        // Parameter-list commas stay with their policy.
        let kinds = PolicyKind::parse_list("rgp-las:w=64,scheme=rb,las").unwrap();
        assert_eq!(
            kinds,
            vec![
                PolicyKind::Rgp(RgpTuning {
                    window: Some(64),
                    scheme: Some(PartitionScheme::RecursiveBisection),
                    ..RgpTuning::default()
                }),
                PolicyKind::Las
            ]
        );
        assert!(PolicyKind::parse_list("dfifo,bogus").is_err());
    }

    #[test]
    fn factory_builds_every_policy() {
        let s = spec(true);
        for kind in PolicyKind::all() {
            let p = make_policy(kind, &s, 42).expect("policy should build");
            assert_eq!(p.name(), kind.label());
        }
        // Tuned kinds build the same named policy with the knobs applied.
        let p = make_policy(PolicyKind::rgp_las_window(1), &s, 42).unwrap();
        assert_eq!(p.name(), "RGP+LAS");
        let bfs = RgpTuning {
            scheme: Some(PartitionScheme::BfsGrowing),
            ..RgpTuning::default()
        };
        assert_eq!(
            make_policy(PolicyKind::Rgp(bfs), &s, 42).unwrap().name(),
            "RGP+LAS"
        );
        // Repartition propagation keeps the paper's display name: it is
        // still RGP with LAS propagation, only applied window by window.
        let p = make_policy(
            "rgp-las:prop=repart,anchor=both"
                .parse::<PolicyKind>()
                .unwrap(),
            &s,
            42,
        )
        .unwrap();
        assert_eq!(p.name(), "RGP+LAS");
    }

    #[test]
    fn ep_requires_a_placement() {
        let s = spec(false);
        assert!(make_policy(PolicyKind::Ep, &s, 1).is_none());
        assert!(make_policy(PolicyKind::Las, &s, 1).is_some());
    }
}
