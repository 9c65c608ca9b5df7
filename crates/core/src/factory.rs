//! The policy registry: every scheduling policy the workspace implements,
//! addressable by a stable, string-parseable label.
//!
//! [`PolicyKind`] is the single source of truth for "which policies exist".
//! Each kind has a canonical [`PolicyKind::label`] that round-trips through
//! [`PolicyKind::from_str`], so benchmark binaries, examples and tests can
//! select policies from CLI arguments or config files instead of hard-coded
//! match arms. Parameterised policies encode their parameters in the label:
//! the RGP variants accept a window size, a partitioning scheme, a
//! refinement pass limit, a propagation mode and an anchoring mode, e.g.
//! `RGP+LAS:w=512,scheme=rb,passes=4` or `RGP+LAS:prop=repart,anchor=deps`
//! (see [`RgpTuning`]). Partitioner ablations therefore run through the
//! exact same `Experiment`/`SweepReport` path as every other policy
//! comparison — each tuned spelling is its own report column.

use std::str::FromStr;

use numadag_graph::PartitionScheme;
use numadag_tdg::TaskGraphSpec;

use crate::dfifo::DfifoPolicy;
use crate::ep::EpPolicy;
use crate::las::LasPolicy;
use crate::policy::SchedulingPolicy;
use crate::rgp::{AnchorMode, Propagation, RgpConfig, RgpPolicy};

/// The tunable knobs of an RGP policy kind, as encoded in registry labels.
///
/// `None` means "use the default", and a tuning with every knob unset is
/// normalised away to the plain `RgpLas`/`RgpRr` kinds by the
/// [`PolicyKind::rgp_las`]/[`PolicyKind::rgp_rr`] constructors, so label
/// round-trips stay exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct RgpTuning {
    /// RGP window size (`w=512`).
    pub window: Option<usize>,
    /// Partitioning scheme used on the window (`scheme=ml|rb|bfs`).
    pub scheme: Option<PartitionScheme>,
    /// Refinement passes per level of the window partitioner (`passes=4`).
    pub passes: Option<usize>,
    /// Propagation beyond the partitioned window
    /// (`prop=las|rr|repart`); overrides the propagation implied by the
    /// base kind. The constructors fold `las` and `rr` into the base kind,
    /// so a canonical kind carries `repart` here or nothing.
    pub prop: Option<Propagation>,
    /// Anchoring mode for repartition propagation
    /// (`anchor=none|deps|homes|both`).
    pub anchor: Option<AnchorMode>,
}

impl RgpTuning {
    /// True when every knob is unset (the kind behaves like the plain
    /// registry entry).
    pub fn is_default(&self) -> bool {
        *self == RgpTuning::default()
    }

    /// Sets the window size.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = Some(window);
        self
    }

    /// Sets the partitioning scheme.
    pub fn with_scheme(mut self, scheme: PartitionScheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Sets the refinement pass limit.
    pub fn with_passes(mut self, passes: usize) -> Self {
        self.passes = Some(passes);
        self
    }

    /// Sets the propagation mode.
    pub fn with_prop(mut self, prop: Propagation) -> Self {
        self.prop = Some(prop);
        self
    }

    /// Sets the anchoring mode.
    pub fn with_anchor(mut self, anchor: AnchorMode) -> Self {
        self.anchor = Some(anchor);
        self
    }

    /// The `key=value` parameter list of the canonical label, in stable
    /// order (`w`, `scheme`, `passes`, `prop`, `anchor`); empty for a
    /// default tuning.
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
        if let Some(prop) = self.prop {
            params.push(format!("prop={}", prop.token()));
        }
        if let Some(anchor) = self.anchor {
            params.push(format!("anchor={}", anchor.token()));
        }
        params.join(",")
    }

    /// Applies the set knobs on top of an [`RgpConfig`].
    fn apply(&self, mut config: RgpConfig) -> RgpConfig {
        if let Some(w) = self.window {
            config = config.with_window_size(w);
        }
        if let Some(scheme) = self.scheme {
            config = config.with_scheme(scheme);
        }
        if let Some(passes) = self.passes {
            config = config.with_refine_passes(passes);
        }
        if let Some(prop) = self.prop {
            config = config.with_propagation(prop);
        }
        if let Some(anchor) = self.anchor {
            config = config.with_anchor(anchor);
        }
        config
    }
}

/// The scheduling policies evaluated in the paper (plus the RGP round-robin
/// propagation ablation). The `…Tuned` variants carry explicit RGP
/// parameters ([`RgpTuning`]); the plain `Rgp…` variants use the defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Distributed FIFO.
    Dfifo,
    /// Expert programmer.
    Ep,
    /// Locality-aware scheduling (the baseline).
    Las,
    /// Runtime graph partitioning with LAS propagation (the contribution).
    RgpLas,
    /// Runtime graph partitioning with round-robin propagation (ablation).
    RgpRr,
    /// RGP+LAS with explicit window/partitioner parameters.
    RgpLasTuned(RgpTuning),
    /// RGP+RR with explicit window/partitioner parameters.
    RgpRrTuned(RgpTuning),
}

/// Error returned when a policy label cannot be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown policy {:?} (expected one of: dfifo, ep, las, rgp-las, rgp-rr, \
             optionally with RGP parameters like \
             rgp-las:w=512,scheme=rb,passes=4,prop=repart,anchor=deps \
             where scheme is one of ml, rb, bfs; prop is one of las, rr, \
             repart; anchor is one of none, deps, homes, both)",
            self.0
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl PolicyKind {
    /// The four policies of the paper's Figure 1, in its plotting order.
    pub fn figure1() -> [PolicyKind; 4] {
        [
            PolicyKind::Dfifo,
            PolicyKind::RgpLas,
            PolicyKind::Ep,
            PolicyKind::Las,
        ]
    }

    /// All registered base policies (tuned RGP variants are parameterised
    /// spellings of `RgpLas`/`RgpRr`, not separate registry entries).
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Dfifo,
            PolicyKind::Ep,
            PolicyKind::Las,
            PolicyKind::RgpLas,
            PolicyKind::RgpRr,
        ]
    }

    /// RGP+LAS with the given tuning, in canonical form: a default tuning is
    /// the plain [`PolicyKind::RgpLas`], and the *effective* propagation (the
    /// `prop` knob, else the one this constructor implies) decides the base
    /// kind — `rr` is RGP+RR, `las` is RGP+LAS, both without a `prop`, and
    /// `repart` is `RGP+LAS:prop=repart`. Every spelling of one policy
    /// (`rgp-las:prop=rr` and `rgp-rr`, `rgp-rr:prop=repart` and
    /// `rgp-las:prop=repart`) is therefore one kind, one label and one cache
    /// key.
    pub fn rgp_las(tuning: RgpTuning) -> PolicyKind {
        PolicyKind::rgp(Propagation::Las, tuning)
    }

    /// RGP+RR with the given tuning, canonical like [`PolicyKind::rgp_las`].
    pub fn rgp_rr(tuning: RgpTuning) -> PolicyKind {
        PolicyKind::rgp(Propagation::RoundRobin, tuning)
    }

    fn rgp(implied: Propagation, mut tuning: RgpTuning) -> PolicyKind {
        let propagation = tuning.prop.take().unwrap_or(implied);
        if propagation == Propagation::Repartition {
            tuning.prop = Some(propagation);
        }
        match (propagation == Propagation::RoundRobin, tuning.is_default()) {
            (false, true) => PolicyKind::RgpLas,
            (false, false) => PolicyKind::RgpLasTuned(tuning),
            (true, true) => PolicyKind::RgpRr,
            (true, false) => PolicyKind::RgpRrTuned(tuning),
        }
    }

    /// RGP+LAS with an explicit window size (shorthand for the most common
    /// tuning).
    pub fn rgp_las_window(window: usize) -> PolicyKind {
        PolicyKind::RgpLasTuned(RgpTuning::default().with_window(window))
    }

    /// The canonical label: the paper's display name, with any parameters
    /// appended (`RGP+LAS:w=512,scheme=rb`). Round-trips through
    /// [`PolicyKind::from_str`].
    pub fn label(&self) -> String {
        match self {
            PolicyKind::RgpLasTuned(t) | PolicyKind::RgpRrTuned(t) => {
                let params = t.params_label();
                if params.is_empty() {
                    // A hand-constructed Tuned variant with a default tuning
                    // (the constructors normalise this away) still labels as
                    // the plain kind, never as a dangling "RGP+LAS:".
                    self.base_label().to_string()
                } else {
                    format!("{}:{}", self.base_label(), params)
                }
            }
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
            PolicyKind::RgpLas | PolicyKind::RgpLasTuned(_) => "RGP+LAS",
            PolicyKind::RgpRr | PolicyKind::RgpRrTuned(_) => "RGP+RR",
        }
    }

    /// The RGP tuning encoded in this kind (`None` for non-RGP policies; the
    /// plain RGP kinds report the default tuning).
    pub fn tuning(&self) -> Option<RgpTuning> {
        match self {
            PolicyKind::RgpLas | PolicyKind::RgpRr => Some(RgpTuning::default()),
            PolicyKind::RgpLasTuned(t) | PolicyKind::RgpRrTuned(t) => Some(*t),
            _ => None,
        }
    }

    /// The explicit RGP window size encoded in this kind, if any.
    pub fn window(&self) -> Option<usize> {
        self.tuning().and_then(|t| t.window)
    }

    /// This kind with the given explicit RGP window, keeping any other
    /// encoded parameters. Returns `None` for policies that have no window
    /// parameter.
    pub fn with_window(&self, window: usize) -> Option<PolicyKind> {
        self.map_tuning(|t| t.with_window(window))
    }

    /// This kind with the given partitioning scheme (RGP kinds only).
    pub fn with_scheme(&self, scheme: PartitionScheme) -> Option<PolicyKind> {
        self.map_tuning(|t| t.with_scheme(scheme))
    }

    /// This kind with the given refinement pass limit (RGP kinds only).
    pub fn with_passes(&self, passes: usize) -> Option<PolicyKind> {
        self.map_tuning(|t| t.with_passes(passes))
    }

    fn map_tuning(&self, f: impl FnOnce(RgpTuning) -> RgpTuning) -> Option<PolicyKind> {
        match self {
            PolicyKind::RgpLas | PolicyKind::RgpLasTuned(_) => {
                Some(PolicyKind::rgp_las(f(self.tuning().unwrap())))
            }
            PolicyKind::RgpRr | PolicyKind::RgpRrTuned(_) => {
                Some(PolicyKind::rgp_rr(f(self.tuning().unwrap())))
            }
            _ => None,
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
    /// `window=512`, `p=4`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePolicyError(s.to_string());
        let normalized = s.trim().to_ascii_lowercase().replace(['+', '_', ' '], "-");
        let (base, params) = match normalized.split_once(':') {
            Some((b, p)) => (b, Some(p)),
            None => (normalized.as_str(), None),
        };
        let mut tuning = RgpTuning::default();
        if let Some(params) = params {
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
                        tuning.prop = Some(Propagation::from_token(value).ok_or_else(err)?);
                    }
                    Some(("anchor", value)) => {
                        tuning.anchor = Some(AnchorMode::from_token(value).ok_or_else(err)?);
                    }
                    _ => return Err(err()),
                }
            }
        }
        let kind = match base {
            // Parameters on a non-RGP policy are a user error. (The RGP
            // constructors may themselves normalise a tuning to another
            // base kind — e.g. `rgp-las:prop=rr` — which is fine.)
            "dfifo" | "ep" | "las" if !tuning.is_default() => return Err(err()),
            "dfifo" => PolicyKind::Dfifo,
            "ep" => PolicyKind::Ep,
            "las" => PolicyKind::Las,
            "rgp-las" | "rgplas" => PolicyKind::rgp_las(tuning),
            "rgp-rr" | "rgprr" => PolicyKind::rgp_rr(tuning),
            _ => return Err(err()),
        };
        Ok(kind)
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
    let rgp_config = |propagation| {
        kind.tuning().unwrap_or_default().apply(
            RgpConfig::default()
                .with_seed(seed)
                .with_propagation(propagation),
        )
    };
    Some(match kind {
        PolicyKind::Dfifo => Box::new(DfifoPolicy::new()) as Box<dyn SchedulingPolicy>,
        PolicyKind::Ep => Box::new(EpPolicy::from_spec(spec)?),
        PolicyKind::Las => Box::new(LasPolicy::new(seed)),
        PolicyKind::RgpLas | PolicyKind::RgpLasTuned(_) => {
            Box::new(RgpPolicy::new(rgp_config(Propagation::Las)))
        }
        PolicyKind::RgpRr | PolicyKind::RgpRrTuned(_) => {
            Box::new(RgpPolicy::new(rgp_config(Propagation::RoundRobin)))
        }
    })
}

// Compile-time contract of the sharded sweep driver: policy kinds can be
// shared with worker threads, and built policy instances can live on them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send + ?Sized>() {}
    assert_send_sync::<PolicyKind>();
    assert_send_sync::<RgpTuning>();
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
        let (g, sizes) = b.finish();
        let s = TaskGraphSpec::new("toy", g, sizes);
        if with_ep {
            s.with_ep_placement(vec![0, 0])
        } else {
            s
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicyKind::Dfifo.label(), "DFIFO");
        assert_eq!(PolicyKind::RgpLas.label(), "RGP+LAS");
        assert_eq!(PolicyKind::Las.to_string(), "LAS");
        assert_eq!(PolicyKind::rgp_las_window(512).label(), "RGP+LAS:w=512");
        assert_eq!(
            PolicyKind::RgpRr.with_window(64).unwrap().label(),
            "RGP+RR:w=64"
        );
        assert_eq!(
            PolicyKind::rgp_las(
                RgpTuning::default()
                    .with_window(512)
                    .with_scheme(PartitionScheme::RecursiveBisection)
                    .with_passes(4)
            )
            .label(),
            "RGP+LAS:w=512,scheme=rb,passes=4"
        );
        assert_eq!(PolicyKind::figure1().len(), 4);
        assert_eq!(PolicyKind::all().len(), 5);
    }

    #[test]
    fn every_registered_label_round_trips() {
        for kind in PolicyKind::all() {
            assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind), "{kind}");
        }
        for w in [1usize, 64, 512, 4096] {
            for kind in [PolicyKind::RgpLas, PolicyKind::RgpRr].map(|k| k.with_window(w).unwrap()) {
                assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind), "{kind}");
            }
        }
        // Every tuning combination round-trips exactly.
        for scheme in [None, Some(PartitionScheme::BfsGrowing)] {
            for window in [None, Some(256)] {
                for passes in [None, Some(2)] {
                    for prop in [None, Some(Propagation::Repartition)] {
                        for anchor in [None, Some(AnchorMode::Deps)] {
                            let tuning = RgpTuning {
                                window,
                                scheme,
                                passes,
                                prop,
                                anchor,
                            };
                            for kind in [PolicyKind::rgp_las(tuning), PolicyKind::rgp_rr(tuning)] {
                                assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind), "{kind}");
                            }
                        }
                    }
                }
            }
        }
        // Every propagation and anchor token round-trips through the label.
        for prop in [
            Propagation::Las,
            Propagation::RoundRobin,
            Propagation::Repartition,
        ] {
            let kind = PolicyKind::rgp_las(RgpTuning::default().with_prop(prop));
            assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind), "{kind}");
        }
        for anchor in [
            AnchorMode::None,
            AnchorMode::Deps,
            AnchorMode::Homes,
            AnchorMode::Both,
        ] {
            let kind = PolicyKind::rgp_las(RgpTuning::default().with_anchor(anchor));
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
            Ok(PolicyKind::RgpLasTuned(
                RgpTuning::default().with_prop(Propagation::Repartition)
            ))
        );
        assert_eq!(
            "rgp-las:w=512,prop=repart,anchor=deps".parse::<PolicyKind>(),
            Ok(PolicyKind::RgpLasTuned(
                RgpTuning::default()
                    .with_window(512)
                    .with_prop(Propagation::Repartition)
                    .with_anchor(AnchorMode::Deps)
            ))
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
            Ok(PolicyKind::RgpLasTuned(
                RgpTuning::default()
                    .with_prop(Propagation::Repartition)
                    .with_anchor(AnchorMode::Deps)
            ))
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
            Ok(PolicyKind::RgpLas)
        );
        assert_eq!(
            "rgp-rr:prop=rr".parse::<PolicyKind>(),
            Ok(PolicyKind::RgpRr)
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
            assert_eq!(s.parse::<PolicyKind>(), Ok(PolicyKind::RgpLas), "{s:?}");
        }
        assert_eq!(
            "rgp-las:window=256".parse::<PolicyKind>(),
            Ok(PolicyKind::rgp_las_window(256))
        );
        assert_eq!(
            "RGP+RR:w=128".parse::<PolicyKind>(),
            Ok(PolicyKind::RgpRrTuned(
                RgpTuning::default().with_window(128)
            ))
        );
        assert_eq!(
            "rgp-las:scheme=BFS".parse::<PolicyKind>(),
            Ok(PolicyKind::RgpLasTuned(
                RgpTuning::default().with_scheme(PartitionScheme::BfsGrowing)
            ))
        );
        assert_eq!(
            "rgp-las:p=2,s=rb".parse::<PolicyKind>(),
            Ok(PolicyKind::RgpLasTuned(
                RgpTuning::default()
                    .with_scheme(PartitionScheme::RecursiveBisection)
                    .with_passes(2)
            ))
        );
        assert_eq!("dfifo".parse::<PolicyKind>(), Ok(PolicyKind::Dfifo));
        // An empty parameter list is the plain kind.
        assert_eq!("rgp-las:".parse::<PolicyKind>(), Ok(PolicyKind::RgpLas));
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
                PolicyKind::RgpLasTuned(
                    RgpTuning::default()
                        .with_window(64)
                        .with_scheme(PartitionScheme::RecursiveBisection)
                ),
                PolicyKind::Las
            ]
        );
        assert!(PolicyKind::parse_list("dfifo,bogus").is_err());
    }

    #[test]
    fn with_window_parameterises_rgp_only() {
        assert_eq!(
            PolicyKind::RgpLas.with_window(64),
            Some(PolicyKind::rgp_las_window(64))
        );
        assert_eq!(
            PolicyKind::RgpRr.with_window(8).unwrap().with_window(16),
            Some(PolicyKind::RgpRrTuned(RgpTuning::default().with_window(16)))
        );
        assert_eq!(PolicyKind::Las.with_window(64), None);
        assert_eq!(
            PolicyKind::Dfifo.with_scheme(PartitionScheme::BfsGrowing),
            None
        );
        // Knobs compose without clobbering each other.
        let kind = PolicyKind::RgpLas
            .with_window(32)
            .unwrap()
            .with_scheme(PartitionScheme::RecursiveBisection)
            .unwrap()
            .with_passes(2)
            .unwrap();
        assert_eq!(kind.label(), "RGP+LAS:w=32,scheme=rb,passes=2");
        assert_eq!(kind.window(), Some(32));
    }

    #[test]
    fn default_tuning_normalises_to_plain_kinds() {
        assert_eq!(
            PolicyKind::rgp_las(RgpTuning::default()),
            PolicyKind::RgpLas
        );
        assert_eq!(PolicyKind::rgp_rr(RgpTuning::default()), PolicyKind::RgpRr);
        assert_eq!(PolicyKind::RgpLas.tuning(), Some(RgpTuning::default()));
        assert_eq!(PolicyKind::Ep.tuning(), None);
        // Even a hand-constructed Tuned variant with a default tuning (which
        // bypasses the normalising constructors) labels as the plain kind —
        // no dangling "RGP+LAS:" — and its label parses to the plain kind.
        let denormal = PolicyKind::RgpLasTuned(RgpTuning::default());
        assert_eq!(denormal.label(), "RGP+LAS");
        assert_eq!(
            denormal.label().parse::<PolicyKind>(),
            Ok(PolicyKind::RgpLas)
        );
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
        let p = make_policy(
            PolicyKind::RgpLas
                .with_scheme(PartitionScheme::BfsGrowing)
                .unwrap(),
            &s,
            42,
        )
        .unwrap();
        assert_eq!(p.name(), "RGP+LAS");
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
