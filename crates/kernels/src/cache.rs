//! Memoized workload building: [`SpecCache`] builds each (application ×
//! scale × socket-count) task graph exactly once and hands out shared
//! [`Arc<TaskGraphSpec>`] handles.
//!
//! Sweeps run the same workload under many policies and repetitions; at Full
//! scale building a spec means generating thousands of tasks and their
//! dependence edges, so rebuilding per cell would dominate the sweep. The
//! cache is internally synchronized and can be shared across experiments
//! (and across sweep worker threads) behind an `Arc`. The build/hit counters
//! feed the sweep report's build-count accounting, which is how tests verify
//! that specs really are built once per app×scale.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use numadag_tdg::TaskGraphSpec;

use crate::common::ProblemScale;
use crate::suite::Application;

/// Key of one cached workload instance.
pub type SpecKey = (Application, ProblemScale, usize);

/// A cached spec with its fingerprint, hashed the first time it is asked
/// for (a cold sweep never asks).
type Cached = (Arc<TaskGraphSpec>, OnceLock<u64>);

/// A thread-safe memo of built task-graph specs, keyed by
/// (application, scale, socket count).
#[derive(Debug, Default)]
pub struct SpecCache {
    specs: Mutex<HashMap<SpecKey, Cached>>,
    builds: AtomicUsize,
    hits: AtomicUsize,
}

impl SpecCache {
    /// An empty cache.
    pub fn new() -> Self {
        SpecCache::default()
    }

    /// The map, whether or not a thread panicked while holding it: entries
    /// are only ever inserted whole, so what a poisoned lock guards is valid.
    fn specs(&self) -> MutexGuard<'_, HashMap<SpecKey, Cached>> {
        self.specs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The spec of `app` at `scale` for a `num_sockets`-socket machine,
    /// building it on first use and returning the shared handle afterwards.
    pub fn get(
        &self,
        app: Application,
        scale: ProblemScale,
        num_sockets: usize,
    ) -> Arc<TaskGraphSpec> {
        self.get_with_stats(app, scale, num_sockets).0
    }

    /// Like [`SpecCache::get`], but also reports whether *this* call built
    /// the spec (`true`) or was served from the cache (`false`) — so callers
    /// sharing the cache across threads can account their own builds/hits
    /// without racing on the global counters.
    pub fn get_with_stats(
        &self,
        app: Application,
        scale: ProblemScale,
        num_sockets: usize,
    ) -> (Arc<TaskGraphSpec>, bool) {
        self.get_or_build((app, scale, num_sockets), || app.build(scale, num_sockets))
    }

    /// [`SpecCache::get_with_stats`] with the build spelled by the caller. A
    /// `build` that panics has inserted nothing and counted nothing: the
    /// next lookup of the key builds again.
    fn get_or_build(
        &self,
        key: SpecKey,
        build: impl FnOnce() -> TaskGraphSpec,
    ) -> (Arc<TaskGraphSpec>, bool) {
        // Fast path: already built.
        if let Some((spec, _)) = self.specs().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(spec), false);
        }
        // Build outside the lock: Full-scale builds take real time and other
        // workloads' lookups should not serialize behind them. Two threads
        // racing on the same key both build; the first insert wins and the
        // loser's copy is dropped (counted as a build, not a hit — the work
        // did happen).
        let built = Arc::new(build());
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut specs = self.specs();
        let (spec, _) = specs.entry(key).or_insert((built, OnceLock::new()));
        (Arc::clone(spec), true)
    }

    /// The content fingerprint (see [`TaskGraphSpec::fingerprint`]) of a
    /// workload instance, remembered beside the cached spec: the spec
    /// memoises its graph's share of the hash, but a call still folds the
    /// region table and the placement, and the sweep service asks twice per
    /// application per request. Builds the spec on first use; reading a
    /// cached spec's fingerprint does not count as a hit.
    pub fn fingerprint(&self, app: Application, scale: ProblemScale, num_sockets: usize) -> u64 {
        let key = (app, scale, num_sockets);
        if !self.specs().contains_key(&key) {
            self.get(app, scale, num_sockets);
        }
        let specs = self.specs();
        let (spec, fingerprint) = &specs[&key];
        *fingerprint.get_or_init(|| spec.fingerprint())
    }

    /// How many specs were actually built (cache misses, including both
    /// sides of a racing build).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// How many lookups were served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct workload instances currently cached.
    pub fn len(&self) -> usize {
        self.specs().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[path = "../../tdg/tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    use super::reference::reference_fingerprint;

    #[test]
    fn caches_one_build_per_key() {
        let cache = SpecCache::new();
        let a = cache.get(Application::NStream, ProblemScale::Tiny, 4);
        let b = cache.get(Application::NStream, ProblemScale::Tiny, 4);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the build");
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_build_distinct_specs() {
        let cache = SpecCache::new();
        let tiny = cache.get(Application::Jacobi, ProblemScale::Tiny, 4);
        let small = cache.get(Application::Jacobi, ProblemScale::Small, 4);
        let other_sockets = cache.get(Application::Jacobi, ProblemScale::Tiny, 8);
        assert!(tiny.num_tasks() < small.num_tasks());
        assert!(!Arc::ptr_eq(&tiny, &other_sockets));
        assert_eq!(cache.builds(), 3);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
    }

    #[test]
    fn fingerprints_are_memoized_and_content_stable() {
        let cache = SpecCache::new();
        let fp1 = cache.fingerprint(Application::NStream, ProblemScale::Tiny, 4);
        let builds_after_first = cache.builds();
        let fp2 = cache.fingerprint(Application::NStream, ProblemScale::Tiny, 4);
        assert_eq!(fp1, fp2);
        assert_eq!(
            cache.builds(),
            builds_after_first,
            "memoized fingerprint must not rebuild the spec"
        );
        // A fresh cache (fresh build) produces the same content hash.
        let other = SpecCache::new();
        assert_eq!(
            other.fingerprint(Application::NStream, ProblemScale::Tiny, 4),
            fp1
        );
        assert_ne!(
            cache.fingerprint(Application::Jacobi, ProblemScale::Tiny, 4),
            fp1
        );
        // Reading a cached spec's fingerprint is not a hit.
        assert_eq!((cache.builds(), cache.hits()), (2, 0));
        cache.get(Application::Jacobi, ProblemScale::Tiny, 4);
        assert_eq!((cache.builds(), cache.hits()), (2, 1));
    }

    /// The content of every Figure-1 workload, as the byte-wise reference
    /// fold of commit 0fce270 saw it, before the graph memoised its share
    /// of the hash (eight sockets, the paper's machine).
    #[test]
    fn application_fingerprints_match_the_golden_table() {
        use Application::*;
        use ProblemScale::{Full, Tiny};
        const GOLDEN: [(Application, ProblemScale, u64); 16] = [
            (ConjugateGradient, Tiny, 0x18e17e81f24d47c2),
            (GaussSeidel, Tiny, 0x4b884324c5e8cba5),
            (IntegralHistogram, Tiny, 0xf5bd0479dc103293),
            (Jacobi, Tiny, 0x4706dedf52da21c5),
            (NStream, Tiny, 0xb2860385b508a91d),
            (QrFactorization, Tiny, 0xd4165d2210e53bcd),
            (RedBlack, Tiny, 0x1b528af884458c71),
            (SymmetricMatrixInversion, Tiny, 0x8da72e8cf48ae571),
            (ConjugateGradient, Full, 0x60a10a9c350d43c1),
            (GaussSeidel, Full, 0x492fdcb8175c81f7),
            (IntegralHistogram, Full, 0x0d4a1333abbc7e4c),
            (Jacobi, Full, 0x105b66974cf6816a),
            (NStream, Full, 0xa44b693b014cf545),
            (QrFactorization, Full, 0x38bd9c15d34baff2),
            (RedBlack, Full, 0x714a8ae5a79277ca),
            (SymmetricMatrixInversion, Full, 0xdf2e0e12eb38bfa5),
        ];
        let cache = SpecCache::new();
        for (app, scale, want) in GOLDEN {
            let spec = cache.get(app, scale, 8);
            let got = reference_fingerprint(&spec);
            assert_eq!(got, want, "{app:?} at {scale:?}: {got:#018x}");
            // ... and the cache's memo is the spec's own fingerprint.
            assert_eq!(cache.fingerprint(app, scale, 8), spec.fingerprint());
        }
    }

    #[test]
    fn a_panic_on_one_thread_leaves_the_cache_serving_on_another() {
        let cache = SpecCache::new();
        let key = (Application::NStream, ProblemScale::Tiny, 2);
        cache.get(Application::Jacobi, ProblemScale::Tiny, 2);
        std::thread::scope(|s| {
            // A build that panics: nothing inserted, nothing counted.
            let build = s.spawn(|| cache.get_or_build(key, || panic!("generator bug")));
            assert!(build.join().is_err());
            // The worst case, a panic while the map is locked: poisoned.
            let locked = s.spawn(|| {
                let _specs = cache.specs.lock().unwrap();
                panic!("panic under the lock");
            });
            assert!(locked.join().is_err());
        });
        assert!(cache.specs.is_poisoned());
        assert_eq!((cache.builds(), cache.hits(), cache.len()), (1, 0, 1));
        // This thread builds the key whose build panicked and is still
        // served the entry from before the panics.
        let (spec, built) = cache.get_with_stats(key.0, key.1, key.2);
        assert!(built);
        assert_eq!(cache.fingerprint(key.0, key.1, key.2), spec.fingerprint());
        let (_, built) = cache.get_with_stats(Application::Jacobi, ProblemScale::Tiny, 2);
        assert!(!built);
        assert_eq!((cache.builds(), cache.hits(), cache.len()), (2, 1, 2));
    }

    #[test]
    fn concurrent_lookups_share_one_entry() {
        let cache = Arc::new(SpecCache::new());
        let specs: Vec<Arc<TaskGraphSpec>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || cache.get(Application::NStream, ProblemScale::Tiny, 2))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        for spec in &specs[1..] {
            assert!(Arc::ptr_eq(&specs[0], spec));
        }
        assert_eq!(cache.builds() + cache.hits(), 4);
    }
}
