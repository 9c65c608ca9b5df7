//! Sweep-as-a-service: a persistent daemon over the plan/execute engine.
//!
//! The ROADMAP's "millions of users" shape: instead of re-running a ~81 ms
//! Full sweep per query, a long-running [`server`] keeps one process-wide
//! [`numadag_kernels::SpecCache`] hot and caches finished work at two
//! granularities (two instances of one O(1) `cache::Lru`). Whole sweeps
//! are content-addressed in an LRU `cache::ReportCache` keyed by the
//! canonical request fingerprint (workload spec hashes × canonical policy
//! labels × seed × backend × rep count): a repeated request — however its
//! policy strings are spelled — is answered with the byte-identical cached
//! report without executing anything. Novel sweep *shapes* are decomposed into content-addressed
//! cells (`protocol::cell_fingerprint`) backed by an LRU
//! `cache::CellCache`, so overlapping sweeps (added policy columns, app
//! subsets, extra repetitions) hydrate their shared cells and execute only
//! the genuinely new ones. The novel cells are batched onto a fair
//! round-robin queue drained by a pool of worker threads (`--pool N`), so
//! a tiny sweep completes while a Full sweep is in flight; admission
//! quotas bounce excess load with a structured `Overloaded` response, and
//! queued or running jobs can be cancelled, freeing their queued cells.
//!
//! The wire format ([`protocol`]) is newline-delimited JSON whose sweep
//! spec reuses the CLI string grammar verbatim, so the committed
//! `BENCH_figure1_*.json` baselines regenerate bit-exactly through the
//! service path:
//!
//! ```no_run
//! use numadag_serve::client::ServeClient;
//! use numadag_serve::protocol::SweepSpec;
//! use numadag_serve::server::{serve, ServeConfig};
//!
//! let handle = serve(ServeConfig::default()).unwrap();
//! let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
//! let first = client.submit(SweepSpec::default(), false, |_| ()).unwrap();
//! let again = client.submit(SweepSpec::default(), false, |_| ()).unwrap();
//! assert!(again.cache_hit);
//! assert_eq!(first.report_json, again.report_json); // byte-identical
//! client.shutdown().unwrap();
//! handle.join();
//! ```
//!
//! Binaries: `numadag-serve` (the daemon) and `serve-client`
//! (submit/status/stats/cancel/shutdown, used by CI); the `serve_mix`
//! workload of `benchmark/` measures the service under load.

mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::CachedReport;
pub use client::{ClientError, ServeClient, SubmitOutcome};
pub use protocol::{Request, ResolvedSweep, Response, ServerStats, SweepSpec};
pub use server::{serve, serve_with_specs, ServeConfig, ServeHandle};
