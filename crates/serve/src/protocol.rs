//! Wire protocol of the sweep service: newline-delimited JSON envelopes.
//!
//! Every message is one JSON value on one line; the line layer itself
//! (size-capped reads, truncation/UTF-8 error taxonomy) lives in the shared
//! [`numadag_runtime::framing`] module, which this protocol and the
//! multi-process executor's IPC both ride on. Envelopes use serde's
//! externally-tagged enum encoding (`"Stats"`, `{"Status": {"job": 1}}`),
//! produced by the vendored `#[derive(Serialize)]` and parsed back by the
//! `#[derive(Deserialize)]` next to it, so the two directions cannot drift:
//! a field added to a message is one line, and `#[serde(default)]` on it is
//! the whole "an older peer does not send this" rule.
//!
//! The sweep spec is the runtime's [`SweepSpec`], the command-line grammar
//! verbatim: applications, policies, scale and backend travel as the same
//! comma-separated strings `figure1` and `serve-client` accept, so anything
//! expressible on a command line is expressible in a request.

use numadag_core::PolicyKind;
use numadag_kernels::SpecCache;
use numadag_runtime::{report_order, ContentHasher, SweepPlan};
use serde::{de, Deserialize, Reader, Serialize};

pub use numadag_runtime::{ResolvedSweep, SweepSpec, DEFAULT_POLICIES};

/// The content fingerprint of one sweep **cell** — the unit of the server's
/// cell cache. A cell's measurement depends only on the workload spec, the
/// policy, the sweep seed, the repetition index, the backend and the machine
/// topology, so two sweeps of different overall shapes (different app
/// subsets, policy supersets, added repetitions) that contain the same cell
/// share one entry.
///
/// Key schema ([`ContentHasher`] over, in order): workload spec fingerprint
/// ([`numadag_kernels::SpecCache::fingerprint`], which already encodes
/// application, scale and socket count) × canonical policy label × sweep
/// seed × repetition index × backend label × socket count.
pub(crate) fn cell_fingerprint(
    spec_fp: u64,
    policy_label: &str,
    backend_label: &str,
    seed: u64,
    rep: u64,
    num_sockets: u64,
) -> u64 {
    let mut hash = ContentHasher::default();
    hash.write_u64(spec_fp);
    // Each label goes in after its length, so "ab"+"c" and "a"+"bc" hash
    // differently.
    for label in [policy_label, backend_label] {
        hash.write_bytes(label.as_bytes());
    }
    for value in [seed, rep, num_sockets] {
        hash.write_u64(value);
    }
    hash.finish()
}

/// The canonical content fingerprint of a sweep, the key of the report
/// cache: backend label × seed × rep count × socket count × workload spec
/// hashes × canonical policy labels in report order ([`report_order`], the
/// order [`numadag_runtime::Experiment::plan`] gives its policy slots), so
/// two spellings of one sweep (`rgp-las:scheme=rb,w=512` vs
/// `rgp-las:w=512,scheme=rb`) share an entry. Workload hashes come from
/// [`SpecCache::fingerprint`], so the first request for a workload builds
/// it (and warms the spec cache for the run itself).
pub(crate) fn sweep_fingerprint(
    sweep: &ResolvedSweep,
    specs: &SpecCache,
    num_sockets: usize,
) -> u64 {
    let mut hash = ContentHasher::default();
    hash.write_bytes(sweep.backend.label().as_bytes());
    for value in [sweep.seed, sweep.reps as u64, num_sockets as u64] {
        hash.write_u64(value);
    }
    hash.write_u64(sweep.apps.len() as u64);
    for &app in &sweep.apps {
        hash.write_u64(specs.fingerprint(app, sweep.scale, num_sockets));
    }
    for policy in report_order(&sweep.policies) {
        hash.write_bytes(policy.label().as_bytes());
    }
    hash.finish()
}

/// The [`cell_fingerprint`] of every job of `plan`, the plan of `sweep`, in
/// job order: `keys[i]` keys the outcome of `plan.run_cell(i, …)`. The
/// policy labels and backend are read off the plan itself; the spec
/// fingerprints come from the [`SpecCache::fingerprint`] memo, one per
/// application (a sweep has one scale, so one workload per application).
pub(crate) fn cell_keys(
    plan: &SweepPlan,
    sweep: &ResolvedSweep,
    specs: &SpecCache,
    num_sockets: usize,
) -> Vec<u64> {
    let spec_fps: Vec<u64> = sweep
        .apps
        .iter()
        .map(|&app| specs.fingerprint(app, sweep.scale, num_sockets))
        .collect();
    let labels: Vec<String> = plan.policies().iter().map(PolicyKind::label).collect();
    let backend = plan.backend().label();
    plan.jobs()
        .iter()
        .map(|job| {
            cell_fingerprint(
                spec_fps[job.workload],
                &labels[job.policy_slot],
                backend,
                sweep.seed,
                job.repetition as u64,
                num_sockets as u64,
            )
        })
        .collect()
}

/// A client request. Externally tagged on the wire:
/// `{"SubmitSweep": {"spec": {...}, "stream": false}}`, `{"Status":
/// {"job": 1}}`, `"Stats"`, `{"CancelJob": {"job": 1}}`, `"Shutdown"`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a sweep; the connection receives `Submitted`, then (with
    /// `stream`, off when absent) per-cell `Progress` lines, then a terminal
    /// `Report`.
    SubmitSweep {
        spec: SweepSpec,
        #[serde(default)]
        stream: bool,
    },
    /// Query the state of a job submitted on any connection.
    Status { job: u64 },
    /// Cancel a job that is still queued or running; its unexecuted cells
    /// are freed from the pool queue.
    CancelJob { job: u64 },
    /// Server counters: admission, report cache, spec cache.
    Stats,
    /// Stop accepting work, fail queued jobs and exit the daemon.
    Shutdown,
}

/// Server counters returned by [`Request::Stats`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Jobs admitted to the queue (cache misses that will execute).
    pub jobs_submitted: u64,
    /// Submissions coalesced onto an already queued/running identical job.
    pub jobs_coalesced: u64,
    /// Jobs that finished executing.
    pub jobs_completed: u64,
    /// Jobs cancelled while queued or running.
    pub jobs_cancelled: u64,
    /// Jobs failed (currently only by shutdown draining the queue).
    pub jobs_failed: u64,
    /// Submissions rejected by the admission quotas (`Overloaded`).
    pub jobs_rejected: u64,
    /// Malformed request lines answered with `Error`.
    pub requests_malformed: u64,
    /// Cells actually executed across all jobs — cache hits do not grow
    /// this, which is how tests verify repeats do not re-execute.
    pub executed_cells_total: u64,
    /// Cells hydrated from the cell cache at admission instead of executed.
    pub cells_hydrated_total: u64,
    /// Report-cache entries currently resident.
    pub report_cache_entries: u64,
    /// Report-cache capacity (LRU evicts beyond this).
    pub report_cache_capacity: u64,
    /// Requests served byte-identically from the report cache.
    pub report_cache_hits: u64,
    /// Requests that missed the report cache (and executed).
    pub report_cache_misses: u64,
    /// Cached reports evicted by the LRU policy.
    pub report_cache_evictions: u64,
    /// Cell-cache entries currently resident.
    pub cell_cache_entries: u64,
    /// Cell-cache capacity (LRU evicts beyond this).
    pub cell_cache_capacity: u64,
    /// Admission-time cell lookups served from the cell cache.
    pub cell_cache_hits: u64,
    /// Admission-time cell lookups that missed (novel cells).
    pub cell_cache_misses: u64,
    /// Cached cell outcomes evicted by the LRU policy.
    pub cell_cache_evictions: u64,
    /// Pool workers executing cell batches.
    pub pool_workers: u64,
    /// Lifetime workload builds of the process-wide spec cache.
    pub spec_cache_builds: u64,
    /// Lifetime workload lookups served by the process-wide spec cache.
    pub spec_cache_hits: u64,
    /// Distinct workload instances resident in the spec cache.
    pub spec_cache_entries: u64,
    /// Queued or running jobs identical submissions would coalesce onto.
    /// This and the two gauges below are newer than the first release: a
    /// reply from an older daemon lacks them and still parses.
    #[serde(default)]
    pub jobs_in_flight: u64,
    /// Jobs `Status` can still describe: the live ones plus the bounded
    /// history of terminal ones.
    #[serde(default)]
    pub jobs_tracked: u64,
    /// Terminal jobs aged out of that history (`Status` answers
    /// `job N retired`).
    #[serde(default)]
    pub jobs_retired: u64,
}

/// A server response. One line each; `SubmitSweep` produces a `Submitted`
/// line, optional `Progress` lines, and a terminal `Report` (or `Error` /
/// `Cancelled`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The job id assigned to a submission. `cached` is true when the
    /// terminal `Report` follows immediately from the report cache.
    Submitted { job: u64, cached: bool },
    /// One finished cell of a streaming submission.
    Progress {
        job: u64,
        completed: u64,
        total: u64,
        application: String,
        policy: String,
        repetition: u64,
    },
    /// Terminal response of a submission: the exact measurement-JSON bytes
    /// of the sweep report (`SweepReport::to_json_string`). The daemon
    /// writes it raw, `"report_bytes":N,"report":<N bytes>` with each line
    /// feed sent as a carriage return, so the line stays one line; the
    /// derived spelling, the report as the string `report_json`, decodes
    /// too. `executed_cells` is the number of cells executed *for this
    /// request* — 0 when served from cache; `hydrated_cells` is the number
    /// answered from the cell cache instead of executed (overlap with
    /// previously executed sweeps).
    Report {
        job: u64,
        cache_hit: bool,
        executed_cells: u64,
        hydrated_cells: u64,
        report_json: String,
    },
    /// State of a job: `queued`, `running`, `done`, `cancelled` or `failed`.
    JobStatus {
        job: u64,
        state: String,
        completed: u64,
        total: u64,
    },
    /// Acknowledges a successful `CancelJob`.
    Cancelled { job: u64 },
    /// A submission bounced off the admission quotas: the pool queue already
    /// holds `queued_cells` cells against a limit of `limit`. Retry later.
    Overloaded { queued_cells: u64, limit: u64 },
    /// Server counters.
    Stats(ServerStats),
    /// Structured failure: the connection stays open, mirroring the bins'
    /// exit-2-on-usage-error convention without dropping the session.
    Error { message: String },
    /// Acknowledges `Shutdown`; the daemon exits after this line.
    ShuttingDown,
}

// The framing layer started here and moved to `numadag_runtime::framing` so
// the multi-process executor's IPC shares it; re-exported for callers that
// import it from the protocol module.
use numadag_runtime::framing::from_line;
pub use numadag_runtime::framing::to_line;

/// A report's wire form: every line feed of its JSON sent as a carriage
/// return. A CR is JSON whitespace, so the `Report` line carrying it stays
/// one line and one JSON document; the serializer escapes every control
/// character inside strings, so a raw CR is never part of the report itself.
pub(crate) fn report_wire_form(report: &str) -> String {
    debug_assert!(!report.contains('\r'), "a report holds no raw CR");
    report.replace('\n', "\r")
}

/// Appends the wire line of a [`Response::Report`] (no newline) around
/// `wire`, a report in [`report_wire_form`]:
/// `{"Report":{"job":J,"cache_hit":B,"executed_cells":E,"hydrated_cells":H,"report_bytes":N,"report":<the N bytes of wire>}}`.
/// The report is embedded raw, so neither end escapes or unescapes it;
/// [`Response::from_line`] takes its N bytes by length.
pub(crate) fn push_report_line(
    line: &mut String,
    job: u64,
    cache_hit: bool,
    executed_cells: u64,
    hydrated_cells: u64,
    wire: &str,
) {
    use std::fmt::Write as _;
    // Numbers go through f64, the data model's only number type, so each is
    // spelled as the derived encoder spells it and decodes as it decodes.
    let [job, executed_cells, hydrated_cells] =
        [job, executed_cells, hydrated_cells].map(|n| n as f64);
    line.reserve(wire.len() + 128);
    write!(
        line,
        r#"{{"Report":{{"job":{job},"cache_hit":{cache_hit},"executed_cells":{executed_cells},"hydrated_cells":{hydrated_cells},"report_bytes":{},"report":"#,
        wire.len()
    )
    .expect("writing to a String cannot fail");
    line.push_str(wire);
    line.push_str("}}");
}

/// Decodes a `Report` line in [`push_report_line`]'s spelling, header in
/// its order, slicing the report out by its stated length; `None` hands
/// any other line to the derived decoder, which names what is wrong.
fn raw_report_from_line(line: &str) -> Option<Result<Response, String>> {
    let mut reader = Reader::new(line);
    let envelope = reader.begin_object().ok()?;
    let first = reader.begin_object().ok()?;
    if envelope.as_deref() != Some("Report") || first.as_deref() != Some("job") {
        return None;
    }
    let job = u64::deserialize(&mut reader).ok()?;
    let next = |reader: &mut Reader<'_>, key: &str| {
        (reader.next_key().ok()?.as_deref() == Some(key)).then_some(())
    };
    next(&mut reader, "cache_hit")?;
    let cache_hit = bool::deserialize(&mut reader).ok()?;
    next(&mut reader, "executed_cells")?;
    let executed_cells = u64::deserialize(&mut reader).ok()?;
    next(&mut reader, "hydrated_cells")?;
    let hydrated_cells = u64::deserialize(&mut reader).ok()?;
    next(&mut reader, "report_bytes")?;
    Some(raw_report_body(reader).map(|report_json| Response::Report {
        job,
        cache_hit,
        executed_cells,
        hydrated_cells,
        report_json,
    }))
}

/// The report of a line [`raw_report_from_line`] committed to the raw
/// spelling: `reader` stands in front of `report_bytes`' value.
fn raw_report_body(mut reader: Reader<'_>) -> Result<String, String> {
    let report_bytes: usize = de::member(&mut reader, "Report", "report_bytes")?;
    if reader.next_key()?.as_deref() != Some("report") {
        return Err("Report.report must follow report_bytes".to_string());
    }
    let wire = reader
        .raw(report_bytes)
        .map_err(|e| format!("Report.report: {e}"))?;
    if reader.raw(2).ok() != Some("}}") || reader.end().is_err() {
        return Err(format!(
            "Report.report must end with `}}}}` and the line after its {report_bytes} bytes"
        ));
    }
    Ok(wire.replace('\r', "\n"))
}

impl Request {
    /// Decodes one wire line.
    pub(crate) fn from_line(line: &str) -> Result<Request, String> {
        Ok(from_line(line)?)
    }
}

impl Response {
    /// Decodes one wire line: a `Report` that embeds its report raw by
    /// slicing the report out, anything else through the derived decoder.
    pub fn from_line(line: &str) -> Result<Response, String> {
        raw_report_from_line(line).unwrap_or_else(|| Ok(from_line(line)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_kernels::{Application, ProblemScale};
    use numadag_numa::Topology;
    use numadag_runtime::Backend;
    use serde::testing::{assert_enum_rejects_malformed, assert_struct_rejects_malformed};
    use std::sync::Arc;

    /// One wire line per request kind, as the parent of the derived
    /// decoders (commit fb5dfe3) wrote them, the seed re-spelled from hex
    /// (`"2a"`) to a plain number.
    const REQUEST_LINES: [&str; 5] = [
        r#"{"SubmitSweep":{"spec":{"apps":"jacobi,nstream","scale":"small","policies":"dfifo,rgp-las:w=512","backend":"simulated","seed":42,"reps":2},"stream":true}}"#,
        r#"{"Status":{"job":7}}"#,
        r#"{"CancelJob":{"job":2}}"#,
        r#""Stats""#,
        r#""Shutdown""#,
    ];

    /// The same for every response kind; `Report` embeds multi-line pretty
    /// JSON with escapes of its own.
    const RESPONSE_LINES: [&str; 9] = [
        r#"{"Submitted":{"job":1,"cached":false}}"#,
        r#"{"Progress":{"job":1,"completed":3,"total":32,"application":"Jacobi","policy":"RGP+LAS","repetition":0}}"#,
        r#"{"Report":{"job":1,"cache_hit":true,"executed_cells":0,"hydrated_cells":12,"report_json":"{\n  \"machine\": \"bullion_s16\",\n  \"s\": \"x\\\"y\"\n}"}}"#,
        r#"{"JobStatus":{"job":1,"state":"running","completed":3,"total":32}}"#,
        r#"{"Cancelled":{"job":2}}"#,
        r#"{"Overloaded":{"queued_cells":4096,"limit":4096}}"#,
        r#"{"Stats":{"jobs_submitted":3,"jobs_coalesced":1,"jobs_completed":2,"jobs_cancelled":4,"jobs_failed":5,"jobs_rejected":6,"requests_malformed":7,"executed_cells_total":64,"cells_hydrated_total":40,"report_cache_entries":2,"report_cache_capacity":256,"report_cache_hits":9,"report_cache_misses":3,"report_cache_evictions":1,"cell_cache_entries":72,"cell_cache_capacity":65536,"cell_cache_hits":40,"cell_cache_misses":72,"cell_cache_evictions":0,"pool_workers":3,"spec_cache_builds":8,"spec_cache_hits":100,"spec_cache_entries":8,"jobs_in_flight":1,"jobs_tracked":2,"jobs_retired":5}}"#,
        r#"{"Error":{"message":"unknown scale 'huge'"}}"#,
        r#""ShuttingDown""#,
    ];

    /// The three job gauges `Stats` gained after its first release.
    const LATE_STATS: &str = r#","jobs_in_flight":1,"jobs_tracked":2,"jobs_retired":5"#;

    #[test]
    fn the_parents_wire_lines_decode_and_re_encode_byte_for_byte() {
        for line in REQUEST_LINES {
            let request = Request::from_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(to_line(&request), line);
        }
        for line in RESPONSE_LINES {
            let response = Response::from_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(to_line(&response), line);
        }
        // The embedded report survives byte-exactly, so clients can `cmp`
        // it against baselines.
        match Response::from_line(RESPONSE_LINES[2]).unwrap() {
            Response::Report { report_json, .. } => assert_eq!(
                report_json,
                "{\n  \"machine\": \"bullion_s16\",\n  \"s\": \"x\\\"y\"\n}"
            ),
            other => panic!("expected Report, got {other:?}"),
        }
        // What a daemon predating the three job gauges sends still parses,
        // the gauges reading zero.
        let new = Response::from_line(RESPONSE_LINES[6]).unwrap();
        let old = RESPONSE_LINES[6].replace(LATE_STATS, "");
        assert_ne!(old, RESPONSE_LINES[6]);
        match (new, Response::from_line(&old).unwrap()) {
            (Response::Stats(new), Response::Stats(old)) => assert_eq!(
                old,
                ServerStats {
                    jobs_in_flight: 0,
                    jobs_tracked: 0,
                    jobs_retired: 0,
                    ..new
                }
            ),
            other => panic!("expected two Stats, got {other:?}"),
        }
    }

    /// The `Report` line [`push_report_line`] writes for `report`.
    fn report_line(counters: [u64; 3], cache_hit: bool, report: &str) -> String {
        let [job, executed_cells, hydrated_cells] = counters;
        let mut line = String::new();
        push_report_line(
            &mut line,
            job,
            cache_hit,
            executed_cells,
            hydrated_cells,
            &report_wire_form(report),
        );
        line
    }

    /// Decodes [`report_line`] and checks it against the `Report` it was
    /// written from.
    fn assert_report_round_trips(counters: [u64; 3], cache_hit: bool, report: &str) {
        let line = report_line(counters, cache_hit, report);
        assert!(!line.contains('\n'), "one frame");
        let [job, executed_cells, hydrated_cells] = counters;
        assert_eq!(
            Response::from_line(&line),
            Ok(Response::Report {
                job,
                cache_hit,
                executed_cells,
                hydrated_cells,
                report_json: report.to_string(),
            }),
            "{line:?}"
        );
    }

    /// The reports the daemon serves, and strings with every escape the
    /// derived spelling needs.
    fn sample_reports() -> Vec<String> {
        let mut reports: Vec<String> = [
            include_str!("../../../BENCH_figure1_tiny.json"),
            include_str!("../../../BENCH_figure1_small.json"),
            include_str!("../../../BENCH_figure1_full.json"),
            "",
            "\"quoted\" \\back\\slashed\\",
            "héllo ∑ 日本語 🦀\u{7f}\u{2028}",
        ]
        .map(String::from)
        .into();
        reports.push(
            (0u8..0x20)
                .filter(|&b| b != b'\r')
                .map(char::from)
                .collect(),
        );
        reports
    }

    #[test]
    fn a_report_line_embeds_the_report_raw_and_decodes_back() {
        let report = "{\n  \"machine\": \"bullion_s16\",\n  \"s\": \"x\\\"y\"\n}";
        assert_eq!(
            report_line([1, 0, 12], true, report),
            "{\"Report\":{\"job\":1,\"cache_hit\":true,\"executed_cells\":0,\"hydrated_cells\":12,\
             \"report_bytes\":45,\"report\":{\r  \"machine\": \"bullion_s16\",\r  \"s\": \"x\\\"y\"\r}}}"
        );
        // The line is JSON: the derived decoder reads it as a `Report`
        // without `report_json`, and a tree holding the report.
        let tree = serde_json::from_str(&report_line([1, 0, 12], true, report)).unwrap();
        assert_eq!(
            tree.get("Report").unwrap().get("report"),
            Some(&serde_json::from_str(report).unwrap())
        );
        let counters = [
            [1, 0, 0],
            [7, 40, 0],
            [0, 8, 40],
            [(1 << 53) - 1, 1 << 53, 0],
        ];
        for report in sample_reports() {
            for (counters, cache_hit) in counters.iter().zip([true, false, false, true]) {
                assert_report_round_trips(*counters, cache_hit, &report);
            }
        }
        // The hot reply of the benchmark: the Full report is 16,501 bytes
        // and the line adds only its header.
        let full = include_str!("../../../BENCH_figure1_full.json");
        let line = report_line([3, 0, 0], true, full);
        assert_eq!(line.len(), full.len() + 106);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn any_report_line_decodes_to_the_report_it_was_written_from(
            chars in proptest::prop::collection::vec(proptest::prop::char::any(), 0..64),
            baseline in 0usize..4,
            job in 0u64..(1 << 53),
            executed_cells in 0u64..4096,
            hydrated_cells in 0u64..4096,
            cache_hit in 0u8..2,
        ) {
            // Generated strings without a raw CR, or one of the baselines.
            let report: String = match baseline {
                0..=2 => sample_reports().swap_remove(baseline),
                _ => chars.into_iter().filter(|&c| c != '\r').collect(),
            };
            assert_report_round_trips([job, executed_cells, hydrated_cells], cache_hit == 1, &report);
        }
    }

    /// Every way a raw `Report` line can be wrong is an error that names
    /// it: never a panic, never a partial report.
    #[test]
    fn a_bad_report_line_is_an_error_that_names_the_problem() {
        let good = report_line([1, 0, 12], true, "{\"é\": 1}");
        assert!(
            good.contains(r#""report_bytes":9,"report":{"é": 1}}}"#),
            "{good}"
        );
        let bad = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            good.replacen(from, to, 1)
        };
        let rows = [
            // The stated length runs past the line, or splits the `é`.
            (
                bad(":9,", ":12,"),
                "Report.report: 12 raw bytes run past the input",
            ),
            (bad(":9,", ":99999999999999,"), "run past the input"),
            (bad(":9,", ":3,"), "end inside a character"),
            // Too short a length leaves report bytes where `}}` must be.
            (bad(":9,", ":8,"), "must end with `}}`"),
            (bad("}}}", "} }}"), "must end with `}}`"),
            (bad("}}}", "}},\"x\":1}"), "must end with `}}`"),
            (bad("}}}", "}}}}"), "must end with `}}`"),
            (bad("}}}", "}}"), "must end with `}}`"),
            (good.clone() + " x", "must end with `}}`"),
            // A header field missing or mistyped.
            (bad(r#""job":1,"#, ""), r#"Report is missing field "job""#),
            (
                bad(r#""cache_hit":true"#, r#""cache_hit":1"#),
                "Report.cache_hit",
            ),
            (
                bad(r#""executed_cells":0"#, r#""executed_cells":-1"#),
                "Report.executed_cells",
            ),
            (
                bad(r#""hydrated_cells":12"#, r#""hydrated_cells":"c""#),
                "Report.hydrated_cells",
            ),
            // `report_bytes` that is no length.
            (
                bad(":9,", ":-1,"),
                "Report.report_bytes: must be an unsigned integer",
            ),
            (
                bad(":9,", ":1.5,"),
                "Report.report_bytes: must be an unsigned integer",
            ),
            (
                bad(":9,", ":1e999,"),
                "Report.report_bytes: must be an unsigned integer",
            ),
            (
                bad(":9,", ":\"10\","),
                "Report.report_bytes: must be an unsigned integer",
            ),
            (bad(":9,", ":,"), "Report.report_bytes"),
            // `report` must follow it.
            (
                bad(r#""report":"#, r#""r":"#),
                "Report.report must follow report_bytes",
            ),
            (
                bad(r#","report":{"é": 1}"#, ""),
                "Report.report must follow report_bytes",
            ),
        ];
        for (line, says) in rows {
            match Response::from_line(&line) {
                Err(error) => assert!(error.contains(says), "{line}: {error}"),
                Ok(response) => panic!("{line} decoded to {response:?}"),
            }
        }
        // Cut anywhere, the line is an error.
        for cut in (0..good.len()).filter(|&cut| good.is_char_boundary(cut)) {
            assert!(Response::from_line(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_malformed_message_is_an_error_that_names_what_is_wrong() {
        let optional = [
            "stream", "apps", "scale", "policies", "backend", "seed", "reps",
        ];
        for line in REQUEST_LINES {
            assert_enum_rejects_malformed(line, &optional, serde::decode::<Request>);
        }
        let late = ["jobs_in_flight", "jobs_tracked", "jobs_retired"];
        for line in RESPONSE_LINES {
            assert_enum_rejects_malformed(line, &late, serde::decode::<Response>);
        }
        let stats = serde_json::to_string(&ServerStats::default()).unwrap();
        assert_struct_rejects_malformed(&stats, &late, serde::decode::<ServerStats>);
        assert!(Request::from_line("not json").is_err());
        assert!(Response::from_line("{\"Stats\":").is_err());
    }

    /// The plan serve builds for `spec` on the paper's machine, and the
    /// cell keys it reads off that plan.
    fn planned(spec: &SweepSpec, specs: &Arc<SpecCache>) -> (SweepPlan, Vec<u64>) {
        let sweep = spec.resolve().unwrap();
        let plan = sweep
            .experiment(Topology::bullion_s16(), Arc::clone(specs))
            .plan();
        let keys = cell_keys(&plan, &sweep, specs, 8);
        (plan, keys)
    }

    fn keys_of(spec: SweepSpec, specs: &Arc<SpecCache>) -> Vec<u64> {
        planned(&spec, specs).1
    }

    #[test]
    fn equivalent_policy_spellings_share_a_fingerprint() {
        let specs = Arc::new(SpecCache::new());
        let a = SweepSpec {
            policies: "rgp-las:scheme=rb,w=512".to_string(),
            ..SweepSpec::default()
        };
        let b = SweepSpec {
            policies: "RGP+LAS:w=512,scheme=rb".to_string(),
            ..SweepSpec::default()
        };
        let c = SweepSpec {
            policies: "rgp-las:w=256".to_string(),
            ..SweepSpec::default()
        };
        let fa = sweep_fingerprint(&a.resolve().unwrap(), &specs, 2);
        let fb = sweep_fingerprint(&b.resolve().unwrap(), &specs, 2);
        let fc = sweep_fingerprint(&c.resolve().unwrap(), &specs, 2);
        assert_eq!(fa, fb, "reordered params must share a cache key");
        assert_ne!(fa, fc, "different windows must not collide");
        // The base a propagation knob was typed on is spelling too: the two
        // sweeps share every cell, not only the report.
        let [las_base, rr_base] = ["rgp-las:prop=repart", "rgp-rr:prop=repart"].map(|policies| {
            let spec = SweepSpec {
                policies: policies.to_string(),
                ..SweepSpec::default()
            };
            keys_of(spec, &specs)
        });
        assert_eq!(las_base, rr_base);
    }

    #[test]
    fn fingerprint_tracks_seed_backend_reps_and_scale() {
        let specs = SpecCache::new();
        let base = SweepSpec::default().resolve().unwrap();
        let fp = sweep_fingerprint(&base, &specs, 2);
        let mut seeded = base.clone();
        seeded.seed = 1;
        assert_ne!(fp, sweep_fingerprint(&seeded, &specs, 2));
        let mut reps = base.clone();
        reps.reps = 3;
        assert_ne!(fp, sweep_fingerprint(&reps, &specs, 2));
        let mut backend = base.clone();
        backend.backend = Backend::Threaded;
        assert_ne!(fp, sweep_fingerprint(&backend, &specs, 2));
        let mut scale = base.clone();
        scale.scale = ProblemScale::Small;
        assert_ne!(fp, sweep_fingerprint(&scale, &specs, 2));
        assert_ne!(
            fp,
            sweep_fingerprint(&base, &specs, 4),
            "socket count matters"
        );
    }

    #[test]
    fn cell_keys_are_distinct_and_cover_every_cell() {
        let (plan, keys) = planned(&SweepSpec::default(), &Arc::new(SpecCache::new()));
        assert_eq!(keys.len(), plan.num_jobs());
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "cell keys must not collide");
    }

    /// The sweeps of [`GOLDEN_KEYS`], in its order.
    fn golden_specs() -> [SweepSpec; 5] {
        let policies = |policies: &str| SweepSpec {
            policies: policies.to_string(),
            ..SweepSpec::default()
        };
        [
            SweepSpec::default(),
            SweepSpec {
                scale: "full".to_string(),
                ..policies("dfifo,rgp-las,rgp-las:prop=repart,ep")
            },
            policies("rgp-rr:prop=repart"),
            policies("rgp-las:w=512,scheme=rb"),
            SweepSpec {
                reps: 2,
                ..SweepSpec::default()
            },
        ]
    }

    /// The sweep fingerprint and every cell key of each golden sweep on the
    /// paper's machine. They key the report cache, the cell cache and every
    /// `--cache-file`: a drift silently flushes them all. Re-captured with
    /// cache file version 3, when the hash became word-at-a-time, from the
    /// table of commit 2530d38: the new keys map one to one onto the old,
    /// so the same cells share a key as before.
    #[rustfmt::skip]
    const GOLDEN_KEYS: [(u64, &[u64]); 5] = [
        (0xdd56c3586f2feddc, &[
            0x1f6183c0bb2b7263, 0xfca62a93d5464235, 0x2b080ef95edbef4b, 0x4cacd9bec846e38e,
            0x0bf123ac3286235f, 0x4caef7de4a70237b, 0xc04cf080862e119d, 0xdbf783a689bb3e40,
            0xccf7fd6f7303dab1, 0xe868fb6871bd6872, 0xc41dc7b858c97b54, 0xeaa4a9668d3de59d,
            0x8c7cb0ad6cf7f4d3, 0x2d416ce79718b8e0, 0xdbb8ce8ba6d051b1, 0x061910890037572d,
            0xbd48cdd2d6b7618d, 0xce4edf5f8a334952, 0x3b4ff8efad652c15, 0xa8db645893f41702,
            0xd9ed8ec73465726c, 0x4ecd00934b7143d3, 0x569c01e505b1cc6a, 0xd396a7ffd35b42a4,
            0x1b1cf0ae42ddae5b, 0x845b16557f99e801, 0x8f18865dbe28473d, 0x243cbd3a752742c1,
            0x9ef97df62e81d213, 0x5f0e58beabe1c9d4, 0xeea640a383ff83c1, 0xe6655376294ba265,
        ]),
        (0xe5f3191f2392bce7, &[
            0xff3417762898a62d, 0x2f5553f1a3f97faa, 0x7a0fc59fb893f905, 0x622db7e25ee4cd5d,
            0x167f5c51d49ee5f5, 0x30d9f27e20666c2f, 0xee15ab8047b24bef, 0x2fcb1674559899dc,
            0x1ddcbeb30c0a3e8d, 0x8a03ef0647428501, 0xf5dbe90ca5cb5445, 0x6b5a84461a0f390e,
            0xd513a629bf32a157, 0x827d922d26c90cb9, 0x68f1d0ca2bac4fc3, 0x1580b11688aafe85,
            0x06b1512f2a5d01e6, 0x3d4bd95e24eb38b6, 0x8fabd5c3569d2edb, 0x5f201a3999e02d54,
            0x5a2028d494481dcc, 0xf5cfe92d946547d8, 0xffa9ec64a2de8915, 0x8a56bde973e3e69e,
            0x6d7f88034689f004, 0x4b979b32cee82966, 0x1efcb1f43bb85511, 0xfa6252b35bafb593,
            0x3f150af35acc0a00, 0xe7950ff939839cc6, 0x8367d2218ba5a95c, 0x6bbbde395ff7c72a,
            0x92a24b7dd15205e9, 0x3aee909939a49b37, 0x7f7128bcd016b9ad, 0x020fdf1d82c57d12,
            0x7da42476640e9e59, 0x61abc66ed3e73a33, 0x7e2e0e086d4d0873, 0xdf5194751c073c5f,
        ]),
        (0x3029012eb0d5258e, &[
            0x8699d63ff0d3855f, 0x4cacd9bec846e38e, 0xc4159c56534599aa, 0xdbf783a689bb3e40,
            0x4f17d15423bff21e, 0xeaa4a9668d3de59d, 0x3fe3818e048eb125, 0x061910890037572d,
            0x6bb3023614c65048, 0xa8db645893f41702, 0xe1c46e71c25c63e6, 0xd396a7ffd35b42a4,
            0xf843298059aa657f, 0x243cbd3a752742c1, 0x32ce4b087d1e9bfa, 0xe6655376294ba265,
        ]),
        (0xc3433274c93ec26e, &[
            0x7673dac477720ceb, 0x4cacd9bec846e38e, 0x02b83eb89d0c422b, 0xdbf783a689bb3e40,
            0x308245a90ad53bfc, 0xeaa4a9668d3de59d, 0x424b7d9ce1d8152c, 0x061910890037572d,
            0x94483520b7cf80ce, 0xa8db645893f41702, 0xbcecac99dbced5c2, 0xd396a7ffd35b42a4,
            0xe54b70a833056d2f, 0x243cbd3a752742c1, 0x96b3ea73d7953b6b, 0xe6655376294ba265,
        ]),
        (0xbf3462e929368259, &[
            0x1f6183c0bb2b7263, 0xa6f6df1db98db1d0, 0xfca62a93d5464235, 0xd1e8609bc560c257,
            0x2b080ef95edbef4b, 0x1a692bfa5f5bad7f, 0x4cacd9bec846e38e, 0xcf7bff93f5d807cc,
            0x0bf123ac3286235f, 0x3588144722740927, 0x4caef7de4a70237b, 0x6acbf8ebca90af18,
            0xc04cf080862e119d, 0x75567da09e7fac3f, 0xdbf783a689bb3e40, 0xb943fad4b6458eb4,
            0xccf7fd6f7303dab1, 0x38e6388713b07a59, 0xe868fb6871bd6872, 0xc935145b69be935e,
            0xc41dc7b858c97b54, 0xb7e752fc6689d8d6, 0xeaa4a9668d3de59d, 0x369765b7f8b9d115,
            0x8c7cb0ad6cf7f4d3, 0x71627683e66d97e4, 0x2d416ce79718b8e0, 0x9a558a28adea4be9,
            0xdbb8ce8ba6d051b1, 0x27915cfb5de3c038, 0x061910890037572d, 0x1aa5b37b3e224584,
            0xbd48cdd2d6b7618d, 0xab5c791c8765feaa, 0xce4edf5f8a334952, 0x8bb747923af1cacf,
            0x3b4ff8efad652c15, 0x46a1e16384e48cee, 0xa8db645893f41702, 0x7f3696eaeba5a613,
            0xd9ed8ec73465726c, 0x9776fb01491f8ad0, 0x4ecd00934b7143d3, 0x78d38243065c53f9,
            0x569c01e505b1cc6a, 0x8494a45eedebd0ca, 0xd396a7ffd35b42a4, 0x3b81b86f115fd77b,
            0x1b1cf0ae42ddae5b, 0x3ce32bebf59044d4, 0x845b16557f99e801, 0xa6f65557191c34b3,
            0x8f18865dbe28473d, 0xc7a2dd1d4bb0e7ce, 0x243cbd3a752742c1, 0x22f801726cd4c1fa,
            0x9ef97df62e81d213, 0xd31ef75b565ed321, 0x5f0e58beabe1c9d4, 0xbd13e25408d114f5,
            0xeea640a383ff83c1, 0x0b42b6c31b7abdb7, 0xe6655376294ba265, 0x646b08357aef86e3,
        ]),
    ];

    #[test]
    fn the_parents_sweep_fingerprints_and_cell_keys_are_unchanged() {
        let specs = Arc::new(SpecCache::new());
        for (spec, (fingerprint, keys)) in golden_specs().into_iter().zip(GOLDEN_KEYS) {
            let sweep = spec.resolve().unwrap();
            assert_eq!(
                sweep_fingerprint(&sweep, &specs, 8),
                fingerprint,
                "{spec:?}"
            );
            assert_eq!(keys_of(spec, &specs), keys);
        }
    }

    #[test]
    fn overlapping_sweeps_share_exactly_their_common_cells() {
        let specs = Arc::new(SpecCache::new());
        let base = SweepSpec::default();
        let base_keys: std::collections::HashSet<u64> =
            keys_of(base.clone(), &specs).into_iter().collect();

        // A policy superset shares every base cell; only the new column's
        // cells (apps × reps) are novel.
        let wider = SweepSpec {
            policies: format!("{DEFAULT_POLICIES},rgp-las:prop=repart"),
            ..base.clone()
        };
        let wider_keys = keys_of(wider, &specs);
        let novel = wider_keys.iter().filter(|k| !base_keys.contains(k)).count();
        assert_eq!(novel, Application::all().len());

        // An app subset is entirely contained in the base sweep.
        let subset = SweepSpec {
            apps: "jacobi,nstream".to_string(),
            ..base.clone()
        };
        assert!(keys_of(subset, &specs)
            .iter()
            .all(|k| base_keys.contains(k)));

        // Added repetitions keep rep-0 cells and add only the rep-1 ones.
        let more_reps = SweepSpec {
            reps: 2,
            ..base.clone()
        };
        let rep_keys = keys_of(more_reps, &specs);
        let shared = rep_keys.iter().filter(|k| base_keys.contains(k)).count();
        assert_eq!(shared, base_keys.len());
        assert_eq!(rep_keys.len(), 2 * base_keys.len());

        // A different seed shares nothing.
        let reseeded = SweepSpec { seed: 1, ..base };
        assert!(keys_of(reseeded, &specs)
            .iter()
            .all(|k| !base_keys.contains(k)));
    }
}
