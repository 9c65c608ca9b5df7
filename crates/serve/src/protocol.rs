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
use numadag_runtime::{report_order, Fnv1a, SweepPlan};
use serde::{de, Deserialize, Reader, Serialize};

pub use numadag_runtime::{ResolvedSweep, SweepSpec, DEFAULT_POLICIES};

/// The content fingerprint of one sweep **cell** — the unit of the server's
/// cell cache. A cell's measurement depends only on the workload spec, the
/// policy, the sweep seed, the repetition index, the backend and the machine
/// topology, so two sweeps of different overall shapes (different app
/// subsets, policy supersets, added repetitions) that contain the same cell
/// share one entry.
///
/// Key schema (FNV-1a over, in order): workload spec fingerprint
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
    let mut hash = Fnv1a::default();
    hash.write_u64(spec_fp);
    // Each label ends in 0xff, so "ab"+"c" and "a"+"bc" hash differently.
    for label in [policy_label, backend_label] {
        hash.write_bytes(label.as_bytes());
        hash.write_byte(0xff);
    }
    for value in [seed, rep, num_sockets] {
        hash.write_u64(value);
    }
    hash.0
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
    let mut hash = Fnv1a::default();
    hash.write_bytes(sweep.backend.label().as_bytes());
    hash.write_byte(0xff);
    for value in [sweep.seed, sweep.reps as u64, num_sockets as u64] {
        hash.write_u64(value);
    }
    hash.write_u64(sweep.apps.len() as u64);
    for &app in &sweep.apps {
        hash.write_u64(specs.fingerprint(app, sweep.scale, num_sockets));
    }
    for policy in report_order(&sweep.policies, ResolvedSweep::BASELINE) {
        hash.write_bytes(policy.label().as_bytes());
        hash.write_byte(0xff);
    }
    hash.0
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
    fn golden_specs() -> [SweepSpec; 6] {
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
            SweepSpec {
                backend: "proc".to_string(),
                ..SweepSpec::default()
            },
        ]
    }

    /// The sweep fingerprint and every cell key of each golden sweep on the
    /// paper's machine, as commit 2530d38 computed them. They key the
    /// report cache, the cell cache and every `--cache-file`: a drift
    /// silently flushes them all.
    #[rustfmt::skip]
    const GOLDEN_KEYS: [(u64, &[u64]); 6] = [
        (0xfe129f8947b1cdab, &[
            0xa4ed673702fe656f, 0x71e6e101a80494c7, 0x164de305cb01c29c, 0xe0626dc8ac5d0fa1,
            0xa37c70876a25b422, 0xffcda7718529580e, 0x133aece36f0c967b, 0x9aa703517ab2bed8,
            0xb840d7cc57ca08e7, 0x1955395c8d869e9f, 0xde0b213b08df00c4, 0xf170f6d67082d149,
            0x08700f75dfbd89cd, 0xdc0abf2a39658da9, 0x627fe82ebc7ce60a, 0x6f9bcfe5ccae514f,
            0x002ee3d87974bf88, 0xe901e2bb431b0d80, 0xfbb45e44ee8d7771, 0x119d9979d6e6ce9e,
            0x86d311aceb576073, 0xb6a8ae251f42aaeb, 0x8a1c6211ff78f440, 0x94a086f12d02697d,
            0xa962cc1bf1d03d38, 0xdca328cadb119d10, 0xe997848ecaa08021, 0xfe572be02ca7692e,
            0xf341392d6f1eb92b, 0xdffd06bc26429023, 0x3834d3153e8e4be8, 0x8f29d8591cebd005,
        ]),
        (0xef0d12f62ede757b, &[
            0x9460962ed271eb28, 0x18feb075f1b81be0, 0xaaaec2cf88e31b5e, 0xf279cef5f74d41d1,
            0x716663f89a988bbe, 0x9e970cc24050ce34, 0x77aa6b309cb246ec, 0x6747edc245fd57fa,
            0x25df7fbc80d1ab4d, 0x0281eafed467cc32, 0x9fcb3eee2e72928d, 0xc5651d8980edd2e9,
            0x512da7b5b0960477, 0x19f54569f7747bca, 0xf4ec42f13ceeb00f, 0x8253384effd9880c,
            0xb15e2139ea62abc4, 0x7c04f181ff7dfd02, 0x115fe511ac9fb775, 0xd5edf9b5d55d14fa,
            0xc8a8dbcc25b5beab, 0xbe3ea0dff1136da3, 0x616f77d844112cb5, 0xebc419d7a77b7068,
            0x553afe4699765185, 0xc9ca961a88621b78, 0x61c8efbdf4045fd0, 0xbc54d255115c396e,
            0xd32d491e3e713c61, 0xbb4956bb9e09b96e, 0x877d59c9840a8def, 0xdc3b41f8077ee947,
            0x12dd64abbfa75289, 0xf1c6d79ffe2cd01c, 0xb0c8818999287621, 0xc49d0033f2f70767,
            0x2104891c8b9ecf1f, 0x008508bfb0244a11, 0xe132513c1d47dc44, 0x35da403c387341c9,
        ]),
        (0xe3b095f60d7caaac, &[
            0x785810f4dc5ae609, 0xe0626dc8ac5d0fa1, 0x009780aad0d649c0, 0x9aa703517ab2bed8,
            0xf3373d6b4639cf91, 0xf170f6d67082d149, 0xc358a1d394668237, 0x6f9bcfe5ccae514f,
            0x53882530297b2f7e, 0x119d9979d6e6ce9e, 0x47d7e2577108cf0d, 0x94a086f12d02697d,
            0x228fc1fcf13c61ae, 0xfe572be02ca7692e, 0x63028f290481fd35, 0x8f29d8591cebd005,
        ]),
        (0x35c3ed35d6121586, &[
            0x83473966b1c400e7, 0xe0626dc8ac5d0fa1, 0x6b813c478a19f0be, 0x9aa703517ab2bed8,
            0x8d9a5359f1b9eabf, 0xf170f6d67082d149, 0xfdba28a5ac1a851d, 0x6f9bcfe5ccae514f,
            0xf3a6fb3f30130c3c, 0x119d9979d6e6ce9e, 0x346427c7a98497db, 0x94a086f12d02697d,
            0x4c2682152ae1606c, 0xfe572be02ca7692e, 0x41a744afef6d32b3, 0x8f29d8591cebd005,
        ]),
        (0xd369bdaca6b0b452, &[
            0xa4ed673702fe656f, 0x55ef516eefe94d2e, 0x71e6e101a80494c7, 0x22e8cb3994ef7c86,
            0x164de305cb01c29c, 0x654bf8cdde16dadd, 0xe0626dc8ac5d0fa1, 0x916458009947f760,
            0xa37c70876a25b422, 0xf27a864f7d3acc63, 0xffcda7718529580e, 0x4ecbbd39983e704f,
            0x133aece36f0c967b, 0xc43cd71b5bf77e3a, 0x9aa703517ab2bed8, 0xe9a519198dc7d719,
            0xb840d7cc57ca08e7, 0x6942c20444b4f0a6, 0x1955395c8d869e9f, 0xca5723947a71865e,
            0xde0b213b08df00c4, 0x2d0937031bf41905, 0xf170f6d67082d149, 0xa272e10e5d6db908,
            0x08700f75dfbd89cd, 0xb971f9adcca8718c, 0xdc0abf2a39658da9, 0x8d0ca96226507568,
            0x627fe82ebc7ce60a, 0xb17dfdf6cf91fe4b, 0x6f9bcfe5ccae514f, 0x209dba1db999390e,
            0x002ee3d87974bf88, 0x4f2cf9a08c89d7c9, 0xe901e2bb431b0d80, 0x37fff883563025c1,
            0xfbb45e44ee8d7771, 0xacb6487cdb785f30, 0x119d9979d6e6ce9e, 0x609baf41e9fbe6df,
            0x86d311aceb576073, 0x37d4fbe4d8424832, 0xb6a8ae251f42aaeb, 0x67aa985d0c2d92aa,
            0x8a1c6211ff78f440, 0xd91a77da128e0c81, 0x94a086f12d02697d, 0x45a2712919ed513c,
            0xa962cc1bf1d03d38, 0xf860e1e404e55579, 0xdca328cadb119d10, 0x2ba13e92ee26b551,
            0xe997848ecaa08021, 0x9a996ec6b78b67e0, 0xfe572be02ca7692e, 0x4d5541a83fbc816f,
            0xf341392d6f1eb92b, 0xa44323655c09a0ea, 0xdffd06bc26429023, 0x90fef0f4132d77e2,
            0x3834d3153e8e4be8, 0x8732e8dd51a36429, 0x8f29d8591cebd005, 0x402bc29109d6b7c4,
        ]),
        (0xdc1e678bac109d27, &[
            0x38e6b028150b0739, 0xaba41e1c26da8ff1, 0xbbea5e9a96f95174, 0xc03cf24d3a06b71f,
            0xf258ecd0ea9cdf0e, 0xc3ba21934dd01952, 0x8f91d14adfe22c3d, 0x1eda0142f9be2548,
            0x6bb9335e0438aa91, 0x3625859a69642dc9, 0x1b30e252e3159b9c, 0xf711ffcdd22ebc07,
            0xca42b999d7c7ac13, 0x12496c91e265efe7, 0x1d1b3d86e3752e96, 0xbc2dce913e887399,
            0x15c953b2b150ac98, 0xdc8b129e9c15da30, 0x21e3e4927c429e8f, 0xa82288e15df11002,
            0xe4bc56d907bf3595, 0x8e21c9b1351b4ccd, 0x271a324ca421eff0, 0xe621e94c2f0599a3,
            0x9781dde454896b28, 0xcda9cfd7bce57ce0, 0xd39c289ea5aabc9f, 0xe7c6369a771a32f2,
            0x09941421c2b5000d, 0xcb71b879eb09cd25, 0x940630e8bc9b9878, 0x387e1b17d868642b,
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
