//! numadag-serve: the session of `serve_mix` over a raw socket, every
//! request spelled out as `ServeClient::submit` does it (encode, exchange,
//! decode) with a span around each part, beside direct round-trip probes
//! with pre-encoded request lines and the daemon's own counters.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use numadag::kernels::SpecCache;
use numadag::runtime::framing::read_frame;
use numadag::serve::protocol::{to_line, Request, Response};
use numadag::serve::{ServeClient, ServerStats, SweepSpec};

use super::{median_ms, time_ms};
use crate::metrics::Metrics;
use crate::seeds::{Session, SessionScript, Stream, HOT_PER_SESSION, NOVEL_POLICIES};
use crate::spans::{Span, SpanBuffer, SpanId, NO_PARENT};
use crate::stats::median;
use crate::workloads::note_failure;
use crate::workloads::serve_mix::{
    check_session, hot_spec, in_process, novel_spec, run_session, submit, widen_spec, Reply,
    Service, SessionReplies,
};

/// One connection without a client library on top.
pub struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    pub fn connect(addr: &str) -> RawConn {
        let stream = TcpStream::connect(addr).expect("the daemon accepts connections");
        stream.set_nodelay(true).expect("TCP_NODELAY can be set");
        RawConn {
            writer: stream.try_clone().expect("the socket can be cloned"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one pre-encoded request line and reads `replies` reply lines.
    pub fn exchange(&mut self, line: &str, replies: usize) -> Vec<String> {
        self.writer
            .write_all(line.as_bytes())
            .expect("the daemon reads requests");
        (0..replies)
            .map(|_| {
                read_frame(&mut self.reader)
                    .expect("the daemon answers in frames")
                    .expect("the daemon keeps the connection open")
            })
            .collect()
    }
}

fn submit_line(spec: SweepSpec) -> String {
    let mut line = to_line(&Request::SubmitSweep {
        spec,
        stream: false,
    });
    line.push('\n');
    line
}

fn stats_line() -> String {
    let mut line = to_line(&Request::Stats);
    line.push('\n');
    line
}

fn decode_report(lines: &[String]) -> Reply {
    match lines.last().map(|l| Response::from_line(l)) {
        Some(Ok(Response::Report {
            cache_hit,
            executed_cells,
            hydrated_cells,
            report_json,
            ..
        })) => Reply {
            cache_hit,
            executed_cells,
            hydrated_cells,
            report_json,
        },
        other => panic!("expected a Report line, got {other:?}"),
    }
}

/// One submit as `ServeClient::submit` does it, in three spans.
fn traced_submit(
    conn: &mut RawConn,
    buf: &mut SpanBuffer,
    step: &'static str,
    session: SpanId,
    op_id: u32,
    spec: SweepSpec,
) -> Reply {
    let step = buf.open(step, session, op_id);
    let span = buf.open("serve.client_encode", step, op_id);
    let line = submit_line(spec);
    buf.close(span);
    let span = buf.open("serve.exchange", step, op_id);
    let lines = conn.exchange(&line, 2); // Submitted, then Report
    buf.close(span);
    let span = buf.open("serve.client_decode", step, op_id);
    let submitted = Response::from_line(&lines[0]);
    assert!(
        matches!(submitted, Ok(Response::Submitted { .. })),
        "expected Submitted, got {submitted:?}"
    );
    let reply = decode_report(&lines);
    buf.close(span);
    buf.close(step);
    reply
}

/// The session of `serve_mix`, by hand, under one root span.
pub fn traced_session(
    conn: &mut RawConn,
    buf: &mut SpanBuffer,
    op_id: u32,
    session: &Session,
) -> SessionReplies {
    let root = buf.open("op", NO_PARENT, op_id);
    let novel = traced_submit(
        conn,
        buf,
        "serve.step.novel",
        root,
        op_id,
        novel_spec(session),
    );
    let widen = traced_submit(
        conn,
        buf,
        "serve.step.widen",
        root,
        op_id,
        widen_spec(session),
    );
    let hot = (0..HOT_PER_SESSION)
        .map(|_| traced_submit(conn, buf, "serve.step.hot", root, op_id, hot_spec()))
        .collect();
    let step = buf.open("serve.step.stats", root, op_id);
    let span = buf.open("serve.client_encode", step, op_id);
    let line = stats_line();
    buf.close(span);
    let span = buf.open("serve.exchange", step, op_id);
    let lines = conn.exchange(&line, 1);
    buf.close(span);
    let span = buf.open("serve.client_decode", step, op_id);
    let stats = match Response::from_line(&lines[0]) {
        Ok(Response::Stats(stats)) => stats,
        other => panic!("expected Stats, got {other:?}"),
    };
    buf.close(span);
    buf.close(step);
    buf.close(root);
    SessionReplies {
        novel,
        widen,
        hot,
        stats,
    }
}

/// What one client thread of the session loop brings back.
pub struct ClientTrace {
    pub buf: SpanBuffer,
    /// Walls of the untraced (`ServeClient`) sessions, ms.
    pub untraced_ms: Vec<f64>,
    /// Failure lines (bounded) and how many sessions failed the oracle.
    pub failures: Vec<String>,
    pub failed_sessions: usize,
    /// Simulated tasks the daemon executed for this client's sessions.
    pub sim_tasks: u64,
}

/// Runs both clients' session loops for `budget_s` seconds. With
/// `alternate`, every other block of eight sessions (one turn through the
/// applications, whose sweeps cost differently) goes through `ServeClient`
/// untraced, so the two medians give the span overhead.
pub fn session_loop(
    service: &mut Service,
    benchmark_seed: u64,
    budget_s: f64,
    alternate: bool,
    epoch: Instant,
) -> Vec<ClientTrace> {
    let addr = service.handle.addr().to_string();
    let scripts = [
        SessionScript::new(benchmark_seed, Stream::TracedServe, 0),
        SessionScript::new(benchmark_seed, Stream::TracedServeB, 1),
    ];
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .zip(scripts)
            .map(|(client, mut script)| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut conn = RawConn::connect(&addr);
                    let mut out = ClientTrace {
                        buf: SpanBuffer::with_capacity(epoch, 1 << 17),
                        untraced_ms: Vec::new(),
                        failures: Vec::new(),
                        failed_sessions: 0,
                        sim_tasks: 0,
                    };
                    let mut traced_ops = 0u32;
                    let mut index = 0usize;
                    while started.elapsed().as_secs_f64() < budget_s {
                        let session = script.next_session();
                        let replies = if alternate && (index / 8).is_multiple_of(2) {
                            let (replies, wall_ms) = time_ms(|| run_session(client, &session));
                            out.untraced_ms.push(wall_ms);
                            replies
                        } else {
                            traced_ops += 1;
                            traced_session(&mut conn, &mut out.buf, traced_ops - 1, &session)
                        };
                        match check_session(&replies) {
                            Ok(tasks) => out.sim_tasks += tasks,
                            Err(e) => {
                                out.failed_sessions += 1;
                                note_failure(&mut out.failures, format!("session {index}: {e}"))
                            }
                        }
                        index += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The per-step medians and the daemon's counters after a session loop.
pub fn loop_metrics(m: &mut Metrics, traces: &[ClientTrace], stats: &ServerStats) {
    let step_ms = |name: &str| {
        let walls: Vec<f64> = traces
            .iter()
            .flat_map(|t| t.buf.spans())
            .filter(|s| s.name == name)
            .map(|s: &Span| s.duration_ns() as f64 / 1e6)
            .collect();
        median(&walls)
    };
    m.set("serve.step_ms_p50.novel", step_ms("serve.step.novel"));
    m.set("serve.step_ms_p50.widen", step_ms("serve.step.widen"));
    m.set("serve.step_ms_p50.hot", step_ms("serve.step.hot"));
    m.set("serve.step_ms_p50.stats", step_ms("serve.step.stats"));

    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    m.set(
        "serve.report_cache_hit_ratio",
        ratio(stats.report_cache_hits, stats.report_cache_misses),
    );
    m.set(
        "serve.cell_cache_hit_ratio",
        ratio(stats.cell_cache_hits, stats.cell_cache_misses),
    );
    m.set(
        "serve.report_cache_evictions",
        stats.report_cache_evictions as f64,
    );
    m.set(
        "serve.cell_cache_evictions",
        stats.cell_cache_evictions as f64,
    );
    m.set("serve.executed_cells", stats.executed_cells_total as f64);
    m.set("serve.hydrated_cells", stats.cells_hydrated_total as f64);
    m.set("serve.jobs_coalesced", stats.jobs_coalesced as f64);
    m.set("serve.jobs_rejected", stats.jobs_rejected as f64);
    m.set("serve.jobs_failed", stats.jobs_failed as f64);
    m.set("serve.requests_malformed", stats.requests_malformed as f64);
}

/// Direct probes against a warmed daemon: raw round trips with pre-encoded
/// lines (no client encode or decode), the same hot submit through
/// `ServeClient`, and the novel step's cost over the same sweep in-process.
pub fn direct(m: &mut Metrics, service: &mut Service, benchmark_seed: u64) {
    let mut conn = RawConn::connect(&service.handle.addr().to_string());
    let stats = stats_line();
    m.set(
        "serve.stats_rtt_us",
        1e3 * median_ms(1000, || {
            std::hint::black_box(conn.exchange(&stats, 1));
        }),
    );
    let hot = submit_line(hot_spec());
    let raw_hot_us = 1e3
        * median_ms(500, || {
            std::hint::black_box(conn.exchange(&hot, 2));
        });
    m.set("serve.hot_rtt_us", raw_hot_us);
    m.set(
        "serve.hot_response_bytes",
        conn.exchange(&hot, 2)[1].len() as f64,
    );
    let client: &mut ServeClient = &mut service.clients[0];
    let client_hot_us = 1e3
        * median_ms(500, || {
            std::hint::black_box(submit(client, hot_spec()));
        });
    m.set("serve.hot_client_overhead_us", client_hot_us - raw_hot_us);

    // The novel step against the same one-app Small sweep run in-process on
    // a warm spec cache (the daemon's is warm too).
    let cache = Arc::new(SpecCache::new());
    let mut script = SessionScript::new(benchmark_seed, Stream::ProbeServe, 0);
    let (mut local_ms, mut served_ms) = (Vec::new(), Vec::new());
    for round in 0..6 {
        for _ in 0..8 {
            let session = script.next_session();
            let (local, l_ms) = time_ms(|| in_process(&session, NOVEL_POLICIES, &cache));
            let (served, s_ms) = time_ms(|| submit(client, novel_spec(&session)));
            assert_eq!(local, served.report_json, "served and direct runs differ");
            if round > 0 {
                // Round 0 builds the eight Small specs on the local cache.
                local_ms.push(l_ms);
                served_ms.push(s_ms);
            }
        }
    }
    m.set(
        "serve.novel_overhead_ms",
        median(&served_ms) - median(&local_ms),
    );
}

/// `serve.boot_ms`: bind, spawn the accept and pool threads, connect the
/// clients. Shutting down is not part of booting.
pub fn boot(m: &mut Metrics) {
    let mut walls = Vec::new();
    for _ in 0..5 {
        let (service, wall_ms) = time_ms(Service::boot);
        walls.push(wall_ms);
        service.shut_down();
    }
    m.set("serve.boot_ms", median(&walls));
}
