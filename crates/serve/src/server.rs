//! The newline-delimited-JSON front-end: one request per input line, one
//! reply per output line, replies in submission order.
//!
//! The reader thread parses and submits as fast as input arrives — that
//! is what gives the micro-batcher something to coalesce — while a
//! collector thread resolves the reply handles in FIFO order so output
//! lines line up with input lines. `stats` requests are resolved when the
//! collector reaches them, i.e. after every earlier request has been
//! answered, which makes transcript stats deterministic. `metrics`
//! requests work the same way but return the unified metric registry —
//! serving counters merged with the process-global ambient metrics
//! (tensor kernels, sampler spans, training counters) — as one line.
//!
//! Two streaming extensions ride on the same ordered protocol:
//!
//! - a `{"type":"cancel","id":…}` control line flips the named request's
//!   cancel token the moment the *reader* parses it (cancellation must
//!   not wait behind the FIFO), and is acknowledged in order with
//!   `{"type":"cancel","id":…,"ok":…}`;
//! - a request submitted with `"stream": true` emits zero or more
//!   `{"type":"preview",…}` lines (quantized intermediate latents)
//!   immediately before its terminal reply line.

use crate::json::Json;
use crate::request::{GenerateRequest, ServeReply};
use crate::runtime::{ResponseHandle, ServeRuntime};
use crate::stats::StatsReport;
use aero_diffusion::CancelToken;
use aero_obs::MetricsSnapshot;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::mpsc;

/// One unit of ordered output.
enum Entry {
    /// A submitted request; the collector blocks on its reply.
    Reply(ResponseHandle),
    /// An immediate reply (rejection or parse error), already final.
    Immediate(Json),
    /// A stats probe, resolved when the collector reaches it.
    Stats,
    /// A unified-metrics probe, resolved when the collector reaches it.
    Metrics,
}

/// The single-line `{"type":"metrics",…}` wire form of a merged
/// snapshot: counters and gauges verbatim, histograms summarized to
/// `count`/`sum`/`mean`/`p50`/`p99` (full buckets stay available through
/// the `profile` CLI's NDJSON export).
fn metrics_json(snap: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        ("type", "metrics".into()),
        (
            "counters",
            Json::Obj(snap.counters.iter().map(|(n, v)| (n.clone(), (*v).into())).collect()),
        ),
        ("gauges", Json::Obj(snap.gauges.iter().map(|(n, v)| (n.clone(), (*v).into())).collect())),
        (
            "histograms",
            Json::Obj(
                snap.histograms
                    .iter()
                    .map(|(n, h)| {
                        (
                            n.clone(),
                            Json::obj(vec![
                                ("count", h.count.into()),
                                ("sum", h.sum.into()),
                                ("mean", h.mean().into()),
                                ("p50", h.quantile(0.5).into()),
                                ("p99", h.quantile(0.99).into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `{"type":"models",…}` reply: the attached registry's contents
/// with per-entry integrity, plus which model is actively serving.
fn models_json(runtime: &ServeRuntime) -> Json {
    match runtime.list_models() {
        Ok(models) => Json::obj(vec![
            ("type", "models".into()),
            ("generation", runtime.model_generation().into()),
            (
                "active",
                match runtime.active_model() {
                    Some((name, version)) => format!("{name}@{version}").into(),
                    None => Json::Null,
                },
            ),
            (
                "models",
                Json::Arr(
                    models
                        .iter()
                        .map(|(entry, state)| {
                            Json::obj(vec![
                                ("name", entry.name.as_str().into()),
                                ("version", u64::from(entry.version).into()),
                                ("file", entry.file.as_str().into()),
                                ("len", entry.len.into()),
                                (
                                    "integrity",
                                    match state {
                                        aero_model::IntegrityState::Verified => "verified".into(),
                                        aero_model::IntegrityState::Missing => "missing".into(),
                                        aero_model::IntegrityState::Corrupt { detail } => {
                                            format!("corrupt: {detail}").into()
                                        }
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Err(e) => Json::obj(vec![
            ("type", "models".into()),
            ("ok", false.into()),
            ("detail", e.to_string().into()),
        ]),
    }
}

/// Executes a `{"type":"swap","name":…[,"version":…]}` control line
/// against the registry. The swap is synchronous from the front-end's
/// point of view: every request on a later input line is served by the
/// new model (in-flight ones finish on the old replicas).
fn swap_json(runtime: &ServeRuntime, v: &Json, fallback_id: &str) -> Json {
    let Some(name) = v.get("name").and_then(Json::as_str) else {
        return bad_request(fallback_id, "swap requires a \"name\" field");
    };
    let version = v.get("version").and_then(Json::as_f64).map(|f| f as u32);
    match runtime.swap_from_registry(name, version) {
        Ok(outcome) => Json::obj(vec![
            ("type", "swap".into()),
            ("ok", true.into()),
            ("name", outcome.entry.name.as_str().into()),
            ("version", u64::from(outcome.entry.version).into()),
            ("generation", outcome.generation.into()),
        ]),
        Err(e) => Json::obj(vec![
            ("type", "swap".into()),
            ("ok", false.into()),
            ("detail", e.to_string().into()),
        ]),
    }
}

/// A `{"type":"error",…}` line for input that never became a request.
fn bad_request(id: &str, detail: &str) -> Json {
    Json::obj(vec![
        ("type", "error".into()),
        ("id", id.into()),
        ("reason", "bad_request".into()),
        ("detail", detail.into()),
    ])
}

/// Serves NDJSON from `input` to `output` until EOF, then drains the
/// runtime and returns the final statistics.
///
/// # Errors
///
/// Propagates I/O errors from reading `input` or writing `output`; the
/// runtime is drained and shut down even on an output error.
pub fn serve_ndjson(
    runtime: ServeRuntime,
    input: impl BufRead,
    mut output: impl Write + Send,
) -> std::io::Result<StatsReport> {
    let (tx, rx) = mpsc::channel::<Entry>();
    let (read_result, write_result) = std::thread::scope(|scope| {
        let runtime = &runtime;
        let collector = scope.spawn(move || -> std::io::Result<()> {
            for entry in rx {
                let reply = match entry {
                    Entry::Reply(handle) => loop {
                        match handle.next_event() {
                            // Streamed previews go out as their own lines,
                            // in place, ahead of the terminal reply.
                            Some(reply) if !reply.is_terminal() => {
                                writeln!(output, "{}", reply.to_json().render())?;
                                output.flush()?;
                            }
                            Some(reply) => break reply.to_json(),
                            // The worker died without answering; `wait`
                            // synthesizes (and records) the typed failure.
                            None => break handle.wait().to_json(),
                        }
                    },
                    Entry::Immediate(json) => json,
                    Entry::Stats => runtime.stats().to_json(),
                    Entry::Metrics => metrics_json(&runtime.metrics()),
                };
                writeln!(output, "{}", reply.render())?;
                output.flush()?;
            }
            Ok(())
        });
        let read_result = read_loop(runtime, input, &tx);
        drop(tx);
        let write_result = collector.join().expect("reply collector panicked");
        (read_result, write_result)
    });
    let stats = runtime.shutdown();
    read_result?;
    write_result?;
    Ok(stats)
}

/// Parses and submits every input line, pushing ordered entries to the
/// collector.
fn read_loop(
    runtime: &ServeRuntime,
    mut input: impl BufRead,
    tx: &mpsc::Sender<Entry>,
) -> std::io::Result<()> {
    // id → cancel token for every request submitted on this connection,
    // so a later `cancel` line can reach it while it is queued or
    // sampling.
    let mut cancels: HashMap<String, CancelToken> = HashMap::new();
    let mut raw = Vec::new();
    for lineno in 0usize.. {
        // Raw bytes, not `lines()`: a line that is not UTF-8 is one bad
        // request, not an I/O error that ends the connection.
        raw.clear();
        if input.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        let fallback_id = format!("req-{lineno}");
        let entry = match std::str::from_utf8(&raw) {
            Err(e) => Entry::Immediate(bad_request(
                &fallback_id,
                &format!("line is not valid UTF-8: {e}"),
            )),
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => {
                line_entry(runtime, line.trim_end_matches(['\n', '\r']), &fallback_id, &mut cancels)
            }
        };
        if tx.send(entry).is_err() {
            break; // collector died on an output error; its result says why
        }
    }
    Ok(())
}

/// The ordered entry for one UTF-8 request line: parsed, and for
/// `generate` and `cancel` lines acted on, in line order.
fn line_entry(
    runtime: &ServeRuntime,
    line: &str,
    fallback_id: &str,
    cancels: &mut HashMap<String, CancelToken>,
) -> Entry {
    match Json::parse(line) {
        Err(e) => Entry::Immediate(bad_request(fallback_id, &format!("invalid JSON: {e}"))),
        Ok(v) => match v.get("type").and_then(Json::as_str).unwrap_or("generate") {
            "stats" => Entry::Stats,
            "metrics" => Entry::Metrics,
            "models" => Entry::Immediate(models_json(runtime)),
            // The swap runs here, in line order: requests on earlier
            // lines were already submitted (they finish on whichever
            // replica pops them), requests on later lines meet the
            // swapped-in model.
            "swap" => Entry::Immediate(swap_json(runtime, &v, fallback_id)),
            // The cancel takes effect here, as soon as the reader
            // sees the line — only the acknowledgement waits for its
            // turn in the output order. `ok` is false for ids this
            // connection never submitted.
            "cancel" => {
                let id = v.get("id").and_then(Json::as_str).unwrap_or(fallback_id);
                let ok = match cancels.get(id) {
                    Some(token) => {
                        token.cancel();
                        true
                    }
                    None => false,
                };
                Entry::Immediate(Json::obj(vec![
                    ("type", "cancel".into()),
                    ("id", id.into()),
                    ("ok", ok.into()),
                ]))
            }
            "generate" => match GenerateRequest::from_json(&v, fallback_id) {
                // Echo the client's id when the line carries one, so
                // the rejection can be matched to its request.
                Err(detail) => {
                    let id = v.get("id").and_then(Json::as_str).unwrap_or(fallback_id);
                    Entry::Immediate(bad_request(id, &detail))
                }
                Ok(request) => {
                    let id = request.id.clone();
                    match runtime.submit(request) {
                        Ok(handle) => {
                            cancels.insert(id, handle.cancel_token());
                            Entry::Reply(handle)
                        }
                        Err(reason) => {
                            Entry::Immediate(ServeReply::Rejected { id, reason }.to_json())
                        }
                    }
                }
            },
            other => Entry::Immediate(bad_request(
                fallback_id,
                &format!("unknown request type {other:?}"),
            )),
        },
    }
}
