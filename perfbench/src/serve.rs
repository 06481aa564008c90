//! `serve_text` and `serve_tasks`: open-loop Poisson arrivals over the
//! NDJSON wire (`aero_serve::serve_ndjson`) against one `ServeRuntime`.
//!
//! `serve_text` draws prompts from a pool that fits the condition cache,
//! so encode is a cache hit and queueing, micro-batching and the
//! in-order reply writer carry the load. `serve_tasks` mixes text, view,
//! inpaint and superres requests a quarter each, every one unique, so
//! JSON/base64 parsing, `condition_source`, the condition network, the
//! inpaint VAE encode and heterogeneous batching carry it.
//!
//! Each run serves a `low` rate (batches near 1) and a `high` rate
//! (batches fill), alternating over six rounds, then a ladder of
//! rising rates that stops once two rates in a row miss the p90
//! latency limit, one phase after the other on one connection; a phase
//! starts once the previous one has drained.

use crate::calib::HostSpeed;
use crate::common::{
    check, image_of, load_snapshot, metric, model_config, serve_config, Ctx, Metric, Outcome,
};
use crate::gen::{self, Request, Task};
use crate::stats::{
    backlog_grows, lateness_ms, overhead_pct, pct_json, percentile, rate_at_slo, summarize, Rung,
};
use crate::trace::Tracer;
use crate::wire::{LineReader, LineWriter};
use aero_diffusion::{DdimSampler, StepSink};
use aero_serve::{
    serve_ndjson, GenerateRequest, GeneratedImage, Json, ServeReply, ServeRuntime, StageLatency,
    StatsReport,
};
use aerodiffusion::PipelineSnapshot;
use rand::Rng;
use rand::SeedableRng;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Text,
    Tasks,
}

// Offered rates in requests per second. The pinned runtime (one worker,
// the whole process on one CPU) sustains about 50 req/s of text
// requests at the reference speed, batching once a batch-1 sample
// (about 22 ms) no longer keeps up: `low` is about 30% of capacity
// (batches of 1), `high` about 65% (batches of 1 to 2).
const LOW_RATE: f64 = 15.0;
const HIGH_RATE: f64 = 33.0;

/// The ladder's rates: `LADDER_FROM` times `LADDER_STEP` to the power
/// 0, 1, ... — 38 to 108 req/s, about twice today's capacity, so a much
/// faster runtime still meets rungs that fail. It starts where today's
/// runtime is close to the limit, so the run's time goes to the rungs
/// that decide the result. The ladder stops after `LADDER_STOP` rungs
/// in a row miss the limit, so one rung that a slow spell of the host
/// fails does not end the climb.
const LADDER_FROM: f64 = 38.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: i32 = 12;
const LADDER_STOP: usize = 2;

/// The p90 latency limit of the ladder, ms.
const SLO_MS: f64 = 200.0;

/// The client times the reference work (see `calib`) at most this often,
/// and only while the runtime is idle with at least `HOST_SAMPLE_ROOM`
/// before the next request is due.
const HOST_SAMPLE_EVERY: Duration = Duration::from_millis(20);
const HOST_SAMPLE_ROOM: Duration = Duration::from_millis(1);

/// Rounds of alternating low and high phases.
const ROUNDS: usize = 6;

/// Prompts in `serve_text`'s pool: well under the cache's 64 entries.
const TEXT_POOL: usize = 24;

struct Phase {
    /// Unique per phase; `group` names the rate it belongs to.
    name: String,
    group: String,
    /// Whether this phase is a rung of the ladder.
    rung: bool,
    rate: f64,
    secs: f64,
    /// Whether this phase feeds metrics (warm-up does not).
    measured: bool,
    traced: bool,
    requests: Vec<(Request, f64)>,
}

/// What the client saw for one request.
#[derive(Debug, Clone, Default)]
struct Seen {
    due: Option<Instant>,
    sent: Option<Instant>,
    reply_at: Option<Instant>,
    ok: bool,
    shed: bool,
    stages: StageLatency,
    batch: usize,
    cache_hit: bool,
    rgb8: Option<Vec<u8>>,
}

impl Seen {
    fn latency_ms(&self) -> f64 {
        match (self.due, self.reply_at) {
            (Some(d), Some(r)) => r.saturating_duration_since(d).as_secs_f64() * 1e3,
            _ => f64::NAN,
        }
    }
}

fn make_phases(ctx: &Ctx, mix: Mix, image_size: usize) -> Vec<Phase> {
    let s = ctx.seconds;
    // The low and high rates alternate over ROUNDS rounds, so each sees
    // the whole run's share of the host's fast and slow spells; the
    // ladder follows.
    let mut plan: Vec<(String, f64, f64, bool)> = Vec::new();
    for _ in 0..ROUNDS {
        let round = s / ROUNDS as f64;
        if ctx.trace {
            plan.push(("low_untraced".into(), LOW_RATE, 0.3 * round, false));
            plan.push(("low".into(), LOW_RATE, 0.3 * round, true));
            plan.push(("high".into(), HIGH_RATE, 0.4 * round, true));
        } else {
            plan.push(("low".into(), LOW_RATE, 0.30 * round, false));
            plan.push(("high".into(), HIGH_RATE, 0.34 * round, false));
        }
    }
    if !ctx.trace {
        for k in 0..LADDER_RUNGS {
            let rate = LADDER_FROM * LADDER_STEP.powi(k);
            plan.push((format!("ladder{}", k + 1), rate, 0.12 * s, false));
        }
    }
    let mut sched_rng = gen::rng(ctx.seed, 40);
    let mut req_rng = gen::rng(ctx.seed, 41);
    let pool = gen::prompt_pool(&mut gen::rng(ctx.seed, 42), TEXT_POOL);
    let counts: Vec<usize> = plan.iter().map(|p| (p.1 * p.2).round() as usize).collect();
    let warm_n = if mix == Mix::Text { TEXT_POOL } else { 8 };
    let total = warm_n + counts.iter().sum::<usize>();
    // One unique scene per task request.
    let scenes = if mix == Mix::Tasks { gen::scenes(ctx.seed, total, image_size) } else { vec![] };
    let mut next = 0usize;
    let mut build = |rng: &mut rand::rngs::StdRng, phase: &str, i: usize, kind: usize| -> Request {
        let k = next;
        next += 1;
        let id = format!("{phase}.{i}");
        let seed = u64::from(rng.gen::<u32>());
        match mix {
            Mix::Text => Request {
                id,
                prompt: pool[rng.gen_range(0..pool.len())].clone(),
                seed,
                task: Task::Text,
            },
            Mix::Tasks => Request {
                id,
                prompt: format!("{} near site {k}", gen::prompt(rng)),
                seed,
                task: gen::task(kind, &scenes[k], rng),
            },
        }
    };
    let mut phases = Vec::new();
    // Warm-up: in text, every pool prompt once (fills the cache).
    let warm: Vec<(Request, f64)> =
        (0..warm_n).map(|i| (build(&mut req_rng, "warm", i, i), i as f64 * 40.0)).collect();
    phases.push(Phase {
        name: "warm".into(),
        group: "warm".into(),
        rung: false,
        rate: 25.0,
        secs: warm_n as f64 * 0.04,
        measured: false,
        traced: false,
        requests: warm,
    });
    for (k, (group, rate, secs, traced)) in plan.into_iter().enumerate() {
        let name = format!("{group}-{k}");
        let at = gen::poisson_schedule(&mut sched_rng, rate, secs);
        // A quarter of each kind, in seeded order.
        let mut kinds: Vec<usize> = (0..at.len()).map(|i| i % 4).collect();
        gen::shuffle(&mut req_rng, &mut kinds);
        let requests = at
            .into_iter()
            .enumerate()
            .map(|(i, due)| (build(&mut req_rng, &name, i, kinds[i]), due))
            .collect();
        let rung = group.starts_with("ladder");
        phases.push(Phase { name, group, rung, rate, secs, measured: true, traced, requests });
    }
    phases
}

/// Requests whose bytes are checked against solo runs: the first two
/// of each kind in the first measured phase, and one from each later
/// phase.
fn checked(phases: &[Phase]) -> Vec<(usize, usize)> {
    let mut picks = Vec::new();
    for (pi, phase) in phases.iter().enumerate().filter(|(_, p)| p.measured) {
        let first = picks.is_empty();
        for kind in ["text", "view", "inpaint", "superres"] {
            let of_kind =
                phase.requests.iter().enumerate().filter(|(_, (r, _))| r.task.kind() == kind);
            picks.extend(of_kind.take(if first { 2 } else { 0 }).map(|(i, _)| (pi, i)));
        }
        if !first && !phase.requests.is_empty() {
            picks.push((pi, phase.requests.len() / 2));
        }
    }
    picks
}

/// Client latencies of a phase's served requests, ms at the reference
/// host speed, in arrival order.
fn reference_latencies(part: &[Seen], host: &HostSpeed) -> Vec<f64> {
    part.iter()
        .filter(|s| s.ok)
        .filter_map(|s| Some(s.latency_ms() * host.factor(host.secs(s.due?))))
        .collect()
}

/// Whether a ladder rung ends the climb: a request failed, or its p90
/// at the reference speed misses the limit.
fn rung_fails(part: &[Seen], host: &HostSpeed) -> bool {
    part.iter().any(|s| !s.ok)
        || summarize(&reference_latencies(part, host)).is_none_or(|s| s.p90 > SLO_MS)
}

/// Serves the phases over one NDJSON connection, in order, until
/// `LADDER_STOP` ladder rungs in a row fail; returns what the client saw per request
/// of each phase that ran and the runtime's final statistics.
fn session(
    snapshot: &PipelineSnapshot,
    ctx: &Ctx,
    phases: &[Phase],
    keep: &[(usize, usize)],
) -> (Vec<Vec<Seen>>, StatsReport) {
    let runtime = ServeRuntime::start(snapshot.clone(), serve_config(&model_config()));
    let (req_tx, req_rx) = mpsc::channel::<String>();
    let (rep_tx, rep_rx) = mpsc::channel::<(Instant, String)>();
    let mut seen: Vec<Vec<Seen>> =
        phases.iter().map(|p| vec![Seen::default(); p.requests.len()]).collect();
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            serve_ndjson(runtime, LineReader::new(req_rx), LineWriter::new(rep_tx))
                .expect("in-process wire cannot fail")
        });
        let mut sampled = Instant::now();
        let mut failing_rungs = 0;
        for (pi, phase) in phases.iter().enumerate() {
            let t0 = Instant::now() + Duration::from_millis(5);
            let (mut next, mut done) = (0usize, 0usize);
            let n = phase.requests.len();
            while done < n {
                let now = Instant::now();
                while next < n {
                    let (req, at) = &phase.requests[next];
                    let due = t0 + Duration::from_secs_f64(at / 1e3);
                    if due > now {
                        break;
                    }
                    let s = &mut seen[pi][next];
                    s.due = Some(due);
                    s.sent = Some(Instant::now());
                    req_tx.send(req.line()).expect("server reader alive");
                    next += 1;
                }
                let wait = if next < n {
                    (t0 + Duration::from_secs_f64(phase.requests[next].1 / 1e3))
                        .saturating_duration_since(Instant::now())
                } else {
                    Duration::from_millis(100)
                };
                // Every request sent so far is answered and the next is
                // not due yet: the runtime is idle, so the reference
                // work measures the host, not the program's load.
                if done == next && wait > HOST_SAMPLE_ROOM && sampled.elapsed() > HOST_SAMPLE_EVERY
                {
                    ctx.host.sample();
                    sampled = Instant::now();
                    continue;
                }
                match rep_rx.recv_timeout(wait) {
                    Ok((at, line)) => {
                        let parse = Instant::now();
                        let v = Json::parse(&line).expect("server replies are JSON");
                        let id = v.get("id").and_then(Json::as_str).unwrap_or("");
                        let (ph, idx) = parse_id(id, phases).expect("reply id names a request");
                        let s = &mut seen[ph][idx];
                        s.reply_at = Some(at);
                        record_reply(s, &v, keep.contains(&(ph, idx)));
                        done += usize::from(ph == pi);
                        if ctx.tracer.on() && phases[ph].traced {
                            trace_request(&ctx.tracer, id, s, parse);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            failing_rungs =
                if phase.rung && rung_fails(&seen[pi], &ctx.host) { failing_rungs + 1 } else { 0 };
            if failing_rungs == LADDER_STOP {
                seen.truncate(pi + 1);
                break;
            }
        }
        drop(req_tx);
        server.join().expect("server thread")
    });
    (seen, stats)
}

fn parse_id(id: &str, phases: &[Phase]) -> Option<(usize, usize)> {
    let (name, idx) = id.rsplit_once('.')?;
    let ph = phases.iter().position(|p| p.name == name)?;
    Some((ph, idx.parse().ok()?))
}

fn record_reply(s: &mut Seen, v: &Json, keep_bytes: bool) {
    match v.get("type").and_then(Json::as_str) {
        Some("image") => {
            s.ok = true;
            let stage = |k: &str| {
                v.get("latency_us").and_then(|l| l.get(k)).and_then(Json::as_u64).unwrap_or(0)
            };
            s.stages = StageLatency {
                queue_us: stage("queue"),
                encode_us: stage("encode"),
                sample_us: stage("sample"),
                decode_us: stage("decode"),
            };
            s.batch = v.get("batch_size").and_then(Json::as_u64).unwrap_or(0) as usize;
            s.cache_hit = v.get("cache_hit").and_then(Json::as_bool).unwrap_or(false);
            if keep_bytes {
                s.rgb8 = v.get("rgb8_b64").and_then(Json::as_str).and_then(crate::b64::decode);
            }
        }
        _ => {
            let reason = v.get("reason").and_then(Json::as_str).unwrap_or("");
            s.shed = matches!(reason, "overloaded" | "queue_full");
        }
    }
}

/// The request's client-side span, with its stages laid back to back
/// from the send (the reply carries durations, not instants), and the
/// client's own parse of the reply.
fn trace_request(t: &Tracer, id: &str, s: &Seen, parse_start: Instant) {
    let (Some(due), Some(sent), Some(reply)) = (s.due, s.sent, s.reply_at) else {
        return;
    };
    let root = t.record("serve.request", None, Some(id), due, reply);
    t.record("client.send_lag", Some(root), Some(id), due, sent);
    let mut at = sent;
    for (name, us) in [
        ("serve.queue", s.stages.queue_us),
        ("serve.encode", s.stages.encode_us),
        ("serve.sample", s.stages.sample_us),
        ("serve.decode", s.stages.decode_us),
    ] {
        let end = (at + Duration::from_micros(us)).min(reply);
        t.record(name, Some(root), Some(id), at, end);
        at = end;
    }
    t.record("client.parse_reply", None, Some(id), parse_start, Instant::now());
}

struct PhaseResult {
    /// Client latency of every served request, ms at the reference host
    /// speed.
    latency: Vec<f64>,
    rung: Rung,
    succeeded: usize,
    failed: usize,
    seen: Vec<Seen>,
}

/// The measurements of one rate, pooled over its phases.
fn phase_result(
    group: &str,
    parts: &[(&Phase, &[Seen])],
    host: &HostSpeed,
    out: &mut Outcome,
) -> PhaseResult {
    let (rate, secs) = (parts[0].0.rate, parts.iter().map(|p| p.0.secs).sum::<f64>());
    let seen: Vec<&Seen> = parts.iter().flat_map(|p| p.1.iter()).collect();
    let latency: Vec<f64> = parts.iter().flat_map(|p| reference_latencies(p.1, host)).collect();
    let raw: Vec<f64> = seen.iter().filter(|s| s.ok).map(|s| s.latency_ms()).collect();
    let mut lag: Vec<f64> = Vec::new();
    // Each part's span, from its first due instant to its last reply
    // (at least its scheduled length).
    let mut window = 0.0;
    for (phase, part) in parts {
        let Some(origin) = part.iter().filter_map(|s| s.due).min() else { continue };
        let since = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
        for s in part.iter() {
            if let (Some(due), Some(sent)) = (s.due, s.sent) {
                lag.extend(lateness_ms(&[since(due) * 1e3], &[since(sent) * 1e3]));
            }
        }
        let last = part.iter().filter_map(|s| s.reply_at).max().map_or(0.0, since);
        window += last.max(phase.secs);
    }
    let succeeded = latency.len();
    let failed = seen.len() - succeeded;
    let shed = seen.iter().filter(|s| s.shed).count();
    let backlog = parts.iter().any(|(_, part)| {
        backlog_grows(
            &part.iter().filter(|s| s.ok).map(|s| s.latency_ms()).collect::<Vec<_>>(),
            50.0,
        )
    });
    let rung = Rung {
        offered: rate,
        achieved: succeeded as f64 / window.max(1e-9),
        tail_ms: summarize(&latency).map_or(f64::INFINITY, |s| s.p90),
        healthy: failed == 0,
    };
    let ok: Vec<&Seen> = seen.iter().copied().filter(|s| s.ok).collect();
    let batches: Vec<f64> = ok.iter().map(|s| s.batch as f64).collect();
    let stage = |f: fn(&StageLatency) -> u64| {
        pct_json(&ok.iter().map(|s| f(&s.stages) as f64 / 1e3).collect::<Vec<_>>())
    };
    let stages = format!(
        r#"{{"queue":{},"encode":{},"sample":{},"decode":{}}}"#,
        stage(|s| s.queue_us),
        stage(|s| s.encode_us),
        stage(|s| s.sample_us),
        stage(|s| s.decode_us)
    );
    out.phases.push(format!(
        r#"{{"phase":"{group}","parts":{},"rate":{rate},"seconds":{secs:.3},"attempted":{},"succeeded":{succeeded},"failed":{failed},"shed":{shed},"latency_ms":{},"reference_ms":{},"gen_lag_ms":{},"batch_rows":{},"stages_ms":{stages},"achieved_per_s":{:.4},"backlog_grows":{backlog},"p90_meets_slo_{}ms":{}}}"#,
        parts.len(),
        seen.len(),
        pct_json(&raw),
        pct_json(&latency),
        pct_json(&lag),
        pct_json(&batches),
        rung.achieved,
        SLO_MS,
        rung.healthy && rung.tail_ms <= SLO_MS,
    ));
    PhaseResult { latency, rung, succeeded, failed, seen: seen.into_iter().cloned().collect() }
}

pub fn run(ctx: &Ctx, mix: Mix, out: &mut Outcome) {
    let config = model_config();
    let snapshot = load_snapshot(ctx);
    let phases = make_phases(ctx, mix, config.vision.image_size);
    let keep = checked(&phases);
    crate::common::reset_peak_rss();
    let before = crate::common::tensor_counters();
    let (seen, stats) = session(&snapshot, ctx, &phases, &keep);
    // Checked requests of ladder rungs that never ran drop out.
    let keep: Vec<(usize, usize)> = keep.into_iter().filter(|k| k.0 < seen.len()).collect();
    let after = crate::common::tensor_counters();

    // One result per rate that ran, in the order the rates first ran.
    let mut groups: Vec<&str> = Vec::new();
    for p in phases[..seen.len()].iter().filter(|p| p.measured) {
        if !groups.contains(&p.group.as_str()) {
            groups.push(&p.group);
        }
    }
    let results: Vec<(&str, PhaseResult)> = groups
        .into_iter()
        .map(|g| {
            let parts: Vec<(&Phase, &[Seen])> = phases
                .iter()
                .zip(&seen)
                .filter(|(p, _)| p.group == g)
                .map(|(p, s)| (p, s.as_slice()))
                .collect();
            (g, phase_result(g, &parts, &ctx.host, out))
        })
        .collect();
    let by = |name: &str| results.iter().find(|r| r.0 == name).map(|r| &r.1);
    out.attempted = results.iter().map(|r| r.1.seen.len() as u64).sum();
    out.failed = results.iter().map(|r| r.1.failed as u64).sum();
    let low = by("low").expect("low phase");
    let high = by("high").expect("high phase");
    let (ls, hs) = (summarize(&low.latency), summarize(&high.latency));
    if !ctx.trace {
        let rungs: Vec<Rung> = results.iter().map(|r| r.1.rung).collect();
        out.e2e.extend([
            metric("low_p50_ms", ls.map_or(f64::NAN, |s| s.p50), "ms"),
            metric("high_p50_ms", hs.map_or(f64::NAN, |s| s.p50), "ms"),
            metric("throughput_per_s", rate_at_slo(&rungs, SLO_MS), "1/s"),
        ]);
    } else {
        let base = by("low_untraced").expect("untraced low phase");
        out.layers.push(metric(
            "obs.trace_overhead_pct",
            overhead_pct(&base.latency, &low.latency),
            "%",
        ));
        layer_metrics(ctx, &phases, &seen, &low.seen, &high.seen, &stats, out);
        let served = seen.iter().flatten().filter(|s| s.ok).count() as u64;
        out.layers.extend(crate::common::tensor_layer_metrics(&before, &after, served));
    }
    out.checks.push(check(
        "low_rate_no_failures",
        low.failed == 0 && low.succeeded == low.seen.len(),
        format!("{} of {} served", low.succeeded, low.seen.len()),
    ));
    let answered = seen.iter().flatten().all(|s| s.reply_at.is_some());
    out.checks.push(check("every_request_answered", answered, ""));
    byte_checks(&snapshot, &phases, &seen, &keep, out);
}

/// Served bytes (decoded from the wire) must equal the in-process
/// runtime's bytes for the same request and a solo `run_task` of the
/// same task and seed.
fn byte_checks(
    snapshot: &PipelineSnapshot,
    phases: &[Phase],
    seen: &[Vec<Seen>],
    keep: &[(usize, usize)],
    out: &mut Outcome,
) {
    let config = model_config();
    let serve = serve_config(&config);
    let runtime = ServeRuntime::start(snapshot.clone(), serve);
    let pipeline = snapshot.hydrate().expect("snapshot hydrates");
    let reference = gen::reference_scene(serve.reference_seed, config.vision.image_size);
    let caption_g = pipeline.caption_for(&reference, &mut rand::rngs::StdRng::seed_from_u64(0));
    let sampler = DdimSampler::new(serve.steps, serve.guidance_scale);
    let (mut wire_vs_inproc, mut wire_vs_solo) = (0, 0);
    for &(pi, i) in keep {
        let req = &phases[pi].requests[i].0;
        let wire = seen[pi][i].rgb8.clone().unwrap_or_default();
        let parsed = GenerateRequest::from_json(
            &Json::parse(req.line().trim_end()).expect("generated line is JSON"),
            "check",
        )
        .expect("generated line is a request");
        let inproc = runtime
            .submit(parsed)
            .ok()
            .and_then(|h| image_of(h.wait()).ok())
            .map(|img| img.rgb8)
            .unwrap_or_default();
        let spec = req.task.spec(&req.prompt, &reference, &caption_g);
        let solo = gen::rgb8(&pipeline.run_task(&spec, &sampler, req.seed, StepSink::none()));
        wire_vs_inproc += usize::from(wire != inproc);
        wire_vs_solo += usize::from(wire != solo);
    }
    let _ = runtime.shutdown();
    out.checks.push(check(
        "wire_bytes_equal_in_process",
        !keep.is_empty() && wire_vs_inproc == 0,
        format!("{} requests, {wire_vs_inproc} differ", keep.len()),
    ));
    out.checks.push(check(
        "served_bytes_equal_solo_run_task",
        !keep.is_empty() && wire_vs_solo == 0,
        format!("{} requests, {wire_vs_solo} differ", keep.len()),
    ));
}

fn p50(v: &[f64]) -> f64 {
    crate::stats::median(v).unwrap_or(0.0)
}

fn p95(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.95).unwrap_or(0.0)
}

/// The serving layer's numbers, from the traced phases' replies and the
/// runtime's statistics, plus the wire codec timed on this workload's
/// own lines.
fn layer_metrics(
    ctx: &Ctx,
    phases: &[Phase],
    seen: &[Vec<Seen>],
    low: &[Seen],
    high: &[Seen],
    stats: &StatsReport,
    out: &mut Outcome,
) {
    let ms = |us: u64| us as f64 / 1e3;
    let ok = |v: &[Seen]| v.iter().filter(|s| s.ok).cloned().collect::<Vec<_>>();
    let (low, high) = (ok(low), ok(high));
    let q: Vec<f64> = high.iter().map(|s| ms(s.stages.queue_us)).collect();
    let hol: Vec<f64> = high.iter().map(|s| s.latency_ms() - ms(s.stages.total_us())).collect();
    let lag: Vec<f64> = high
        .iter()
        .filter_map(|s| Some(s.sent?.saturating_duration_since(s.due?).as_secs_f64() * 1e3))
        .collect();
    let both: Vec<&Seen> = low.iter().chain(&high).collect();
    let hits = both.iter().filter(|s| s.cache_hit).count() as f64 / both.len().max(1) as f64;
    let rows = high.iter().map(|s| s.batch as f64).sum::<f64>() / high.len().max(1) as f64;
    let stage = |f: fn(&StageLatency) -> u64| {
        p50(&low.iter().map(|s| ms(f(&s.stages))).collect::<Vec<_>>())
    };

    // The wire codec on this workload's own lines.
    let lines: Vec<String> =
        phases.iter().flat_map(|p| p.requests.iter().map(|(r, _)| r.line())).take(400).collect();
    let parse_us: Vec<f64> = lines
        .iter()
        .map(|l| {
            let t = Instant::now();
            let v = Json::parse(l.trim_end()).expect("generated line is JSON");
            std::hint::black_box(
                GenerateRequest::from_json(&v, "x").expect("generated line is a request"),
            );
            let us = t.elapsed().as_secs_f64() * 1e6;
            ctx.tracer.record("serve.parse_request", None, None, t, Instant::now());
            us
        })
        .collect();
    let size = model_config().vision.image_size;
    let render_us: Vec<f64> = seen
        .iter()
        .flatten()
        .filter(|s| s.ok)
        .take(200)
        .map(|s| {
            let reply = ServeReply::Image(GeneratedImage {
                id: "render".into(),
                width: size,
                height: size,
                rgb8: vec![127; 3 * size * size],
                latency: s.stages,
                batch_size: s.batch,
                cache_hit: s.cache_hit,
            });
            let t = Instant::now();
            std::hint::black_box(reply.to_json().render());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.layers.extend([
        metric("serve.queue_p50_ms", p50(&q), "ms"),
        metric("serve.queue_p95_ms", p95(&q), "ms"),
        metric("serve.batch_rows_mean", rows, "count"),
        metric("serve.cache_hit_ratio", hits, "ratio"),
        metric("serve.encode_p50_ms", stage(|s| s.encode_us), "ms"),
        metric("serve.sample_p50_ms", stage(|s| s.sample_us), "ms"),
        metric("serve.decode_p50_ms", stage(|s| s.decode_us), "ms"),
        metric("serve.parse_us", p50(&parse_us), "us"),
        metric("serve.render_us", p50(&render_us), "us"),
        metric("serve.wire_hol_p95_ms", p95(&hol), "ms"),
        metric("serve.gen_lag_p95_ms", p95(&lag), "ms"),
        metric(
            "serve.shed",
            (stats.rejected_overloaded + stats.rejected_queue_full) as f64,
            "count",
        ),
        metric(
            "serve.rejected",
            (stats.rejected_deadline
                + stats.rejected_shutting_down
                + stats.rejected_worker_failure
                + stats.rejected_worker_error
                + stats.rejected_cancelled) as f64,
            "count",
        ),
    ]);
}

/// The serve layer's metrics as zeros, for workloads without a serving
/// layer on their path.
pub fn absent_layer_metrics() -> Vec<Metric> {
    [
        ("serve.queue_p50_ms", "ms"),
        ("serve.queue_p95_ms", "ms"),
        ("serve.batch_rows_mean", "count"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.encode_p50_ms", "ms"),
        ("serve.sample_p50_ms", "ms"),
        ("serve.decode_p50_ms", "ms"),
        ("serve.parse_us", "us"),
        ("serve.render_us", "us"),
        ("serve.wire_hol_p95_ms", "ms"),
        ("serve.gen_lag_p95_ms", "ms"),
        ("serve.shed", "count"),
        ("serve.rejected", "count"),
    ]
    .into_iter()
    .map(|(n, u)| metric(n, 0.0, u))
    .collect()
}
