//! `wire-mixed`: an open loop on a seeded arrival schedule over one protocol
//! v2 connection to one `htsat-serve --threads 1 --cache-dir DIR` whose
//! registry budget is too small for the working set.
//!
//! Arrivals come in blocks of 20: 16 warm multi-chunk SAMPLEs (alternating
//! `s15850a_15_7` and `90-10-1-q`, each with `batch < n`) and 4 LOADs, one
//! in every fifth slot.
//! LOAD events alternate between a fresh seed-generated `iscas_like`
//! formula (registry miss, transform, compile, cache write, eviction) and a
//! re-LOAD of the fresh formula loaded five events earlier, which has been
//! evicted since and comes back from the disk cache. Beside the schedule, a
//! second connection opens short direct v2 sessions (connect, HELLO,
//! STATUS) on a schedule of their own.
//!
//! The window is split into segments. Between two segments, once every
//! request of the first has finished, a spare daemon is set up (spawn,
//! HELLO, the warm LOADs) and stopped again, so the median set-up time
//! spans the run as the requests do.
//!
//! Requests are written as the schedule says, whatever is still in flight:
//! a reader thread timestamps every frame, and latency runs from each
//! request's due time. The blocking `htsat_serve::Client` cannot write
//! while it waits for a frame, so this connection speaks the wire grammar
//! through `htsat_serve::proto` directly; every other connection uses the
//! `Client`.

use crate::layers::{Layers, Shape};
use crate::spans::{self_time_ms, write_spans, Tracer};
use crate::stats::{class_quantile, geomean, median, quantile};
use crate::sys::{peak_rss_mib, total_cpu_ms, Proc};
use crate::{digest, unit, Ctx, Report};
use htsat_cnf::{dimacs, Cnf, Fingerprint};
use htsat_core::{PreparedFormula, SampleEngine, SessionConfig, TransformConfig};
use htsat_instances::families::iscas_like;
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_obs::{Snapshot, TraceId, TraceReport};
use htsat_serve::json::Json;
use htsat_serve::proto::{
    decode_solution, encode_u64_exact, request_id, LoadSource, Request, SampleParams, PROTOCOL_V2,
};
use htsat_serve::Client;
use htsat_tensor::Backend;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// (instance, rows per round, unique solutions per request). Each request
/// needs two rounds for almost every seed, so it arrives as two chunks.
const WARM: [(&str, usize, usize); 2] = [("s15850a_15_7", 8, 8), ("90-10-1-q", 32, 48)];
/// Shape of the fresh formulas: `iscas_like(inputs, gates, outputs)`.
const FRESH: (usize, usize, usize) = (380, 3000, 4);
/// Registry budget: the warm pair plus two fresh formulas fit, a third
/// fresh formula evicts the least recently used one.
const BUDGET_MB: u64 = 2;
/// Offered arrivals per second on the main connection, about half of the
/// daemon's measured one-at-a-time capacity on a 2-core host.
const RATE: f64 = 30.0;
/// Direct sessions per second on the second connection.
const SESSION_RATE: f64 = 12.0;
const BLOCK: usize = 20;
const LOADS_PER_BLOCK: usize = 4;
/// A LOAD event re-loads the formula of the event this many before it.
const RELOAD_DISTANCE: usize = 5;
/// Segments of the timed window; each is preceded by a set-up. A set-up's
/// warm LOAD swings by up to 80 % from one to the next with the host's
/// load, so the median takes many of them.
const SEGMENTS: usize = 15;
/// The generator may run at most this late at its 99th percentile before
/// the run counts as invalid.
const MAX_LATE_MS: f64 = 100.0;
const TAG_GAP: u64 = 11;
const TAG_SEED: u64 = 12;
const TAG_FRESH: u64 = 13;
const TAG_SESSION: u64 = 14;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Sample(usize),
    Load { fresh: bool, formula: usize },
}

struct Op {
    kind: Kind,
    /// Due time, counted in the window's own time (set-up pauses between
    /// segments excluded).
    due: Duration,
    seed: u64,
    /// Carries a trace id: in a traced run every other arrival does.
    traced: bool,
    /// The instant the request was due at, once its segment has started.
    due_at: Option<Instant>,
    sent: Option<Instant>,
    first: Option<Instant>,
    done: Option<Instant>,
    failed: bool,
    cached: Option<bool>,
    solutions: Vec<Vec<bool>>,
    frames: Vec<(Instant, Instant)>,
}

enum Event {
    Chunk(u64, Instant, Instant, Vec<Vec<bool>>, usize),
    Done(u64, Instant, Instant),
    Reply(u64, Instant, Instant, Option<bool>),
    Error(u64, Instant, String),
    Closed,
}

/// The arrival schedule and the fresh formulas it loads.
fn schedule(ctx: &Ctx) -> (Vec<Op>, Vec<String>) {
    let mut ops = Vec::new();
    let mut fresh_texts = Vec::new();
    let mut load_formula: Vec<usize> = Vec::new();
    let mut samples = 0usize;
    let mut due = 0.0;
    let mut k = 0u64;
    while due < ctx.seconds {
        let slot = k as usize % BLOCK;
        let kind = if slot % (BLOCK / LOADS_PER_BLOCK) == BLOCK / LOADS_PER_BLOCK - 1 {
            let event = load_formula.len();
            if event % 2 == 1 && event >= RELOAD_DISTANCE {
                let formula = load_formula[event - RELOAD_DISTANCE];
                load_formula.push(formula);
                Kind::Load {
                    fresh: false,
                    formula,
                }
            } else {
                let formula = fresh_texts.len();
                let (inputs, gates, outputs) = FRESH;
                let name = format!("fresh-{formula}");
                let seed = ctx.derive(TAG_FRESH, formula as u64);
                fresh_texts.push(dimacs::to_string(
                    &iscas_like(&name, inputs, gates, outputs, seed).cnf,
                ));
                load_formula.push(formula);
                Kind::Load {
                    fresh: true,
                    formula,
                }
            }
        } else {
            samples += 1;
            Kind::Sample((samples - 1) % WARM.len())
        };
        ops.push(Op {
            kind,
            due: Duration::from_secs_f64(due),
            seed: ctx.derive(TAG_SEED, k),
            traced: ctx.trace && k % 2 == 1,
            due_at: None,
            sent: None,
            first: None,
            done: None,
            failed: false,
            cached: None,
            solutions: Vec::new(),
            frames: Vec::new(),
        });
        due += (0.5 + unit(ctx.derive(TAG_GAP, k))) / RATE;
        k += 1;
    }
    (ops, fresh_texts)
}

/// Due times of the direct sessions on the second connection.
fn session_schedule(ctx: &Ctx) -> Vec<f64> {
    let seed = ctx.derive(TAG_SESSION, 0);
    let mut dues = Vec::new();
    let mut due = 0.0;
    let mut k = 0u64;
    while due < ctx.seconds {
        dues.push(due);
        due += (0.5 + unit(seed ^ k)) / SESSION_RATE;
        k += 1;
    }
    dues
}

fn encode_line(request: &Request, id: Option<u64>, trace: Option<TraceId>) -> String {
    let mut msg = request.encode();
    if let Json::Obj(pairs) = &mut msg {
        if let Some(id) = id {
            pairs.push(("id".to_string(), encode_u64_exact(id)));
        }
        if let Some(trace) = trace {
            pairs.push(("trace".to_string(), Json::Str(trace.to_hex())));
        }
    }
    let mut line = msg.encode();
    line.push('\n');
    line
}

/// Reads frames until the connection closes, decoding each into an event
/// stamped when it was read and when it was decoded.
fn reader(stream: TcpStream, tx: mpsc::Sender<Event>) {
    let mut lines = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        match lines.read_line(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let read = Instant::now();
        let Ok(msg) = Json::parse(buf.trim_end()) else {
            continue;
        };
        let Ok(Some(id)) = request_id(&msg) else {
            continue;
        };
        let event = match msg.get("frame").and_then(Json::as_str) {
            Some("chunk") => {
                let solutions: Option<Vec<Vec<bool>>> =
                    msg.get("solutions").and_then(Json::as_arr).map(|arr| {
                        arr.iter()
                            .filter_map(|s| s.as_str().and_then(|t| decode_solution(t).ok()))
                            .collect()
                    });
                Event::Chunk(
                    id,
                    read,
                    Instant::now(),
                    solutions.unwrap_or_default(),
                    buf.len(),
                )
            }
            Some("done") => Event::Done(id, read, Instant::now()),
            Some("reply") => Event::Reply(
                id,
                read,
                Instant::now(),
                msg.get("cached").and_then(Json::as_bool),
            ),
            _ => Event::Error(
                id,
                read,
                msg.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("error frame")
                    .to_string(),
            ),
        };
        if tx.send(event).is_err() {
            break;
        }
    }
    let _ = tx.send(Event::Closed);
}

/// Spawns a daemon and loads the warm pair; returns it with its set-up
/// time and the warm fingerprints.
fn start_daemon(
    ctx: &Ctx,
    cache: &std::path::Path,
    warm_texts: &[String],
) -> Result<(Proc, f64, Vec<Fingerprint>), String> {
    let _ = std::fs::remove_dir_all(cache);
    let t0 = Instant::now();
    let args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--budget-mb",
        &BUDGET_MB.to_string(),
        "--cache-dir",
        &cache.to_string_lossy(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let daemon = Proc::spawn(&ctx.bin_dir.join("htsat-serve"), &args)?;
    let mut client = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
    client.hello().map_err(|e| e.to_string())?;
    let mut fingerprints = Vec::new();
    for text in warm_texts {
        let reply = client.load_dimacs(None, text).map_err(|e| e.to_string())?;
        fingerprints.push(reply.fingerprint);
    }
    Ok((daemon, t0.elapsed().as_secs_f64(), fingerprints))
}

/// Counter value of a snapshot (absent counters read 0).
fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let warm_texts: Vec<String> = WARM
        .iter()
        .map(|(name, _, _)| {
            table2_instance(name, SuiteScale::Paper)
                .map(|inst| dimacs::to_string(&inst.cnf))
                .ok_or_else(|| format!("no Table II instance {name}"))
        })
        .collect::<Result<_, _>>()?;
    let warm_cnfs: Vec<Cnf> = warm_texts
        .iter()
        .map(|t| dimacs::parse_str(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (mut ops, fresh_texts) = schedule(ctx);

    // Set-up: spawn the daemon that serves the run and load the warm
    // pair. Spare daemons are set up the same way between segments.
    let cache = ctx
        .work_dir
        .join(format!("wire-cache-{}", std::process::id()));
    let spare_cache = ctx
        .work_dir
        .join(format!("wire-spare-cache-{}", std::process::id()));
    let (daemon, secs, warm_fps) = start_daemon(ctx, &cache, &warm_texts)?;
    let mut setup_s = vec![secs];
    let mut spare_set_up = || -> Result<(), String> {
        let (spare, secs, _) = start_daemon(ctx, &spare_cache, &warm_texts)?;
        Proc::stop(spare);
        setup_s.push(secs);
        Ok(())
    };
    let result = drive(
        ctx,
        &mut report,
        &daemon,
        &warm_fps,
        &mut ops,
        &fresh_texts,
        &mut spare_set_up,
    );
    Proc::stop(daemon);
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&spare_cache);
    let (window, stats, trace, decode) = result?;

    // Output checks, after the window: every solution satisfies the
    // original CNF, none repeats within a request, and every sequence
    // equals the in-process 2-thread reference for its seed.
    let engines: Vec<PreparedFormula> = warm_cnfs
        .iter()
        .map(|cnf| PreparedFormula::prepare(cnf, &TransformConfig::default()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut layers = Layers::default();
    let mut fresh_sent = HashSet::new();
    let mut disk_sent = 0;
    for op in &ops {
        if op.sent.is_none() || op.failed {
            continue;
        }
        match op.kind {
            Kind::Sample(class) => {
                let (name, batch, n) = WARM[class];
                let mut seen = HashSet::new();
                for s in &op.solutions {
                    if !warm_cnfs[class].is_satisfied_by_bits(s) {
                        report.fail(format!(
                            "{name} seed {}: a solution violates the CNF",
                            op.seed
                        ));
                    }
                    if !seen.insert(s) {
                        report.fail(format!("{name} seed {}: a solution repeats", op.seed));
                    }
                }
                let config = SessionConfig {
                    seed: op.seed,
                    backend: Backend::Threads(2),
                    batch: Some(batch),
                };
                let reference: Vec<Vec<bool>> = engines[class]
                    .stream(&config)
                    .map_err(|e| e.to_string())?
                    .take(n)
                    .collect();
                if digest(&reference) != digest(&op.solutions) {
                    report.fail(format!(
                        "{name} seed {}: wire stream differs from the in-process reference",
                        op.seed
                    ));
                }
            }
            Kind::Load { fresh, formula } => {
                if op.cached != Some(false) {
                    report.fail(format!("LOAD of fresh-{formula} was not a registry miss"));
                }
                if fresh {
                    fresh_sent.insert(formula);
                } else {
                    disk_sent += 1;
                }
            }
        }
    }
    // STATS identities: every fresh formula and the warm pair compiled
    // exactly once, every re-LOAD came from disk, and no error was served.
    let compiles = counter(&stats.1, "serve.registry.compiles");
    let disk_hits = counter(&stats.1, "serve.registry.disk_hits");
    let errors = counter(&stats.1, "serve.errors");
    if compiles != (fresh_sent.len() + WARM.len()) as f64 {
        report.fail(format!(
            "compiles {compiles} != {} fresh formulas + {} warm",
            fresh_sent.len(),
            WARM.len()
        ));
    }
    if disk_hits != f64::from(disk_sent) {
        report.fail(format!("disk hits {disk_hits} != {disk_sent} re-LOADs"));
    }
    if errors != 0.0 {
        report.fail(format!("the daemon served {errors} errors"));
    }

    // End-to-end metrics.
    let ms = |from: Instant, t: Option<Instant>| -> f64 {
        t.map_or(f64::INFINITY, |t| {
            t.duration_since(from).as_secs_f64() * 1e3
        })
    };
    let mut first: Vec<Vec<f64>> = vec![Vec::new(); WARM.len()];
    let mut done: Vec<Vec<f64>> = vec![Vec::new(); WARM.len()];
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); WARM.len()];
    let mut loads: Vec<Vec<f64>> = vec![Vec::new(); 2];
    let mut late = Vec::new();
    let mut solutions = 0usize;
    for op in ops.iter().filter(|op| op.sent.is_some()) {
        report.attempted += 1;
        if op.failed || op.done.is_none() {
            report.failed += 1;
        }
        let (Some(sent), Some(due_at)) = (op.sent, op.due_at) else {
            continue;
        };
        late.push(sent.duration_since(due_at).as_secs_f64() * 1e3);
        let ok = !op.failed;
        match op.kind {
            Kind::Sample(c) => {
                first[c].push(if ok {
                    ms(due_at, op.first)
                } else {
                    f64::INFINITY
                });
                done[c].push(if ok {
                    ms(due_at, op.done)
                } else {
                    f64::INFINITY
                });
                if let (true, Some(d)) = (ok, op.done) {
                    solutions += op.solutions.len();
                    let secs = d.duration_since(sent).as_secs_f64();
                    rates[c].push(op.solutions.len() as f64 / secs);
                }
            }
            Kind::Load { fresh, .. } => {
                loads[usize::from(!fresh)].push(if ok {
                    ms(due_at, op.done)
                } else {
                    f64::INFINITY
                });
            }
        }
    }
    report.attempted += window.sessions.len() as u64;
    report.failed += window.sessions.iter().filter(|s| s.is_infinite()).count() as u64;
    let late_p99 = quantile(&late, 0.99).unwrap_or(0.0);
    if late_p99 > MAX_LATE_MS {
        report.fail(format!(
            "the generator fell behind: 99th-percentile lateness {late_p99:.1} ms"
        ));
    }
    let ops_done = ops.iter().filter(|o| o.done.is_some() && !o.failed).count()
        + window.sessions.iter().filter(|s| s.is_finite()).count();
    let rate_medians: Vec<f64> = rates.iter().filter_map(|r| median(r)).collect();
    report.e2e("setup_s", median(&setup_s));
    report.e2e(
        "unique_per_s",
        (rate_medians.len() == WARM.len())
            .then(|| geomean(&rate_medians))
            .flatten(),
    );
    report.e2e("first_ms_p50", class_quantile(&first, 0.5));
    report.tail("tail.first_ms_p90", class_quantile(&first, 0.9));
    report.e2e("sample_ms_p50", class_quantile(&done, 0.5));
    report.tail("tail.sample_ms_p90", class_quantile(&done, 0.9));
    report.tail("load_ms_p50", class_quantile(&loads, 0.5));
    report.e2e("session_ms_p50", quantile(&window.sessions, 0.5));
    report.tail("tail.session_ms_p90", quantile(&window.sessions, 0.9));
    report.e2e(
        "cpu_ms_per_op",
        Some(window.cpu_ms / ops_done.max(1) as f64),
    );
    report.e2e("peak_rss_mib", window.rss);
    report.notes.push(format!(
        "{} arrivals (SAMPLEs per class {:?} delivering {} solutions, LOAD fresh {} / disk {}), \
         {} sessions; median service {:?} ms; lateness p99 {late_p99:.2} ms",
        ops.iter().filter(|o| o.sent.is_some()).count(),
        first.iter().map(Vec::len).collect::<Vec<_>>(),
        solutions,
        loads[0].len(),
        loads[1].len(),
        window.sessions.len(),
        rate_medians
            .iter()
            .zip(WARM)
            .map(|(r, (_, _, n))| (n as f64 / r * 1e3 * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    ));

    if ctx.trace {
        for (class, (_, batch, n)) in WARM.iter().enumerate() {
            let delivered: Vec<Vec<bool>> = ops
                .iter()
                .filter(|o| o.kind == Kind::Sample(class))
                .flat_map(|o| o.solutions.iter().cloned())
                .take(64)
                .collect();
            layers.validate(&warm_cnfs[class], &delivered);
            layers.measure(&Shape {
                text: &warm_texts[class],
                batch: Some(*batch),
                n: *n,
                backend: Backend::Threads(1),
                seed: ops[class].seed,
            })?;
        }
        if let Some(text) = fresh_texts.first() {
            layers.measure(&Shape {
                text,
                batch: None,
                n: 0,
                backend: Backend::Threads(1),
                seed: 0,
            })?;
        }
        layers.report(&mut report);
        let (before, after) = (&stats.0, &stats.1);
        let delta = |name: &str| counter(after, name) - counter(before, name);
        report.layer(
            "json.decode_ms_per_mib",
            decode.0 / (decode.1 / (1024.0 * 1024.0)),
        );
        report.layer(
            "serve.bytes_out_per_solution",
            delta("serve.bytes_out") / solutions.max(1) as f64,
        );
        let hits = delta("serve.registry.hits");
        let misses = delta("serve.registry.misses");
        report.layer("registry.hit_ratio", hits / (hits + misses).max(1.0));
        report.layer("registry.compiles", delta("serve.registry.compiles"));
        report.layer("registry.disk_hits", delta("serve.registry.disk_hits"));
        report.layer("registry.evictions", delta("serve.registry.evictions"));
        report.layer("cache.writes", delta("serve.cache.writes"));
        for (name, value) in serve_spans(&trace) {
            report.layer(name, value);
        }
        report.layer("generator.late_ms_p99", late_p99);

        // Bench-side spans, rebuilt from the frame timestamps of the
        // traced arrivals: request root (due to done), the wire wait (sent
        // to done), and one json span per decoded frame.
        let epoch = ops
            .first()
            .and_then(|o| o.due_at)
            .unwrap_or_else(Instant::now);
        let mut tracer = Tracer::new(true, epoch);
        let mut traced_ops = 0.0f64;
        for (id, op) in ops.iter().enumerate() {
            let (Some(due_at), Some(sent), Some(end)) = (op.due_at, op.sent, op.done) else {
                continue;
            };
            if !op.traced {
                continue;
            }
            traced_ops += 1.0;
            let id = id as u64 + 1;
            let root = tracer.record("bench", None, id, due_at, end);
            let wire = tracer.record("wire", root, id, sent, end);
            for &(read, decoded) in &op.frames {
                tracer.record("json", wire, id, read, decoded);
            }
        }
        let own = self_time_ms(tracer.spans());
        for (metric, layer) in [
            ("self.json_ms_per_op", "json"),
            ("self.wire_ms_per_op", "wire"),
            ("self.bench_ms_per_op", "bench"),
        ] {
            report.layer(
                metric,
                own.get(layer).copied().unwrap_or(0.0) / traced_ops.max(1.0),
            );
        }
        report.layer("trace.overhead_pct", window.overhead_pct);
        let path = ctx
            .work_dir
            .join(format!("spans-wire-mixed-{}.jsonl", ctx.seed));
        write_spans(&path, tracer.spans()).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}

/// Serve-layer attribution from `TRACE` timelines: mean per request of
/// worker queue wait, writer serialize and write time, and the
/// `serve.request` span's self time.
pub fn serve_spans(trace: &TraceReport) -> Vec<(&'static str, f64)> {
    let mut sums = [0.0f64; 4];
    for t in &trace.timelines {
        for (i, span) in t.spans.iter().enumerate() {
            let ms = span.duration_ns as f64 / 1e6;
            match span.name.as_str() {
                "serve.worker.queue_wait" => sums[0] += ms,
                "serve.writer.serialize" => sums[1] += ms,
                "serve.writer.write" => sums[2] += ms,
                "serve.request" => {
                    let children: u64 = t
                        .spans
                        .iter()
                        .filter(|c| c.parent == Some(i as u32))
                        .map(|c| c.duration_ns)
                        .sum();
                    sums[3] += span.duration_ns.saturating_sub(children) as f64 / 1e6;
                }
                _ => {}
            }
        }
    }
    let count = trace.timelines.len().max(1) as f64;
    vec![
        ("serve.queue_wait_ms", sums[0] / count),
        ("serve.serialize_ms", sums[1] / count),
        ("serve.write_ms", sums[2] / count),
        ("serve.request_self_ms", sums[3] / count),
    ]
}

/// What the timed window measured besides the per-op records.
struct Window {
    sessions: Vec<f64>,
    cpu_ms: f64,
    rss: Option<f64>,
    overhead_pct: f64,
}

type Driven = (Window, (Snapshot, Snapshot), TraceReport, (f64, f64));

/// Frame decode totals: milliseconds and bytes.
#[derive(Default)]
struct Decode {
    ms: f64,
    bytes: f64,
}

/// Applies frames to their requests until `open` requests have a terminal
/// frame, the connection closes or `deadline` passes.
fn collect(
    rx: &mpsc::Receiver<Event>,
    ops: &mut [Op],
    report: &mut Report,
    open: &mut usize,
    decode: &mut Decode,
    deadline: Instant,
) {
    while *open > 0 {
        let Ok(event) = rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) else {
            break;
        };
        let (id, terminal) = match event {
            Event::Closed => break,
            Event::Chunk(id, read, decoded, solutions, bytes) => {
                let op = &mut ops[id as usize - 1];
                op.first.get_or_insert(decoded);
                op.frames.push((read, decoded));
                decode.ms += decoded.duration_since(read).as_secs_f64() * 1e3;
                decode.bytes += bytes as f64;
                op.solutions.extend(solutions);
                (id, false)
            }
            Event::Done(id, read, decoded) | Event::Reply(id, read, decoded, _) => {
                let op = &mut ops[id as usize - 1];
                if let Event::Reply(_, _, _, cached) = event {
                    op.cached = cached;
                }
                op.frames.push((read, decoded));
                op.done = Some(decoded);
                (id, true)
            }
            Event::Error(id, read, msg) => {
                report.fail(format!("request {id} failed: {msg}"));
                let op = &mut ops[id as usize - 1];
                op.frames.push((read, read));
                op.failed = true;
                (id, true)
            }
        };
        if terminal && id as usize <= ops.len() {
            *open -= 1;
        }
    }
}

/// Runs the direct sessions due in one segment, `dues` counted from the
/// segment's `start`; returns each session's latency from its due time.
fn sessions(addr: &str, start: Instant, dues: &[f64]) -> Vec<f64> {
    dues.iter()
        .map(|&due| {
            let at = start + Duration::from_secs_f64(due);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let result = Client::connect(addr).and_then(|mut c| {
                c.hello()?;
                c.status()
            });
            match result {
                Ok(_) => at.elapsed().as_secs_f64() * 1e3,
                Err(_) => f64::INFINITY,
            }
        })
        .collect()
}

/// Runs the timed window against `daemon`, segment by segment: the
/// scheduled main connection and the session connection, then every frame
/// still in flight, then `spare_set_up` before the next segment.
fn drive(
    ctx: &Ctx,
    report: &mut Report,
    daemon: &Proc,
    warm_fps: &[Fingerprint],
    ops: &mut [Op],
    fresh_texts: &[String],
    spare_set_up: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Driven, String> {
    let addr = daemon.addr.as_str();
    let mut control = Client::connect(addr).map_err(|e| e.to_string())?;
    control.hello().map_err(|e| e.to_string())?;
    let before = control.stats().map_err(|e| e.to_string())?;

    let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.write_all(
        encode_line(
            &Request::Hello {
                version: PROTOCOL_V2,
            },
            None,
            None,
        )
        .as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    let mut hello = String::new();
    let mut read_half = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    read_half.read_line(&mut hello).map_err(|e| e.to_string())?;
    if !hello.contains("\"ok\":true") {
        return Err(format!("HELLO refused: {hello}"));
    }
    let (tx, rx) = mpsc::channel();
    let reader_thread = std::thread::spawn(move || reader(read_half.into_inner(), tx));

    let session_dues = session_schedule(ctx);
    let segment = ctx.seconds / SEGMENTS as f64;
    let mut session_ms = Vec::new();
    let mut cpu_ms = 0.0;
    let mut decode = Decode::default();
    let mut open = 0usize;
    let mut next = 0usize;
    let mut write_err = None;
    for seg in 0..SEGMENTS {
        if seg > 0 {
            spare_set_up()?;
        }
        let lo = seg as f64 * segment;
        let hi = if seg + 1 == SEGMENTS {
            f64::INFINITY
        } else {
            lo + segment
        };
        let dues: Vec<f64> = session_dues
            .iter()
            .filter(|&&d| d >= lo && d < hi)
            .map(|d| d - lo)
            .collect();
        let cpu0 = total_cpu_ms(&[daemon.pid()]);
        let start = Instant::now();
        let session_addr = addr.to_string();
        let sessions_thread = std::thread::spawn(move || sessions(&session_addr, start, &dues));
        while next < ops.len() && ops[next].due.as_secs_f64() < hi {
            let i = next;
            let op = &mut ops[i];
            next += 1;
            let at = start + Duration::from_secs_f64(op.due.as_secs_f64() - lo);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let trace = op
                .traced
                .then(|| TraceId::from_u128(((ctx.seed as u128) << 64) | (i as u128 + 1)));
            let request = match op.kind {
                Kind::Sample(class) => {
                    let (_, batch, n) = WARM[class];
                    Request::Sample(SampleParams {
                        n,
                        seed: op.seed,
                        batch: Some(batch),
                        ..SampleParams::new(warm_fps[class])
                    })
                }
                Kind::Load { formula, .. } => Request::Load {
                    name: None,
                    engine: None,
                    source: LoadSource::Inline(fresh_texts[formula].clone()),
                },
            };
            let line = encode_line(&request, Some(i as u64 + 1), trace);
            op.due_at = Some(at);
            op.sent = Some(Instant::now());
            if let Err(e) = conn.write_all(line.as_bytes()) {
                write_err = Some(e.to_string());
                op.failed = true;
                break;
            }
            open += 1;
        }
        // Collect frames until every request sent so far has finished.
        let deadline = Instant::now() + Duration::from_secs(60);
        collect(&rx, ops, report, &mut open, &mut decode, deadline);
        session_ms.extend(
            sessions_thread
                .join()
                .map_err(|_| "session thread panicked")?,
        );
        cpu_ms += total_cpu_ms(&[daemon.pid()]) - cpu0;
        if write_err.is_some() || open > 0 {
            break;
        }
    }
    let rss = peak_rss_mib(daemon.pid());
    let _ = conn.shutdown(Shutdown::Both);
    let _ = reader_thread.join();
    if let Some(e) = write_err {
        report.fail(format!("writing to the daemon failed: {e}"));
    }
    if open > 0 {
        report.fail(format!("{open} requests never completed"));
    }
    let after = control.stats().map_err(|e| e.to_string())?;
    let trace = if ctx.trace {
        control
            .trace(Some(64), Some("sample"), None)
            .map_err(|e| e.to_string())?
    } else {
        TraceReport::default()
    };

    // Tracing overhead: the median SAMPLE service time of the traced
    // arrivals against the untraced ones, which alternate with them.
    let split = |traced: bool| -> Option<f64> {
        let per_class: Option<Vec<f64>> = (0..WARM.len())
            .map(|c| {
                let t: Vec<f64> = ops
                    .iter()
                    .filter(|o| o.kind == Kind::Sample(c) && o.traced == traced)
                    .filter_map(|o| Some(o.done?.duration_since(o.sent?).as_secs_f64()))
                    .collect();
                median(&t)
            })
            .collect();
        geomean(&per_class?)
    };
    let overhead_pct = match (split(false), split(true)) {
        (Some(u), Some(t)) => (t / u - 1.0) * 100.0,
        _ => 0.0,
    };
    Ok((
        Window {
            sessions: session_ms,
            cpu_ms,
            rss,
            overhead_pct,
        },
        (before, after),
        trace,
        (decode.ms, decode.bytes),
    ))
}
