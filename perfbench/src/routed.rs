//! `routed-unary`: a closed loop of protocol v1 user sessions through
//! `htsat-router`, which fronts two `htsat-serve --threads 1` backends.
//!
//! Each session connects to the router, sends a warm inline LOAD of
//! `or-60-20-10-UC-10`, a `SAMPLE n=4` and a `STATUS`, then disconnects.
//! The GD work per session is negligible, so the time goes to router
//! accept and relay, the per-request backend dial and the serve v1 loop:
//! this is the workload every round optimisation should leave flat. Each
//! user waits a seeded think time of up to one poll tick before each
//! session.

use crate::layers::{Layers, Shape};
use crate::spans::{self_time_ms, write_spans, Tracer};
use crate::stats::{median, quantile};
use crate::sys::{peak_rss_mib, total_cpu_ms, Proc};
use crate::{digest, unit, Ctx, Report};
use htsat_cnf::{dimacs, Cnf, Fingerprint};
use htsat_core::{PreparedFormula, SampleEngine, SessionConfig, TransformConfig};
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_obs::{Snapshot, TraceId};
use htsat_serve::json::Json;
use htsat_serve::proto::{LoadSource, Request, SampleParams};
use htsat_serve::{Client, ClientError};
use htsat_tensor::Backend;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const INSTANCE: &str = "or-60-20-10-UC-10";
const N: usize = 4;
const BATCH: usize = 8;
/// Concurrent users (the host's core count).
const USERS: usize = 2;
/// Fleets per run. Each fleet serves an equal slice of the window. The
/// router and daemons poll their listeners on independent 10 ms ticks, so
/// the per-hop wait depends on the phase between those ticks, which is
/// fixed for one fleet's lifetime; averaging over several fleets keeps one
/// unlucky phase draw from moving a whole run.
const FLEETS: usize = 15;
/// Sessions per side in the routed-versus-direct comparison.
const RELAY_PAIRS: usize = 40;
const TAG_SESSION: u64 = 21;
const TAG_THINK: u64 = 22;
/// Upper end of a user's seeded think time before each session. The
/// daemons and the router poll their listeners every 10 ms; a user who
/// reconnects the instant a session ends locks onto those ticks, and the
/// run's median jumps between whole ticks. A think time spread over one
/// tick decouples the users from the poll phase.
const THINK_MS: f64 = 10.0;

/// The timestamps of one session.
struct Session {
    seed: u64,
    start: Instant,
    load_sent: Instant,
    load_reply: Instant,
    sample_sent: Instant,
    sample_reply: Instant,
    status_reply: Instant,
    cached: bool,
    solutions: Vec<Vec<bool>>,
    traced: bool,
}

fn session(
    addr: &str,
    text: &str,
    fp: Fingerprint,
    seed: u64,
    trace: Option<TraceId>,
) -> Result<Session, ClientError> {
    let start = Instant::now();
    let mut client = Client::connect(addr)?;
    client.set_trace(trace);
    let load_sent = Instant::now();
    let load = client.load_dimacs(None, text)?;
    let load_reply = Instant::now();
    if load.fingerprint != fp {
        return Err(ClientError::Protocol(
            "LOAD answered another fingerprint".into(),
        ));
    }
    let params = SampleParams {
        n: N,
        seed,
        batch: Some(BATCH),
        ..SampleParams::new(fp)
    };
    let sample_sent = Instant::now();
    let reply = client.sample(&params)?;
    let sample_reply = Instant::now();
    client.status()?;
    let status_reply = Instant::now();
    Ok(Session {
        seed,
        start,
        load_sent,
        load_reply,
        sample_sent,
        sample_reply,
        status_reply,
        cached: load.cached,
        solutions: reply.solutions,
        traced: trace.is_some(),
    })
}

/// Two backends and the router in front of them, with the warm formula
/// loaded through the router.
struct Fleet {
    router: Proc,
    backends: Vec<Proc>,
}

impl Fleet {
    fn start(ctx: &Ctx, text: &str) -> Result<(Fleet, f64, Fingerprint), String> {
        let t0 = Instant::now();
        let serve_args: Vec<String> = ["--addr", "127.0.0.1:0", "--threads", "1"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let backends = (0..2)
            .map(|_| Proc::spawn(&ctx.bin_dir.join("htsat-serve"), &serve_args))
            .collect::<Result<Vec<_>, _>>()?;
        let mut router_args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        for b in &backends {
            router_args.push("--backend".to_string());
            router_args.push(b.addr.clone());
        }
        let router = Proc::spawn(&ctx.bin_dir.join("htsat-router"), &router_args)?;
        let mut client = Client::connect(router.addr.as_str()).map_err(|e| e.to_string())?;
        let fp = client
            .load_dimacs(None, text)
            .map_err(|e| e.to_string())?
            .fingerprint;
        Ok((Fleet { router, backends }, t0.elapsed().as_secs_f64(), fp))
    }

    fn pids(&self) -> Vec<u32> {
        let mut pids: Vec<u32> = self.backends.iter().map(Proc::pid).collect();
        pids.push(self.router.pid());
        pids
    }

    fn stop(self) {
        self.router.stop();
        for b in self.backends {
            b.stop();
        }
    }
}

fn stats(addr: &str) -> Result<Snapshot, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client.stats().map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let text = table2_instance(INSTANCE, SuiteScale::Paper)
        .map(|inst| dimacs::to_string(&inst.cnf))
        .ok_or_else(|| format!("no Table II instance {INSTANCE}"))?;
    let cnf: Cnf = dimacs::parse_str(&text).map_err(|e| e.to_string())?;

    let mut setup_s = Vec::new();
    let mut driven = Driven::default();
    for fleet_no in 0..FLEETS {
        let (fleet, secs, fp) = Fleet::start(ctx, &text)?;
        setup_s.push(secs);
        let result = drive(ctx, &mut report, &fleet, &text, fp, fleet_no, &mut driven);
        Fleet::stop(fleet);
        result?;
    }
    let sessions = &driven.sessions;

    // Output checks: valid, unique, and equal to the in-process 2-thread
    // reference of the same seed.
    let engine =
        PreparedFormula::prepare(&cnf, &TransformConfig::default()).map_err(|e| e.to_string())?;
    for s in sessions {
        let mut seen = HashSet::new();
        for sol in &s.solutions {
            if !cnf.is_satisfied_by_bits(sol) {
                report.fail(format!("seed {}: a solution violates the CNF", s.seed));
            }
            if !seen.insert(sol) {
                report.fail(format!("seed {}: a solution repeats", s.seed));
            }
        }
        let config = SessionConfig {
            seed: s.seed,
            backend: Backend::Threads(2),
            batch: Some(BATCH),
        };
        let reference: Vec<Vec<bool>> = engine
            .stream(&config)
            .map_err(|e| e.to_string())?
            .take(N)
            .collect();
        if digest(&reference) != digest(&s.solutions) {
            report.fail(format!(
                "seed {}: routed stream differs from the in-process reference",
                s.seed
            ));
        }
        if !s.cached {
            report.fail(format!(
                "seed {}: the warm LOAD was not a registry hit",
                s.seed
            ));
        }
    }
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let fails = vec![f64::INFINITY; driven.failed as usize];
    let collect = |f: &dyn Fn(&Session) -> f64| -> Vec<f64> {
        sessions
            .iter()
            .map(f)
            .chain(fails.iter().copied())
            .collect()
    };
    let first = collect(&|s| ms(s.start, s.sample_reply));
    let sample = collect(&|s| ms(s.sample_sent, s.sample_reply));
    let load = collect(&|s| ms(s.load_sent, s.load_reply));
    let whole = collect(&|s| ms(s.start, s.status_reply));
    report.attempted = sessions.len() as u64 + driven.failed;
    report.failed = driven.failed;
    let delivered: usize = sessions.iter().map(|s| s.solutions.len()).sum();
    report.e2e("setup_s", median(&setup_s));
    report.e2e("unique_per_s", Some(delivered as f64 / driven.window_s));
    report.e2e("first_ms_p50", quantile(&first, 0.5));
    report.tail("tail.first_ms_p90", quantile(&first, 0.9));
    report.e2e("sample_ms_p50", quantile(&sample, 0.5));
    report.tail("tail.sample_ms_p90", quantile(&sample, 0.9));
    report.tail("load_ms_p50", quantile(&load, 0.5));
    report.e2e("session_ms_p50", quantile(&whole, 0.5));
    report.tail("tail.session_ms_p90", quantile(&whole, 0.9));
    report.e2e(
        "cpu_ms_per_op",
        Some(driven.cpu_ms / sessions.len().max(1) as f64),
    );
    report.e2e("peak_rss_mib", Some(driven.rss));
    report.notes.push(format!(
        "{} sessions by {USERS} users on {FLEETS} fleets in {:.1} s",
        sessions.len(),
        driven.window_s
    ));

    if ctx.trace {
        let delivered: Vec<Vec<bool>> = sessions
            .iter()
            .flat_map(|s| s.solutions.clone())
            .take(64)
            .collect();
        let mut layers = Layers::default();
        layers.validate(&cnf, &delivered);
        layers.measure(&Shape {
            text: &text,
            batch: Some(BATCH),
            n: N,
            backend: Backend::Threads(1),
            seed: sessions.first().map_or(0, |s| s.seed),
        })?;
        layers.report(&mut report);
        let delta = |name: &str| {
            driven
                .deltas
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| v)
                .sum::<f64>()
        };
        let hits = delta("serve.registry.hits");
        let misses = delta("serve.registry.misses");
        report.layer("registry.hit_ratio", hits / (hits + misses).max(1.0));
        report.layer("registry.compiles", delta("serve.registry.compiles"));
        report.layer("registry.disk_hits", delta("serve.registry.disk_hits"));
        report.layer("registry.evictions", delta("serve.registry.evictions"));
        report.layer("cache.writes", delta("serve.cache.writes"));
        report.layer(
            "serve.bytes_out_per_solution",
            delta("serve.bytes_out")
                / sessions
                    .iter()
                    .map(|s| s.solutions.len())
                    .sum::<usize>()
                    .max(1) as f64,
        );
        let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
        let epoch = traced
            .iter()
            .map(|s| s.start)
            .min()
            .unwrap_or_else(Instant::now);
        let mut tracer = Tracer::new(true, epoch);
        for (i, s) in traced.iter().enumerate() {
            let root = tracer.record("bench", None, i as u64, s.start, s.status_reply);
            tracer.record("wire", root, i as u64, s.load_sent, s.load_reply);
            tracer.record("wire", root, i as u64, s.sample_sent, s.sample_reply);
            tracer.record("wire", root, i as u64, s.sample_reply, s.status_reply);
        }
        let own = self_time_ms(tracer.spans());
        let n_traced = traced.len().max(1) as f64;
        report.layer(
            "self.wire_ms_per_op",
            own.get("wire").copied().unwrap_or(0.0) / n_traced,
        );
        report.layer(
            "self.bench_ms_per_op",
            own.get("bench").copied().unwrap_or(0.0) / n_traced,
        );
        let split = |traced: bool| -> Option<f64> {
            let v: Vec<f64> = sessions
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| ms(s.start, s.status_reply))
                .collect();
            median(&v)
        };
        if let (Some(u), Some(t)) = (split(false), split(true)) {
            report.layer("trace.overhead_pct", (t / u - 1.0) * 100.0);
        }
        for (name, value) in &driven.layer {
            report.layer(name, *value);
        }
        let path = ctx
            .work_dir
            .join(format!("spans-routed-unary-{}.jsonl", ctx.seed));
        write_spans(&path, tracer.spans()).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}

/// What the fleets measured, accumulated over the run.
#[derive(Default)]
struct Driven {
    window_s: f64,
    sessions: Vec<Session>,
    failed: u64,
    cpu_ms: f64,
    rss: f64,
    /// `STATS` counter deltas per fleet.
    deltas: Vec<(&'static str, f64)>,
    layer: Vec<(&'static str, f64)>,
}

/// Counters whose per-fleet deltas the traced run reports.
const DELTAS: [&str; 7] = [
    "serve.registry.hits",
    "serve.registry.misses",
    "serve.registry.compiles",
    "serve.registry.disk_hits",
    "serve.registry.evictions",
    "serve.cache.writes",
    "serve.bytes_out",
];

/// Drives one fleet for its slice of the window and checks its `STATS`
/// identities: the fleet compiled exactly the one warm formula and served
/// no error.
fn drive(
    ctx: &Ctx,
    report: &mut Report,
    fleet: &Fleet,
    text: &str,
    fp: Fingerprint,
    fleet_no: usize,
    out: &mut Driven,
) -> Result<(), String> {
    let router = fleet.router.addr.as_str();
    let before = stats(router)?;
    let pids = fleet.pids();
    let window = Duration::from_secs_f64(ctx.seconds / FLEETS as f64);
    let cpu0 = total_cpu_ms(&pids);
    let start = Instant::now();
    let results: Vec<(Vec<Session>, u64, Vec<String>)> = std::thread::scope(|scope| {
        let users: Vec<_> = (0..USERS)
            .map(|u| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut failed = 0;
                    let mut errors = Vec::new();
                    let mut j = 0u64;
                    while start.elapsed() < window {
                        let index = ((fleet_no as u64) << 32) | (j * USERS as u64 + u as u64);
                        let think = unit(ctx.derive(TAG_THINK, index)) * THINK_MS / 1e3;
                        std::thread::sleep(Duration::from_secs_f64(think));
                        let seed = ctx.derive(TAG_SESSION, index);
                        // In a traced run every other session of a user is
                        // traced, so both kinds share the fleet and the
                        // host's spells.
                        let trace = (ctx.trace && j % 2 == 1).then(|| {
                            TraceId::from_u128(((ctx.seed as u128) << 64) | (u128::from(index) + 1))
                        });
                        match session(router, text, fp, seed, trace) {
                            Ok(s) => done.push(s),
                            Err(e) => {
                                failed += 1;
                                errors.push(e.to_string());
                            }
                        }
                        j += 1;
                    }
                    (done, failed, errors)
                })
            })
            .collect();
        users
            .into_iter()
            .map(|h| h.join().expect("user thread panicked"))
            .collect()
    });
    out.window_s += start.elapsed().as_secs_f64();
    out.cpu_ms += total_cpu_ms(&pids) - cpu0;
    let rss: f64 = pids.iter().filter_map(|&p| peak_rss_mib(p)).sum();
    out.rss = out.rss.max(rss);
    let after = stats(router)?;
    for (done, failed, errors) in results {
        out.sessions.extend(done);
        out.failed += failed;
        for e in errors {
            report.fail(format!("session failed: {e}"));
        }
    }
    let compiles = after.counter("serve.registry.compiles").unwrap_or(0);
    if compiles != 1 {
        report.fail(format!(
            "{compiles} compiles across the fleet, expected the 1 warm formula"
        ));
    }
    let errors = after.counter("serve.errors").unwrap_or(0);
    if errors != 0 {
        report.fail(format!("the fleet served {errors} errors"));
    }
    for name in DELTAS {
        let delta =
            after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64;
        out.deltas.push((name, delta));
    }
    if ctx.trace && fleet_no == FLEETS - 1 {
        let mut client = Client::connect(router).map_err(|e| e.to_string())?;
        let trace = client
            .trace(Some(64), None, None)
            .map_err(|e| e.to_string())?;
        out.layer.extend(crate::wire::serve_spans(&trace));
        out.layer.extend(relay(fleet, text, fp, ctx)?);
    }
    Ok(())
}

/// The router's share of a session: the same sessions routed and sent
/// directly to the backend that owns the formula, interleaved; plus the
/// client-side JSON decode cost of the recorded v1 replies.
fn relay(
    fleet: &Fleet,
    text: &str,
    fp: Fingerprint,
    ctx: &Ctx,
) -> Result<Vec<(&'static str, f64)>, String> {
    let owner = fleet
        .backends
        .iter()
        .find(|b| {
            stats(&b.addr).is_ok_and(|s| s.counter("serve.registry.compiles").unwrap_or(0) > 0)
        })
        .ok_or("no backend owns the warm formula")?;
    let mut routed = (Vec::new(), Vec::new());
    let mut direct = (Vec::new(), Vec::new());
    for i in 0..RELAY_PAIRS {
        let seed = ctx.derive(TAG_SESSION, u64::MAX - i as u64);
        for (addr, out) in [
            (fleet.router.addr.as_str(), &mut routed),
            (owner.addr.as_str(), &mut direct),
        ] {
            let s = session(addr, text, fp, seed, None).map_err(|e| e.to_string())?;
            out.0
                .push(s.status_reply.duration_since(s.start).as_secs_f64() * 1e3);
            out.1
                .push(s.load_reply.duration_since(s.start).as_secs_f64() * 1e3);
        }
    }
    let diff = |a: &[f64], b: &[f64]| median(a).unwrap_or(0.0) - median(b).unwrap_or(0.0);

    // Raw v1 exchange through the router, to time the decode of its lines.
    let mut conn = TcpStream::connect(fleet.router.addr.as_str()).map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let params = SampleParams {
        n: N,
        batch: Some(BATCH),
        ..SampleParams::new(fp)
    };
    for request in [
        Request::Load {
            name: None,
            engine: None,
            source: LoadSource::Inline(text.to_string()),
        },
        Request::Sample(params),
        Request::Status,
    ] {
        let mut line = request.encode().encode();
        line.push('\n');
        conn.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        lines.push(reply);
    }
    let bytes: usize = lines.iter().map(String::len).sum();
    let mut reps = 0u32;
    let t = Instant::now();
    while reps < 100 || t.elapsed() < Duration::from_millis(50) {
        for line in &lines {
            std::hint::black_box(Json::parse(line.trim_end()).ok());
        }
        reps += 1;
    }
    let per_pass_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
    Ok(vec![
        ("router.relay_ms", diff(&routed.0, &direct.0)),
        ("router.first_reply_ms", diff(&routed.1, &direct.1)),
        (
            "json.decode_ms_per_mib",
            per_pass_ms / (bytes as f64 / (1024.0 * 1024.0)),
        ),
    ])
}
