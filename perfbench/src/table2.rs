//! `stream-table2`: an in-process closed loop over one paper-scale Table II
//! instance per family, streaming unique `gd` solutions through
//! `SampleEngine::stream` on `Backend::Threads(2)`.
//!
//! The loop runs *sweeps*: three requests each on `or` and `q`, two on
//! `s15850a` and one on `Prod-32`, each with a fresh seed. Per-instance
//! request shapes keep the number of rounds a request needs fixed for
//! almost every seed (so the percentiles do not jump between one and two
//! rounds) and keep a sweep near 0.25 s, so a 30 s run holds over 100
//! sweeps and every p90 has ten samples beyond it. The window is split
//! into segments, and every instance is parsed and prepared afresh before
//! each one: the set-up, spread over the run as the requests are.

use crate::layers::{Layers, Shape};
use crate::spans::{self_time_ms, write_spans, Tracer};
use crate::stats::{class_quantile, geomean, median, quantile};
use crate::sys::{peak_rss_mib, total_cpu_ms};
use crate::{digest, Ctx, Report};
use htsat_cnf::{dimacs, Cnf};
use htsat_core::{PreparedFormula, SampleEngine, SessionConfig, TransformConfig};
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_tensor::Backend;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// (instance, rows per round, unique solutions per request).
const INSTANCES: [(&str, usize, usize); 4] = [
    ("or-100-20-8-UC-10", 64, 100),
    ("90-10-1-q", 64, 100),
    ("s15850a_15_7", 16, 16),
    ("Prod-32", 8, 2),
];
/// Requests per instance in one sweep: the cheaper instances run more
/// often, so their tail percentiles rest on more samples.
const PER_SWEEP: [usize; 4] = [3, 3, 2, 1];
/// The instance whose prepare time is the in-process `load_ms_p50`:
/// `s15850a_15_7`, whose ~60 ms prepare is long enough to time steadily
/// (`or` and `q` take under 2 ms, `Prod-32` 1 s).
const LOADED: usize = 2;
const THREADS: usize = 2;
/// Segments of the timed window. Each starts with a set-up of its own,
/// so the median set-up spans the run instead of the host's state at its
/// start; set-ups timed only at the ends of the run followed the host's
/// slow and fast spells (a run-to-run spread of up to 0.32 over ten seeds).
const SEGMENTS: usize = 7;
/// Every this many sweeps, each request is re-run on `Backend::Sequential`
/// after the window and its digest compared (the determinism law).
const REFERENCE_EVERY: usize = 16;
const TAG_REQUEST: u64 = 1;

struct Request {
    instance: usize,
    seed: u64,
    digest: u64,
    delivered: usize,
}

/// Parses and prepares one instance: the in-process LOAD.
fn prepare(text: &str) -> Result<(Cnf, PreparedFormula), String> {
    let cnf = dimacs::parse_str(text).map_err(|e| e.to_string())?;
    let engine =
        PreparedFormula::prepare(&cnf, &TransformConfig::default()).map_err(|e| e.to_string())?;
    Ok((cnf, engine))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let texts: Vec<String> = INSTANCES
        .iter()
        .map(|(name, _, _)| {
            table2_instance(name, SuiteScale::Paper)
                .map(|inst| dimacs::to_string(&inst.cnf))
                .ok_or_else(|| format!("no Table II instance {name}"))
        })
        .collect::<Result<_, _>>()?;

    // Set-up: parse and prepare every instance. It runs before every
    // segment, outside the timed window; each segment serves requests
    // from the set prepared just before it.
    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>,
                  load_ms: &mut Vec<f64>|
     -> Result<Vec<(Cnf, PreparedFormula)>, String> {
        let t0 = Instant::now();
        let mut prepared = Vec::with_capacity(texts.len());
        for (i, text) in texts.iter().enumerate() {
            let t = Instant::now();
            prepared.push(prepare(text)?);
            if i == LOADED {
                load_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(prepared)
    };

    // The timed closed loop. In a traced run every other sweep is traced,
    // so both kinds see the same host spells; comparing them gives the
    // tracing overhead.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    let n_inst = INSTANCES.len();
    let mut first_ms: Vec<Vec<f64>> = vec![Vec::new(); n_inst];
    let mut sample_ms: Vec<Vec<f64>> = vec![Vec::new(); n_inst];
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); n_inst];
    let mut split_rates: [Vec<Vec<f64>>; 2] = [vec![Vec::new(); n_inst], vec![Vec::new(); n_inst]];
    let mut sweep_ms = Vec::new();
    let mut to_reference = Vec::new();
    let mut layers = Layers::default();
    let mut validate_samples: Vec<Vec<Vec<bool>>> = vec![Vec::new(); n_inst];
    // CPU of the timed segments, less that of the output checks inside
    // them; set-ups run between segments and are not counted.
    let mut cpu_ms = 0.0;
    let mut ops = 0u64;
    let segment = Duration::from_secs_f64(ctx.seconds / SEGMENTS as f64);
    let mut window_s = 0.0;
    let mut sweep = 0usize;
    let mut prepared = Vec::new();
    for _ in 0..SEGMENTS {
        drop(prepared);
        prepared = set_up(&mut setup_s, &mut load_ms)?;
        let cpu0 = total_cpu_ms(&[]);
        let start = Instant::now();
        while start.elapsed() < segment {
            let traced = ctx.trace && sweep % 2 == 1;
            tracer.set_enabled(traced);
            let mut this_sweep = 0.0;
            let requests = INSTANCES
                .iter()
                .enumerate()
                .flat_map(|(i, inst)| std::iter::repeat_n((i, *inst), PER_SWEEP[i]));
            for (k, (i, (name, batch, n))) in requests.enumerate() {
                let (cnf, engine) = &prepared[i];
                let req = (sweep * PER_SWEEP.iter().sum::<usize>() + k) as u64;
                let seed = ctx.derive(TAG_REQUEST, req);
                let config = SessionConfig {
                    seed,
                    backend: Backend::Threads(THREADS),
                    batch: Some(batch),
                };
                report.attempted += 1;
                let root = tracer.open("bench", None, req);
                let t0 = Instant::now();
                let span = tracer.open("engine", root, req);
                let mut stream = engine.stream(&config).map_err(|e| e.to_string())?;
                let mut solutions = Vec::with_capacity(n);
                let mut t_first = None;
                while solutions.len() < n {
                    match stream.next() {
                        Some(s) => {
                            t_first.get_or_insert_with(Instant::now);
                            solutions.push(s);
                        }
                        None => break,
                    }
                }
                // Unique solutions the last round found beyond `n` were paid
                // for and are delivered too, as `SampleEngine::sample` does.
                solutions.append(&mut stream.drain_ready());
                let t_done = Instant::now();
                tracer.close(span);
                drop(stream);
                tracer.close(root);

                let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
                if solutions.len() < n {
                    report.failed += 1;
                    first_ms[i].push(f64::INFINITY);
                    sample_ms[i].push(f64::INFINITY);
                    this_sweep = f64::INFINITY;
                    continue;
                }
                ops += 1;
                let done = ms(t_done);
                first_ms[i].push(ms(t_first.expect("at least one solution")));
                sample_ms[i].push(done);
                let rate = solutions.len() as f64 / (done / 1e3);
                rates[i].push(rate);
                split_rates[usize::from(traced)][i].push(rate);
                this_sweep += done;

                // Output checks, outside the timed request; their CPU is
                // taken out of `cpu_ms_per_op`.
                let c = total_cpu_ms(&[]);
                let mut seen = HashSet::with_capacity(solutions.len());
                for s in &solutions {
                    if !cnf.is_satisfied_by_bits(s) {
                        report.fail(format!("{name} seed {seed}: a solution violates the CNF"));
                    }
                    if !seen.insert(s) {
                        report.fail(format!("{name} seed {seed}: a solution repeats"));
                    }
                }
                if sweep.is_multiple_of(REFERENCE_EVERY) {
                    to_reference.push(Request {
                        instance: i,
                        seed,
                        digest: digest(&solutions),
                        delivered: solutions.len(),
                    });
                }
                if ctx.trace && validate_samples[i].len() < 64 {
                    validate_samples[i].extend(solutions.into_iter().take(16));
                }
                cpu_ms -= total_cpu_ms(&[]) - c;
            }
            sweep_ms.push(this_sweep);
            sweep += 1;
        }
        window_s += start.elapsed().as_secs_f64();
        cpu_ms += total_cpu_ms(&[]) - cpu0;
    }
    let rss = peak_rss_mib(std::process::id());

    // Determinism law: the same (formula, engine, seed) on one thread
    // yields the identical sequence.
    for r in &to_reference {
        let (_, batch, n) = INSTANCES[r.instance];
        let (_, engine) = &prepared[r.instance];
        let config = SessionConfig {
            seed: r.seed,
            backend: Backend::Sequential,
            batch: Some(batch),
        };
        let mut stream = engine.stream(&config).map_err(|e| e.to_string())?;
        let mut reference: Vec<Vec<bool>> = stream.by_ref().take(n).collect();
        reference.append(&mut stream.drain_ready());
        if reference.len() != r.delivered || digest(&reference) != r.digest {
            report.fail(format!(
                "{} seed {}: stream differs from the 1-thread reference",
                INSTANCES[r.instance].0, r.seed
            ));
        }
    }

    let per_instance_median: Vec<f64> = rates.iter().filter_map(|r| median(r)).collect();
    let unique_per_s = (per_instance_median.len() == n_inst)
        .then(|| geomean(&per_instance_median))
        .flatten();
    report.e2e("setup_s", median(&setup_s));
    report.e2e("unique_per_s", unique_per_s);
    report.e2e("first_ms_p50", class_quantile(&first_ms, 0.5));
    report.tail("tail.first_ms_p90", class_quantile(&first_ms, 0.9));
    report.e2e("sample_ms_p50", class_quantile(&sample_ms, 0.5));
    report.tail("tail.sample_ms_p90", class_quantile(&sample_ms, 0.9));
    report.tail("load_ms_p50", median(&load_ms));
    report.e2e("session_ms_p50", quantile(&sweep_ms, 0.5));
    report.tail("tail.session_ms_p90", quantile(&sweep_ms, 0.9));
    report.e2e("cpu_ms_per_op", Some(cpu_ms / ops.max(1) as f64));
    report.e2e("peak_rss_mib", rss);
    report.notes.push(format!(
        "{sweep} sweeps in {window_s:.1} s; median request rate per instance {:?} /s; {} reference checks",
        per_instance_median.iter().map(|r| r.round()).collect::<Vec<_>>(),
        to_reference.len()
    ));
    if sweep < 100 {
        report.notes.push(format!(
            "only {sweep} sweeps: the p90 figures have fewer than ten samples beyond them"
        ));
    }

    if ctx.trace {
        for (i, &(_, batch, n)) in INSTANCES.iter().enumerate() {
            layers.validate(&prepared[i].0, &validate_samples[i]);
            layers.measure(&Shape {
                text: &texts[i],
                batch: Some(batch),
                n,
                backend: Backend::Threads(THREADS),
                seed: ctx.derive(TAG_REQUEST, u64::MAX - i as u64),
            })?;
        }
        layers.report(&mut report);
        let spans = tracer.spans();
        let traced_ops = spans.iter().filter(|s| s.name == "bench").count().max(1) as f64;
        let own = self_time_ms(spans);
        for (metric, layer) in [
            ("self.engine_ms_per_op", "engine"),
            ("self.bench_ms_per_op", "bench"),
        ] {
            report.layer(metric, own.get(layer).copied().unwrap_or(0.0) / traced_ops);
        }
        let rate = |split: &Vec<Vec<f64>>| -> Option<f64> {
            let medians: Option<Vec<f64>> = split.iter().map(|r| median(r)).collect();
            geomean(&medians?)
        };
        if let (Some(untraced), Some(traced)) = (rate(&split_rates[0]), rate(&split_rates[1])) {
            report.layer("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
        }
        let path = ctx
            .work_dir
            .join(format!("spans-stream-table2-{}.jsonl", ctx.seed));
        write_spans(&path, spans).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}
