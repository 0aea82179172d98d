//! `perfbench` — the htsat end-to-end and per-layer benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload stream-table2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload (`stream-table2`, `wire-mixed`,
//! `routed-unary`) for `--seconds`, checks every output, and prints one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for the workloads and metric
//! definitions.

mod layers;
mod routed;
mod spans;
mod stats;
mod sys;
mod table2;
mod wire;

use htsat_serve::json::Json;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("unique_per_s", "1/s"),
    ("first_ms_p50", "ms"),
    ("sample_ms_p50", "ms"),
    ("session_ms_p50", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not pass through reads 0. The first four entries are end-to-end
/// latencies too noisy on a shared 2-core host to gate: the p90s (`tail.*`)
/// and `load_ms_p50`, whose run-to-run spread reached 0.27-0.46 of the
/// median in some ten-seed sets. They are reported here, without a bound.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("load_ms_p50", "ms"),
    ("tail.first_ms_p90", "ms"),
    ("tail.sample_ms_p90", "ms"),
    ("tail.session_ms_p90", "ms"),
    ("cnf.parse_ms", "ms"),
    ("cnf.fingerprint_ms", "ms"),
    ("cnf.validate_us", "us"),
    ("transform.ms", "ms"),
    ("transform.ops_reduction", "ratio"),
    ("compile.ms", "ms"),
    ("kernel.gd_us_per_row", "us"),
    ("kernel.node_iters", "count"),
    ("round.ms", "ms"),
    ("round.valid_rate", "ratio"),
    ("round.harden_us_per_row", "us"),
    ("runtime.region_us", "us"),
    ("stream.dedup_us_per_candidate", "us"),
    ("stream.unique_rate", "ratio"),
    ("stream.rounds_per_request", "count"),
    ("json.decode_ms_per_mib", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.request_self_ms", "ms"),
    ("serve.bytes_out_per_solution", "B"),
    ("registry.hit_ratio", "ratio"),
    ("registry.compiles", "count"),
    ("registry.disk_hits", "count"),
    ("registry.evictions", "count"),
    ("cache.writes", "count"),
    ("router.relay_ms", "ms"),
    ("router.first_reply_ms", "ms"),
    ("generator.late_ms_p99", "ms"),
    ("self.engine_ms_per_op", "ms"),
    ("self.json_ms_per_op", "ms"),
    ("self.wire_ms_per_op", "ms"),
    ("self.bench_ms_per_op", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Settings of one invocation.
pub struct Ctx {
    /// Workload seed: every request seed, generated formula and arrival
    /// time derives from it.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory holding the `htsat-serve` and `htsat-router` binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory for caches and span dumps.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// A seed derived from the workload seed and a stream tag.
    pub fn derive(&self, tag: u64, index: u64) -> u64 {
        splitmix(splitmix(self.seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ index)
    }
}

/// One step of the SplitMix64 generator.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hashed seed.
pub fn unit(x: u64) -> f64 {
    (splitmix(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Digest of a solution sequence, order-sensitive.
pub fn digest(solutions: &[Vec<bool>]) -> u64 {
    let mut h = DefaultHasher::new();
    for s in solutions {
        s.len().hash(&mut h);
        for chunk in s.chunks(64) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i));
            word.hash(&mut h);
        }
    }
    h.finish()
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics by name.
    pub layer: Vec<(&'static str, f64)>,
    /// Free-form lines for the human summary on stderr.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) => self.e2e.push((name, v)),
            None => self.fail(format!("metric {name} could not be computed")),
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    /// Sets an ungated end-to-end latency, reported with the per-layer
    /// metrics; one that cannot be computed makes a traced run fail.
    pub fn tail(&mut self, name: &'static str, value: Option<f64>) {
        self.layer.push((name, value.unwrap_or(f64::NAN)));
    }

    fn metrics_json(&mut self, trace: bool) -> Json {
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let set = if trace { &self.layer } else { &self.e2e };
        let mut pairs = Vec::new();
        let mut missing = Vec::new();
        for &(name, unit) in wanted {
            let value = set.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v);
            let value = match (value, trace) {
                (Some(v), _) if v.is_finite() && (trace || v > 0.0) => v,
                // A layer the workload does not pass through reads 0.
                (None, true) => 0.0,
                _ => {
                    missing.push(name);
                    continue;
                }
            };
            pairs.push((
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ));
        }
        for name in missing {
            self.fail(format!("metric {name} is missing, zero or not finite"));
        }
        Json::Obj(pairs)
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            bin_dir: bin_dir.ok_or("--bin-dir is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
        },
    ))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --bin-dir DIR --work-dir DIR --workload \
                 stream-table2|wire-mixed|routed-unary --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        std::process::exit(2);
    }
    let started = Instant::now();
    let result = match workload.as_str() {
        "stream-table2" => table2::run(&ctx),
        "wire-mixed" => wire::run(&ctx),
        "routed-unary" => routed::run(&ctx),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {workload}: {msg}");
            std::process::exit(1);
        }
    };
    let metrics = report.metrics_json(ctx.trace);
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    eprintln!(
        "perfbench: {workload} seed {} trace {}: attempted {}, failed {}, {:.1} s",
        ctx.seed,
        u8::from(ctx.trace),
        report.attempted,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    let correct = report.errors.is_empty();
    for e in &report.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    // A run whose checks fail reports failure, not numbers.
    let metrics = if correct {
        metrics
    } else {
        Json::Obj(Vec::new())
    };
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.encode().trim_end());
    if !correct {
        std::process::exit(1);
    }
}
