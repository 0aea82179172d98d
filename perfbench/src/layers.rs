//! Per-layer measurements for the traced run: each times one layer's public
//! function from outside, on the workload's own formulas and request
//! shapes.

use crate::stats::{geomean, median};
use crate::Report;
use htsat_cnf::{dimacs, Cnf, Fingerprint};
use htsat_core::compile::{compile, CompiledCircuit};
use htsat_core::transform::transform_with_config;
use htsat_core::{
    PreparedFormula, SampleEngine, SampleStream, SamplerConfig, SessionConfig, StopToken,
    TransformConfig, TransformResult,
};
use htsat_runtime::RoundSource;
use htsat_tensor::Backend;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A formula as one workload prepares or samples it.
pub struct Shape<'a> {
    /// DIMACS text, as the system receives it.
    pub text: &'a str,
    /// Request shape: rows per round (`None`: the formula is only loaded,
    /// never sampled).
    pub batch: Option<usize>,
    /// Unique solutions per request.
    pub n: usize,
    /// Backend the system samples it with.
    pub backend: Backend,
    /// Seed of the measured session.
    pub seed: u64,
}

/// Repeats `f` at least `min_reps` times and until `budget` has passed
/// (at most `max_reps`); returns the median duration in milliseconds.
fn time_ms(min_reps: usize, max_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (samples.len() < max_reps && started.elapsed() < budget) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples).unwrap_or(0.0)
}

/// A round source replaying recorded rounds, so the stream's own dedup work
/// can be timed without the rounds that produced them.
struct Replay {
    rounds: Vec<Vec<Vec<bool>>>,
    next: usize,
    round_size: usize,
}

impl RoundSource for Replay {
    type Item = Vec<bool>;

    fn round(&mut self, _stop: &StopToken) -> Vec<Vec<bool>> {
        let round = self.rounds.get_mut(self.next).map(std::mem::take);
        self.next += 1;
        round.unwrap_or_default()
    }

    fn round_size(&self) -> usize {
        self.round_size
    }
}

/// Accumulates per-formula layer measurements of one workload.
#[derive(Default)]
pub struct Layers {
    parse_ms: f64,
    fingerprint_ms: f64,
    transform_ms: f64,
    compile_ms: f64,
    ops_reduction: Vec<f64>,
    gd_us_per_row: Vec<f64>,
    node_iters: f64,
    round_ms: Vec<f64>,
    valid_rate: Vec<f64>,
    harden_us_per_row: Vec<f64>,
    region_us: Vec<f64>,
    dedup_us: Vec<f64>,
    unique_rate: Vec<f64>,
    rounds_per_request: Vec<f64>,
    validate_us: Vec<f64>,
}

impl Layers {
    /// Measures the prepare-path layers (cnf, transform, kernel) on one
    /// formula and, when it is sampled, the round, runtime and stream
    /// layers at its request shape.
    pub fn measure(&mut self, shape: &Shape<'_>) -> Result<(), String> {
        let budget = Duration::from_millis(300);
        self.parse_ms += time_ms(1, 5, budget, || {
            black_box(dimacs::parse_str(black_box(shape.text)).ok());
        });
        let cnf = dimacs::parse_str(shape.text).map_err(|e| e.to_string())?;
        self.fingerprint_ms += time_ms(1, 5, budget, || {
            black_box(Fingerprint::of(black_box(&cnf)));
        });
        let config = TransformConfig::default();
        let mut transformed = None;
        self.transform_ms += time_ms(1, 3, budget, || {
            transformed = Some(transform_with_config(&cnf, &config));
        });
        let transformed = transformed
            .expect("timed at least once")
            .map_err(|e| e.to_string())?;
        self.ops_reduction
            .push(transformed.stats.ops_reduction().max(f64::MIN_POSITIVE));
        let mut compiled = None;
        self.compile_ms += time_ms(1, 3, budget, || {
            compiled = Some(compile(&transformed));
        });
        let compiled = compiled.expect("timed at least once");
        let Some(batch) = shape.batch else {
            return Ok(());
        };
        self.kernel(&compiled);
        self.harden(&transformed, &compiled, shape.seed);
        let engine = PreparedFormula::from_transformed(&cnf, &config, transformed);
        let rounds = self.round(&engine, shape, batch)?;
        self.stream(rounds, shape.n, batch);
        self.region(shape.backend, batch);
        Ok(())
    }

    fn kernel(&mut self, compiled: &CompiledCircuit) {
        let iterations = SamplerConfig::default().iterations;
        let lr = SamplerConfig::default().learning_rate;
        let kernel = &compiled.kernel;
        let mut ws = kernel.workspace();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let init: Vec<f32> = (0..kernel.num_inputs())
            .map(|_| {
                state = crate::splitmix(state);
                (state >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
            })
            .collect();
        let mut row = init.clone();
        let ms = time_ms(3, 1000, Duration::from_millis(200), || {
            row.copy_from_slice(&init);
            for _ in 0..iterations {
                black_box(kernel.fused_gd_step(&mut row, lr, &mut ws));
            }
        });
        self.gd_us_per_row.push(ms * 1e3);
        self.node_iters += (kernel.num_nodes() * iterations) as f64;
    }

    fn harden(&mut self, transformed: &TransformResult, compiled: &CompiledCircuit, seed: u64) {
        let inputs: Vec<bool> = (0..compiled.num_inputs() as u64)
            .map(|i| crate::splitmix(seed ^ i) & 1 == 1)
            .collect();
        let ms = time_ms(3, 1000, Duration::from_millis(200), || {
            let bits = transformed.assignment_from_inputs(
                |v| compiled.column_of(v).is_some_and(|c| inputs[c]),
                |_| false,
            );
            black_box(bits);
        });
        self.harden_us_per_row.push(ms * 1e3);
    }

    /// Times `RoundSource::round` on a fresh engine session; returns the
    /// recorded rounds for the stream replay.
    fn round(
        &mut self,
        engine: &PreparedFormula,
        shape: &Shape<'_>,
        batch: usize,
    ) -> Result<Vec<Vec<Vec<bool>>>, String> {
        let config = SessionConfig {
            seed: shape.seed,
            backend: shape.backend,
            batch: Some(batch),
        };
        let mut session = engine.session(&config).map_err(|e| e.to_string())?;
        let stop = StopToken::new();
        let mut rounds = Vec::new();
        let mut times = Vec::new();
        let mut valid = 0usize;
        let started = Instant::now();
        // Enough rounds to serve one request twice over, and at least 3.
        let mut seen = std::collections::HashSet::new();
        while rounds.len() < 3
            || (seen.len() < 2 * shape.n && started.elapsed() < Duration::from_secs(2))
        {
            let t = Instant::now();
            let round = session.round(&stop);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            valid += round.len();
            seen.extend(round.iter().cloned());
            rounds.push(round);
            if rounds.len() >= 64 {
                break;
            }
        }
        self.round_ms.push(median(&times).unwrap_or(0.0));
        self.valid_rate
            .push((valid as f64 / (rounds.len() * batch) as f64).max(f64::MIN_POSITIVE));
        Ok(rounds)
    }

    fn stream(&mut self, rounds: Vec<Vec<Vec<bool>>>, n: usize, batch: usize) {
        let mut samples = Vec::new();
        let mut unique = 0.0;
        let mut rounds_used = 0.0;
        for _ in 0..5 {
            let replay = Replay {
                rounds: rounds.clone(),
                next: 0,
                round_size: batch,
            };
            let t = Instant::now();
            let mut stream = SampleStream::new(replay);
            let mut taken = stream.by_ref().take(n).count();
            taken += stream.drain_ready().len();
            let elapsed = t.elapsed().as_secs_f64() * 1e6;
            let stats = *stream.stats();
            drop(stream);
            let candidates = stats.valid.max(1) as f64;
            samples.push(elapsed / candidates);
            unique = taken as f64 / candidates;
            rounds_used = stats.rounds as f64;
        }
        self.dedup_us.push(median(&samples).unwrap_or(0.0));
        self.unique_rate.push(unique.max(f64::MIN_POSITIVE));
        self.rounds_per_request.push(rounds_used);
    }

    fn region(&mut self, backend: Backend, batch: usize) {
        let mut rows = vec![0.0f32; batch];
        let ms = time_ms(20, 20_000, Duration::from_millis(100), || {
            black_box(backend.for_each_row(&mut rows, 1, |b, row| {
                row[0] += 1.0;
                b as f64
            }));
        });
        self.region_us.push(ms * 1e3);
    }

    /// Times `Cnf::is_satisfied_by_bits` over delivered solutions.
    pub fn validate(&mut self, cnf: &Cnf, solutions: &[Vec<bool>]) {
        if solutions.is_empty() {
            return;
        }
        let t = Instant::now();
        for s in solutions {
            black_box(cnf.is_satisfied_by_bits(black_box(s)));
        }
        self.validate_us
            .push(t.elapsed().as_secs_f64() * 1e6 / solutions.len() as f64);
    }

    /// Writes the accumulated measurements. Set-up costs (parse, fingerprint,
    /// transform, compile) add up over the workload's formulas; per-row,
    /// per-round and per-solution costs and rates are geometric means over
    /// them; counts add up.
    pub fn report(&self, report: &mut Report) {
        let g = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                geomean(v).unwrap_or(0.0)
            }
        };
        report.layer("cnf.parse_ms", self.parse_ms);
        report.layer("cnf.fingerprint_ms", self.fingerprint_ms);
        report.layer("cnf.validate_us", g(&self.validate_us));
        report.layer("transform.ms", self.transform_ms);
        report.layer("transform.ops_reduction", g(&self.ops_reduction));
        report.layer("compile.ms", self.compile_ms);
        report.layer("kernel.gd_us_per_row", g(&self.gd_us_per_row));
        report.layer("kernel.node_iters", self.node_iters);
        report.layer("round.ms", g(&self.round_ms));
        report.layer("round.valid_rate", g(&self.valid_rate));
        report.layer("round.harden_us_per_row", g(&self.harden_us_per_row));
        report.layer("runtime.region_us", g(&self.region_us));
        report.layer("stream.dedup_us_per_candidate", g(&self.dedup_us));
        report.layer("stream.unique_rate", g(&self.unique_rate));
        report.layer(
            "stream.rounds_per_request",
            self.rounds_per_request.iter().sum::<f64>(),
        );
    }
}
