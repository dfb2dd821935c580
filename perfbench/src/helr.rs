//! The `helr` workload: encrypted logistic regression with a sparse-slot refresh every
//! iteration (`EncryptedLogisticRegression::with_bootstrapping` at
//! `CkksParams::bootstrap_testing()`) and a durable checkpoint after each iteration. One
//! unit is one iteration — load, refresh, step and checkpoint — run by resuming the previous
//! iteration's checkpoint with `resume_with_refresh_checkpointed`.
//!
//! The end-to-end run uses one `fab-par` worker: on a machine shared with other tenants a
//! second worker's iteration time swings with their load (2.4 s to 5.6 s between runs on a
//! 2-CPU container), far beyond any usable bound. The traced run measures the two-worker
//! iteration beside the one-worker one instead (`par.speedup_2w`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fab_ckks::{CkksContext, CkksParams};
use fab_lr::{
    polynomial_sigmoid, synthetic_mnist_like, CheckpointPolicy, Dataset,
    EncryptedLogisticRegression, EncryptedTrainingReport, TrainingCheckpoint,
};
use fab_trace::{noop_sink, phase, TraceSink};

use crate::probe::{self, Meter};
use crate::sink::LayerSink;
use crate::stats::{self, median};
use crate::{
    end_to_end_metrics, gate, gate_bitwise, repeated_setup, Config, Layers, Run, PAR_PROBE_WORKERS,
};

const FEATURES: usize = 16;
const SPARSE_SLOTS: usize = 128;
const BATCH: usize = 8;
const SAMPLES: usize = 32;
const LEARNING_RATE: f64 = 1.0;
const WORKERS: usize = 1;
/// Decrypted weights must match the plaintext mirror of the same iteration within this.
const WEIGHT_TOLERANCE: f64 = 1.0 / 128.0;
/// Refresh, step and checkpoint must account for the iteration within this share.
const ITERATION_RESIDUAL_BOUND: f64 = 0.15;

struct Bench {
    ctx: Arc<CkksContext>,
    data: Dataset,
    trainer: EncryptedLogisticRegression,
    /// The checkpoint each iteration resumes from and overwrites.
    path: PathBuf,
    /// Iterations the checkpoint holds.
    iteration: usize,
    /// Decrypted weights held by the checkpoint (features only).
    weights: Vec<f64>,
}

fn policy(path: &Path) -> CheckpointPolicy<'_> {
    CheckpointPolicy {
        every_iterations: 1,
        path,
    }
}

fn trainer(
    ctx: &Arc<CkksContext>,
    seed: u64,
    sink: Arc<dyn TraceSink>,
) -> Result<EncryptedLogisticRegression, String> {
    EncryptedLogisticRegression::with_bootstrapping(ctx.clone(), FEATURES, SPARSE_SLOTS, seed, sink)
        .map_err(|e| e.to_string())
}

/// One plaintext iteration of the encrypted circuit: per sample, `z = <w, x>`, error
/// `σ(z) − y` with the same polynomial sigmoid, gradient `error · x · lr / batch`.
fn mirror_step(weights: &[f64], data: &Dataset, iteration: usize) -> Vec<f64> {
    let batches: Vec<(Vec<&[f64]>, Vec<f64>)> = data.batches(BATCH).collect();
    let (rows, labels) = &batches[iteration % batches.len()];
    let mut gradient = vec![0.0; weights.len()];
    for (row, label) in rows.iter().zip(labels) {
        let z: f64 = row.iter().zip(weights).map(|(x, w)| x * w).sum();
        let error = polynomial_sigmoid(z) - label;
        for (g, x) in gradient.iter_mut().zip(row.iter()) {
            *g += error * x * LEARNING_RATE / rows.len() as f64;
        }
    }
    weights.iter().zip(&gradient).map(|(w, g)| w - g).collect()
}

fn features(report: &EncryptedTrainingReport) -> Vec<f64> {
    report.weights[..FEATURES].to_vec()
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("checkpoint {}: {e}", path.display()))
}

fn copy(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to)
        .map(drop)
        .map_err(|e| format!("checkpoint copy: {e}"))
}

impl Bench {
    /// Context, keys and data, the first iteration (which writes the first checkpoint), and
    /// one warming iteration with its refresh.
    fn setup(config: &Config) -> Result<Self, String> {
        fab_par::set_threads(WORKERS);
        let ctx =
            CkksContext::new_arc(CkksParams::bootstrap_testing()).map_err(|e| e.to_string())?;
        let trainer = trainer(&ctx, config.seed, noop_sink())?;
        let mut bench = Self {
            data: synthetic_mnist_like(SAMPLES, FEATURES, config.seed),
            path: config.dir.join("helr.ckpt"),
            ctx,
            trainer,
            iteration: 1,
            weights: Vec::new(),
        };
        let first = bench
            .trainer
            .train_with_refresh_checkpointed(
                &bench.data,
                1,
                BATCH,
                LEARNING_RATE,
                policy(&bench.path),
            )
            .map_err(|e| format!("first iteration failed: {e}"))?;
        bench.weights = features(&first);
        bench.step()?;
        Ok(bench)
    }

    /// Runs the next iteration from the checkpoint at `out` (the current checkpoint or a copy
    /// of it), overwriting it with its successor. Returns the report and the iteration's
    /// seconds; the benchmark's state is left as it was.
    fn resume(
        &mut self,
        trainer: Option<&mut EncryptedLogisticRegression>,
        out: &Path,
    ) -> Result<(EncryptedTrainingReport, f64), String> {
        let trainer = trainer.unwrap_or(&mut self.trainer);
        let start = Instant::now();
        let report = trainer
            .resume_with_refresh_checkpointed(
                &self.data,
                self.iteration + 1,
                BATCH,
                LEARNING_RATE,
                policy(out),
            )
            .map_err(|e| format!("iteration {} failed: {e}", self.iteration + 1))?;
        let secs = start.elapsed().as_secs_f64();
        Ok((report, secs))
    }

    /// Checks an iteration's weights against the plaintext mirror; returns precision bits.
    fn check(&self, report: &EncryptedTrainingReport) -> Result<f64, String> {
        let mirror = mirror_step(&self.weights, &self.data, self.iteration);
        let error = stats::max_abs_error(&features(report), &mirror);
        if error > WEIGHT_TOLERANCE {
            return Err(format!(
                "iteration {} weights differ from the plaintext mirror by {error:.3e} (tolerance {WEIGHT_TOLERANCE:.3e})",
                self.iteration + 1
            ));
        }
        Ok(stats::precision_bits(error))
    }

    /// One checked iteration on the current checkpoint; advances the state. Returns the
    /// iteration's seconds and precision bits.
    fn step(&mut self) -> Result<(f64, f64), String> {
        let path = self.path.clone();
        let (report, secs) = self.resume(None, &path)?;
        let bits = self.check(&report)?;
        self.iteration += 1;
        self.weights = features(&report);
        Ok((secs, bits))
    }
}

pub fn end_to_end(config: &Config) -> Result<Run, String> {
    let (mut bench, setup_s) = repeated_setup(3, || Bench::setup(config))?;
    let before_last = config.dir.join("before-last.ckpt");
    let (mut unit_s, mut bits) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while !config.window_over(start) || unit_s.is_empty() {
        copy(&bench.path, &before_last)?;
        let (secs, b) = bench.step()?;
        unit_s.push(secs);
        bits.push(b);
    }
    // Resuming the last iteration's input again must reproduce its checkpoint bit for bit.
    bench.iteration -= 1;
    let (repeat, _) = bench.resume(None, &before_last)?;
    bench.iteration += 1;
    gate_bitwise(
        "repeated one-iteration resume",
        &read(&before_last)?,
        &read(&bench.path)?,
    )?;
    let repeat_bits: Vec<u64> = features(&repeat).iter().map(|w| w.to_bits()).collect();
    let last_bits: Vec<u64> = bench.weights.iter().map(|w| w.to_bits()).collect();
    gate(
        "repeated resume decrypts to identical weights",
        repeat_bits == last_bits,
    )?;

    let precision = median(&bits);
    Ok(Run {
        attempted: unit_s.len() as u64,
        failed: 0,
        lines: vec![
            stats::describe_timing("helr_iter_s", "s", &unit_s),
            format!(
                "helr_precision_bits: median {precision:.2} bits against the plaintext mirror (tolerance {WEIGHT_TOLERANCE})"
            ),
        ],
        metrics: end_to_end_metrics(&setup_s, &unit_s, precision),
    })
}

/// Iteration time on one worker over iteration time on `PAR_PROBE_WORKERS`, both resuming
/// the same checkpoint; the two outputs must be bitwise equal.
fn parallel_speedup(bench: &mut Bench, config: &Config) -> Result<f64, String> {
    let (one, many) = (config.dir.join("one.ckpt"), config.dir.join("many.ckpt"));
    copy(&bench.path, &one)?;
    copy(&bench.path, &many)?;
    let (_, one_s) = bench.resume(None, &one)?;
    fab_par::set_threads(PAR_PROBE_WORKERS);
    let timed = bench.resume(None, &many);
    fab_par::set_threads(WORKERS);
    let (_, many_s) = timed?;
    gate_bitwise(
        "HELR iteration on two workers against one",
        &read(&many)?,
        &read(&one)?,
    )?;
    Ok(one_s / many_s)
}

pub fn traced(config: &Config) -> Result<Run, String> {
    let mut bench = Bench::setup(config)?;
    let sink = LayerSink::shared(true);
    let mut observed = trainer(&bench.ctx, config.seed, sink.clone())?;
    let traced_path = config.dir.join("traced.ckpt");
    // Warm the traced trainer's caches on a copy, exactly as set-up warmed the untraced one.
    copy(&bench.path, &traced_path)?;
    bench.resume(Some(&mut observed), &traced_path)?;
    sink.take();

    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut trace = None;
    let mut reports = Vec::new();
    let start = Instant::now();
    while !config.window_over(start) || untraced_s.len() < 2 {
        copy(&bench.path, &traced_path)?;
        let meter = Meter::start();
        let (report, secs) = bench.resume(Some(&mut observed), &traced_path)?;
        let metered = meter.stop();
        let mut seen = sink.take();
        trace = trace.or(seen.trace.take());
        traced_s.push(secs);
        let traced_weights = features(&report);

        let (secs, _) = bench.step()?;
        untraced_s.push(secs);
        gate_bitwise("HELR checkpoint", &read(&traced_path)?, &read(&bench.path)?)?;
        gate(
            "traced HELR weights equal untraced weights bit for bit",
            traced_weights
                .iter()
                .zip(&bench.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        )?;
        match &first {
            None => first = Some((seen.counts, metered)),
            Some((counts, base)) => gate(
                "op and kernel counts repeat exactly from iteration to iteration",
                *counts == seen.counts && *base == metered,
            )?,
        }
        reports.push(seen);
    }
    let (counts, metered) = first.expect("at least two traced iterations");
    let phase = |label: &str| median(&reports.iter().map(|r| r.phase(label)).collect::<Vec<_>>());
    let checkpoint =
        TrainingCheckpoint::load(&bench.path, &bench.ctx).map_err(|e| e.to_string())?;
    let scratch = config.dir.join("isolated.ckpt");
    let mut save_s = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        checkpoint
            .save_atomic(&scratch, &bench.ctx)
            .map_err(|e| format!("checkpoint save: {e}"))?;
        save_s.push(start.elapsed().as_secs_f64());
    }

    let iteration_s = median(&untraced_s);
    let mut layers = Layers {
        mod_raise_s: phase(phase::MOD_RAISE),
        sub_sum_s: phase(phase::SUB_SUM),
        coeff_to_slot_s: phase(phase::COEFF_TO_SLOT),
        eval_mod_s: phase(phase::EVAL_MOD),
        slot_to_coeff_s: phase(phase::SLOT_TO_COEFF),
        lr_forward_s: phase(phase::LR_FORWARD),
        lr_aggregate_s: phase(phase::LR_AGGREGATE),
        lr_sigmoid_s: phase(phase::LR_SIGMOID),
        lr_gradient_s: phase(phase::LR_GRADIENT),
        lr_update_s: phase(phase::LR_UPDATE),
        lr_checkpoint_s: median(&save_s),
        counts,
        ntt_forward: metered.ntt_forward as f64,
        ntt_inverse: metered.ntt_inverse as f64,
        bytes_read: metered.bytes_read as f64,
        bytes_written: metered.bytes_written as f64,
        workers: WORKERS,
        overhead_ratio: median(&traced_s) / iteration_s - 1.0,
        ..Layers::default()
    };
    let bootstrap_phases = layers.bootstrap_phases_s();
    layers.lr_refresh_s = phase(phase::LR_REFRESH) + bootstrap_phases;
    layers.lr_step_s = layers.lr_forward_s
        + layers.lr_aggregate_s
        + layers.lr_sigmoid_s
        + layers.lr_gradient_s
        + layers.lr_update_s;
    layers.phase_residual = stats::residual(bootstrap_phases, layers.lr_refresh_s);
    layers.lr_residual = stats::residual(
        layers.lr_refresh_s + layers.lr_step_s + layers.lr_checkpoint_s,
        median(&traced_s),
    );
    gate(
        &format!(
            "refresh + step + checkpoint sum to the iteration within {ITERATION_RESIDUAL_BOUND} (residual {:.3})",
            layers.lr_residual
        ),
        layers.lr_residual.abs() <= ITERATION_RESIDUAL_BOUND,
    )?;
    layers.speedup = parallel_speedup(&mut bench, config)?;
    layers.ops = probe::op_times(&bench.ctx);
    let mut lines = vec![
        stats::describe_timing("untraced helr_iter_s", "s", &untraced_s),
        stats::describe_timing("traced helr_iter_s", "s", &traced_s),
    ];
    let trace = trace.expect("the traced trainer records its trace");
    lines.extend(crate::bootstrap::model_column(&bench.ctx, &trace, &layers));
    Ok(Run {
        attempted: untraced_s.len() as u64,
        failed: 0,
        lines,
        metrics: layers.finish(iteration_s, &bench.ctx),
    })
}
