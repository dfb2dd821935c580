//! The `bootstrap` workload: one caller in a closed loop runs full-slot
//! `Bootstrapper::bootstrap` at `CkksParams::bootstrap_testing()` (N = 2^10, L = 29,
//! dnum = 5) with fftIter 3 and EvalMod degree 159, on one `fab-par` worker.

use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use fab_ckks::bootstrap::BootstrapParams;
use fab_ckks::{
    Bootstrapper, Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator,
    GaloisKeys, KeyGenerator, RelinearizationKey, SecretKey,
};
use fab_core::{FabConfig, OpCostModel};
use fab_trace::phase;

use crate::probe::{self, Meter};
use crate::sink::LayerSink;
use crate::stats::{self, median};
use crate::{end_to_end_metrics, gate, gate_bitwise, repeated_setup, Config, Layers, Run};

/// Every refreshed ciphertext must decrypt to its input within 2^-PRECISION_FLOOR_BITS.
const PRECISION_FLOOR_BITS: f64 = 5.0;
/// The public phase functions, timed one after another, must account for the untraced
/// bootstrap run just before them within this share (either way). The two are separate
/// calls, so the bound also absorbs run-to-run timing noise on a shared machine.
const PHASE_RESIDUAL_BOUND: f64 = 0.25;

fn bootstrap_params() -> BootstrapParams {
    BootstrapParams {
        eval_mod_degree: 159,
        k_range: 16.0,
        fft_iter: 3,
        sparse_slots: None,
    }
}

struct Bench {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    rlk: RelinearizationKey,
    gks: GaloisKeys,
    bootstrapper: Bootstrapper,
}

/// A seeded level-0 input: its slot values and their encryption.
struct Input {
    values: Vec<f64>,
    ct: Ciphertext,
}

impl Bench {
    /// Context, keys and bootstrapper, then one warming bootstrap (it fills the linear
    /// transforms' NTT-diagonal caches, a cost that belongs to set-up).
    fn setup(seed: u64) -> Result<Self, String> {
        fab_par::set_threads(1);
        let ctx =
            CkksContext::new_arc(CkksParams::bootstrap_testing()).map_err(|e| e.to_string())?;
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
        let rlk = keygen.relinearization_key(&mut rng);
        let bootstrapper =
            Bootstrapper::new(ctx.clone(), bootstrap_params()).map_err(|e| e.to_string())?;
        let gks = keygen
            .galois_keys(&bootstrapper.required_rotations(), true, &mut rng)
            .map_err(|e| e.to_string())?;
        let bench = Self {
            encoder: Encoder::new(ctx.clone()),
            decryptor: Decryptor::new(ctx.clone(), sk),
            ctx,
            encryptor,
            rlk,
            gks,
            bootstrapper,
        };
        let warm = bench.input(seed, u64::MAX)?;
        bench.checked_bootstrap(&bench.bootstrapper, &warm)?;
        Ok(bench)
    }

    fn input(&self, seed: u64, index: u64) -> Result<Input, String> {
        let mut rng = ChaCha20Rng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let values: Vec<f64> = (0..self.ctx.slot_count())
            .map(|_| rng.gen_range(-0.4..0.4))
            .collect();
        let scale = self.ctx.params().default_scale();
        let pt = self
            .encoder
            .encode_real(&values, scale, 0)
            .map_err(|e| e.to_string())?;
        let ct = self
            .encryptor
            .encrypt(&pt, &mut rng)
            .map_err(|e| e.to_string())?;
        Ok(Input { values, ct })
    }

    /// Bits of precision of a refreshed ciphertext against its input's slot values.
    fn precision_bits(&self, refreshed: &Ciphertext, values: &[f64]) -> Result<f64, String> {
        let decoded = self.encoder.decode_real(
            &self
                .decryptor
                .decrypt(refreshed)
                .map_err(|e| e.to_string())?,
        );
        Ok(stats::precision_bits(stats::max_abs_error(
            &decoded, values,
        )))
    }

    /// Bootstraps `input` with `bootstrapper`, timing the call alone, and applies the
    /// precision gate. Returns the output, its seconds and its precision bits.
    fn checked_bootstrap(
        &self,
        bootstrapper: &Bootstrapper,
        input: &Input,
    ) -> Result<(Ciphertext, f64, f64), String> {
        let start = Instant::now();
        let out = bootstrapper
            .bootstrap(&input.ct, &self.rlk, &self.gks)
            .map_err(|e| format!("bootstrap failed: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        let bits = self.precision_bits(&out, &input.values)?;
        if bits < PRECISION_FLOOR_BITS {
            return Err(format!(
                "bootstrap precision {bits:.2} bits is below the {PRECISION_FLOOR_BITS} bit floor"
            ));
        }
        Ok((out, secs, bits))
    }
}

pub fn end_to_end(config: &Config) -> Result<Run, String> {
    let (bench, setup_s) = repeated_setup(3, || Bench::setup(config.seed))?;
    let mut unit_s = Vec::new();
    let mut bits = Vec::new();
    let start = Instant::now();
    for index in 0.. {
        if config.window_over(start) && !unit_s.is_empty() {
            break;
        }
        let input = bench.input(config.seed, index)?;
        let (_, secs, b) = bench.checked_bootstrap(&bench.bootstrapper, &input)?;
        unit_s.push(secs);
        bits.push(b);
    }
    let precision = median(&bits);
    Ok(Run {
        attempted: unit_s.len() as u64,
        failed: 0,
        lines: vec![
            stats::describe_timing("bootstrap_s", "s", &unit_s),
            format!(
                "bootstrap_precision_bits: median {precision:.2} bits (floor {PRECISION_FLOOR_BITS})"
            ),
        ],
        metrics: end_to_end_metrics(&setup_s, &unit_s, precision),
    })
}

/// Per-phase seconds of one bootstrap run through the public phase functions.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    mod_raise: f64,
    coeff_to_slot: f64,
    eval_mod: f64,
    slot_to_coeff: f64,
}

impl Phases {
    fn total(&self) -> f64 {
        self.mod_raise + self.coeff_to_slot + self.eval_mod + self.slot_to_coeff
    }
}

fn timed_phases(bench: &Bench, input: &Input) -> Result<Phases, String> {
    let bs = &bench.bootstrapper;
    let err = |e: fab_ckks::CkksError| e.to_string();
    let t0 = Instant::now();
    let raised = bs.mod_raise(&input.ct).map_err(err)?;
    let t1 = Instant::now();
    let (real, imag) = bs.coeff_to_slot(&raised, &bench.gks).map_err(err)?;
    let t2 = Instant::now();
    let real = bs.eval_mod(&real, &bench.rlk).map_err(err)?;
    let imag = bs.eval_mod(&imag, &bench.rlk).map_err(err)?;
    let t3 = Instant::now();
    let out = bs.slot_to_coeff(&real, &imag, &bench.gks).map_err(err)?;
    let t4 = Instant::now();
    let out = Evaluator::new(bench.ctx.clone())
        .match_scale(&out, input.ct.scale())
        .map_err(err)?;
    let bits = bench.precision_bits(&out, &input.values)?;
    if bits < PRECISION_FLOOR_BITS {
        return Err(format!(
            "phase-by-phase bootstrap precision {bits:.2} bits is below the floor"
        ));
    }
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(Phases {
        mod_raise: secs(t0, t1),
        coeff_to_slot: secs(t1, t2),
        eval_mod: secs(t2, t3),
        slot_to_coeff: secs(t3, t4),
    })
}

pub fn traced(config: &Config) -> Result<Run, String> {
    let bench = Bench::setup(config.seed)?;
    let sink = LayerSink::shared(true);
    let traced_bs = Bootstrapper::with_sink(bench.ctx.clone(), bootstrap_params(), sink.clone())
        .map_err(|e| e.to_string())?;
    bench.checked_bootstrap(&traced_bs, &bench.input(config.seed, u64::MAX)?)?;
    sink.take();

    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut phases = Vec::new();
    let mut first = None;
    let start = Instant::now();
    for index in 0.. {
        if config.window_over(start) && index >= 2 {
            break;
        }
        let input = bench.input(config.seed, index)?;
        let (plain, secs, _) = bench.checked_bootstrap(&bench.bootstrapper, &input)?;
        untraced_s.push(secs);

        let meter = Meter::start();
        let (observed, secs, _) = bench.checked_bootstrap(&traced_bs, &input)?;
        let metered = meter.stop();
        traced_s.push(secs);
        let seen = sink.take();
        gate_bitwise(
            "bootstrap",
            &observed.to_bytes(&bench.ctx),
            &plain.to_bytes(&bench.ctx),
        )?;
        match &first {
            None => first = Some((seen, metered)),
            Some((base, base_metered)) => {
                gate(
                    "op and kernel counts repeat exactly from bootstrap to bootstrap",
                    base.counts == seen.counts && *base_metered == metered,
                )?;
            }
        }
        phases.push(timed_phases(&bench, &input)?);
    }
    let (seen, metered) = first.expect("at least two traced bootstraps");
    let phase_median = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let bootstrap_s = median(&untraced_s);
    let mut layers = Layers {
        mod_raise_s: phase_median(|p| p.mod_raise),
        coeff_to_slot_s: phase_median(|p| p.coeff_to_slot),
        eval_mod_s: phase_median(|p| p.eval_mod),
        slot_to_coeff_s: phase_median(|p| p.slot_to_coeff),
        counts: seen.counts,
        ntt_forward: metered.ntt_forward as f64,
        ntt_inverse: metered.ntt_inverse as f64,
        bytes_read: metered.bytes_read as f64,
        bytes_written: metered.bytes_written as f64,
        workers: 1,
        overhead_ratio: median(&traced_s) / bootstrap_s - 1.0,
        ..Layers::default()
    };
    let residuals: Vec<f64> = phases
        .iter()
        .zip(&untraced_s)
        .map(|(p, &t)| stats::residual(p.total(), t))
        .collect();
    layers.phase_residual = median(&residuals);
    gate(
        &format!(
            "bootstrap phases sum to the bootstrap within {PHASE_RESIDUAL_BOUND} (residual {:.3})",
            layers.phase_residual
        ),
        layers.phase_residual.abs() <= PHASE_RESIDUAL_BOUND,
    )?;
    layers.ops = probe::op_times(&bench.ctx);

    let mut lines = vec![
        stats::describe_timing("untraced bootstrap_s", "s", &untraced_s),
        stats::describe_timing("traced bootstrap_s", "s", &traced_s),
    ];
    let trace = seen
        .trace
        .expect("the traced bootstrapper records its trace");
    lines.extend(model_column(&bench.ctx, &trace, &layers));
    Ok(Run {
        attempted: untraced_s.len() as u64,
        failed: 0,
        lines,
        metrics: layers.finish(bootstrap_s, &bench.ctx),
    })
}

/// The FAB model beside each measured phase: `OpCostModel::phase_costs` of the recorded
/// trace at the same parameters, and measured / model. Informational only; a phase the
/// trace visits several times (the HELR steps, once per sample) is summed over its visits.
pub fn model_column(ctx: &CkksContext, trace: &fab_trace::OpTrace, layers: &Layers) -> Vec<String> {
    let config = FabConfig::alveo_u280();
    let model = OpCostModel::new(config.clone(), ctx.params().clone());
    let mut per_label: Vec<(String, f64)> = Vec::new();
    for (label, cost) in model.phase_costs(trace) {
        let ms = cost.time_ms(&config);
        match per_label.iter_mut().find(|(l, _)| *l == label) {
            Some((_, total)) => *total += ms,
            None if !label.is_empty() => per_label.push((label, ms)),
            None => {}
        }
    }
    per_label
        .into_iter()
        .map(|(label, model_ms)| {
            let measured = match label.as_str() {
                phase::LR_REFRESH => layers.lr_refresh_s - layers.bootstrap_phases_s(),
                phase::MOD_RAISE => layers.mod_raise_s,
                phase::SUB_SUM => layers.sub_sum_s,
                phase::COEFF_TO_SLOT => layers.coeff_to_slot_s,
                phase::EVAL_MOD => layers.eval_mod_s,
                phase::SLOT_TO_COEFF => layers.slot_to_coeff_s,
                phase::LR_FORWARD => layers.lr_forward_s,
                phase::LR_AGGREGATE => layers.lr_aggregate_s,
                phase::LR_SIGMOID => layers.lr_sigmoid_s,
                phase::LR_GRADIENT => layers.lr_gradient_s,
                phase::LR_UPDATE => layers.lr_update_s,
                _ => f64::NAN,
            };
            format!(
                "FAB model {label}: measured {measured:.4} s, model {model_ms:.4} ms, measured/model {:.0}x",
                measured * 1e3 / model_ms
            )
        })
        .collect()
}
