//! The FAB reproduction's benchmark: one command per workload that sets the system up,
//! measures it for a fixed time, checks every output, and prints each metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bootstrap|helr|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it runs the
//! workload once untraced and once through benchmark-owned observers, and reports the
//! per-layer breakdown instead. The last line of standard output is one JSON object. A
//! failed correctness gate prints its reason to standard error and exits with code 1
//! without reporting any number.

mod bootstrap;
mod helr;
mod probe;
mod serve;
mod sink;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a workload run hands back for printing.
#[derive(Debug)]
pub struct Run {
    /// Units of work attempted in the measured window.
    pub attempted: u64,
    /// Units that failed or were refused.
    pub failed: u64,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// The metrics of the JSON result.
    pub metrics: Vec<Metric>,
}

/// Settings every workload receives.
#[derive(Debug)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Scratch directory for journals and checkpoints, inside the working directory.
    pub dir: PathBuf,
}

impl Config {
    /// Whether the measured window that started at `start` is over.
    pub fn window_over(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Times `setup` `repeats` times, keeping the last result; returns it and every time.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one setup"), times))
}

/// The end-to-end metrics every workload reports, from its setup times, the client-observed
/// seconds of each unit of work, and the median precision of its outputs.
///
/// Requests per second is printed by the serve workload but is not one of these metrics:
/// with one closed-loop caller it is the inverse of the mean latency, and on a shared
/// machine the mean follows the neighbours' load too closely (its spread over ten serve
/// runs was 0.30, against 0.17 for the median) to hold any bound.
pub fn end_to_end_metrics(setup_s: &[f64], unit_s: &[f64], precision_bits: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: stats::median(setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mib",
            value: probe::peak_rss_mib(),
            unit: "MiB",
        },
        Metric {
            name: "latency_p50_ms",
            value: stats::median(unit_s) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "precision_bits",
            value: precision_bits,
            unit: "bits",
        },
    ]
}

/// Worker count of the `fab-par` probes: dispatch cost everywhere, speed-up on `helr`.
pub const PAR_PROBE_WORKERS: usize = 2;

/// Every per-layer metric, with 0 for the layers and parts a workload never exercises.
#[derive(Debug, Default)]
pub struct Layers {
    pub mod_raise_s: f64,
    pub sub_sum_s: f64,
    pub coeff_to_slot_s: f64,
    pub eval_mod_s: f64,
    pub slot_to_coeff_s: f64,
    pub phase_residual: f64,
    /// Ops recorded over `units` units of work (0 is read as 1).
    pub counts: fab_trace::OpCounts,
    pub units: f64,
    pub ops: probe::OpTimes,
    pub op_attributed_share: f64,
    pub ntt_forward: f64,
    pub ntt_inverse: f64,
    pub bytes_read: f64,
    pub bytes_written: f64,
    pub rows: probe::KernelRows,
    pub ntt_time_share: f64,
    pub workers: usize,
    pub effective_cores: f64,
    pub dispatch_us: f64,
    /// Unit time on one worker over unit time on [`PAR_PROBE_WORKERS`] (measured on `helr`).
    pub speedup: f64,
    pub lr_refresh_s: f64,
    pub lr_step_s: f64,
    pub lr_checkpoint_s: f64,
    pub lr_forward_s: f64,
    pub lr_aggregate_s: f64,
    pub lr_sigmoid_s: f64,
    pub lr_gradient_s: f64,
    pub lr_update_s: f64,
    pub lr_residual: f64,
    pub serve_queue_us: f64,
    pub serve_prefetch_us: f64,
    pub serve_execute_us: f64,
    pub serve_journal_us: f64,
    pub serve_cache_hit_ratio: f64,
    pub serve_prefetch_useful_ratio: f64,
    pub serve_evictions_per_req: f64,
    pub serve_key_bytes_fetched_per_req: f64,
    pub store_syncs_per_req: f64,
    pub store_dir_syncs_per_req: f64,
    pub store_sync_us: f64,
    pub store_bytes_appended_per_req: f64,
    pub overhead_ratio: f64,
}

impl Layers {
    /// Seconds in the bootstrap phases per unit.
    pub fn bootstrap_phases_s(&self) -> f64 {
        self.mod_raise_s
            + self.sub_sum_s
            + self.coeff_to_slot_s
            + self.eval_mod_s
            + self.slot_to_coeff_s
    }

    /// Recorded ops of one kind per unit of work.
    fn per_unit(&self, count: u64) -> f64 {
        count as f64 / self.units.max(1.0)
    }

    /// Key switches per unit: relinearisations, rotations (hoisted ones included) and
    /// conjugations.
    pub fn key_switches(&self) -> f64 {
        let c = &self.counts;
        self.per_unit(c.multiply + c.rotate + c.rotate_hoisted + c.conjugate)
    }

    /// Σ(op count × isolated op time) in seconds per unit: full rotations and conjugations
    /// are priced as a key switch, hoisted rotations at their in-batch time.
    pub fn op_attributed_s(&self) -> f64 {
        let c = &self.counts;
        let o = &self.ops;
        (self.per_unit(c.multiply) * o.multiply_rescale_us
            + self.per_unit(c.rotate + c.conjugate) * o.key_switch_us
            + self.per_unit(c.rotate_hoisted) * o.rotate_hoisted_us
            + self.per_unit(c.multiply_plain) * o.multiply_plain_ntt_us)
            * 1e-6
    }

    /// Σ(NTT count × isolated row time) in seconds per unit.
    pub fn ntt_s(&self) -> f64 {
        (self.ntt_forward * self.rows.ntt_forward_ns + self.ntt_inverse * self.rows.ntt_inverse_ns)
            * 1e-9
    }

    fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let c = &self.counts;
        vec![
            m("ckks.mod_raise_s", self.mod_raise_s, "s"),
            m("ckks.sub_sum_s", self.sub_sum_s, "s"),
            m("ckks.coeff_to_slot_s", self.coeff_to_slot_s, "s"),
            m("ckks.eval_mod_s", self.eval_mod_s, "s"),
            m("ckks.slot_to_coeff_s", self.slot_to_coeff_s, "s"),
            m("ckks.phase_residual", self.phase_residual, "ratio"),
            m("ckks.key_switches", self.key_switches(), "count"),
            m(
                "ckks.rotations",
                self.per_unit(c.rotate + c.rotate_hoisted),
                "count",
            ),
            m("ckks.multiplies", self.per_unit(c.multiply), "count"),
            m("ckks.rescales", self.per_unit(c.rescale), "count"),
            m("ckks.plain_mults", self.per_unit(c.multiply_plain), "count"),
            m("ckks.key_switch_us", self.ops.key_switch_us, "us"),
            m(
                "ckks.multiply_rescale_us",
                self.ops.multiply_rescale_us,
                "us",
            ),
            m(
                "ckks.rotate_hoisted_batch_us",
                self.ops.rotate_hoisted_us,
                "us",
            ),
            m(
                "ckks.multiply_plain_ntt_us",
                self.ops.multiply_plain_ntt_us,
                "us",
            ),
            m(
                "ckks.op_attributed_share",
                self.op_attributed_share,
                "ratio",
            ),
            m("rns.ntt_forward", self.ntt_forward, "count"),
            m("rns.ntt_inverse", self.ntt_inverse, "count"),
            m("rns.bytes_read", self.bytes_read, "B"),
            m("rns.bytes_written", self.bytes_written, "B"),
            m("math.ntt_forward_row_ns", self.rows.ntt_forward_ns, "ns"),
            m("math.ntt_inverse_row_ns", self.rows.ntt_inverse_ns, "ns"),
            m("rns.kskip_row_ns", self.rows.kskip_ns, "ns"),
            m("rns.convert_row_ns", self.rows.convert_ns, "ns"),
            m("rns.ntt_time_share", self.ntt_time_share, "ratio"),
            m("par.workers", self.workers as f64, "count"),
            m("par.effective_cores", self.effective_cores, "cores"),
            m("par.dispatch_us", self.dispatch_us, "us"),
            m("par.speedup_2w", self.speedup, "ratio"),
            m("lr.refresh_s", self.lr_refresh_s, "s"),
            m("lr.step_s", self.lr_step_s, "s"),
            m("lr.checkpoint_s", self.lr_checkpoint_s, "s"),
            m("lr.forward_s", self.lr_forward_s, "s"),
            m("lr.aggregate_s", self.lr_aggregate_s, "s"),
            m("lr.sigmoid_s", self.lr_sigmoid_s, "s"),
            m("lr.gradient_s", self.lr_gradient_s, "s"),
            m("lr.update_s", self.lr_update_s, "s"),
            m("lr.residual", self.lr_residual, "ratio"),
            m("serve.queue_us", self.serve_queue_us, "us"),
            m("serve.prefetch_us", self.serve_prefetch_us, "us"),
            m("serve.execute_us", self.serve_execute_us, "us"),
            m("serve.journal_us", self.serve_journal_us, "us"),
            m("serve.cache_hit_ratio", self.serve_cache_hit_ratio, "ratio"),
            m(
                "serve.prefetch_useful_ratio",
                self.serve_prefetch_useful_ratio,
                "ratio",
            ),
            m(
                "serve.evictions_per_req",
                self.serve_evictions_per_req,
                "count",
            ),
            m(
                "serve.key_bytes_fetched_per_req",
                self.serve_key_bytes_fetched_per_req,
                "B",
            ),
            m("store.syncs_per_req", self.store_syncs_per_req, "count"),
            m(
                "store.dir_syncs_per_req",
                self.store_dir_syncs_per_req,
                "count",
            ),
            m("store.sync_us", self.store_sync_us, "us"),
            m(
                "store.bytes_appended_per_req",
                self.store_bytes_appended_per_req,
                "B",
            ),
            m("trace.overhead_ratio", self.overhead_ratio, "ratio"),
        ]
    }

    /// The per-layer metrics with the kernel and parallelism probes every workload shares
    /// filled in, plus the share of the unit time the ops and NTTs account for.
    pub fn finish(mut self, unit_s: f64, ctx: &fab_ckks::CkksContext) -> Vec<Metric> {
        self.rows = probe::kernel_rows(ctx);
        self.effective_cores = probe::effective_cores();
        self.dispatch_us = probe::dispatch_us(PAR_PROBE_WORKERS);
        self.op_attributed_share = stats::ratio(self.op_attributed_s(), unit_s);
        self.ntt_time_share = stats::ratio(self.ntt_s(), unit_s);
        self.metrics()
    }
}

/// Checks that an output is bitwise equal to its reference.
pub fn gate_bitwise(what: &str, output: &[u8], reference: &[u8]) -> Result<(), String> {
    if output == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: output is not bitwise equal to its reference"
        ))
    }
}

/// Checks a condition the outputs or the counters must meet.
pub fn gate(what: &str, holds: bool) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("check failed: {what}"))
    }
}

/// Rust's shortest round-trip rendering: every measured digit, and valid JSON for any
/// finite value (`0.0`, `1.25`, `3.1e-5`).
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

fn render_json(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(", ")
    )
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory however the run ends, and its parent once no other
/// run uses it.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<Run, String> {
    stats::self_check()?;
    let dir = std::env::current_dir()
        .map_err(|e| format!("working directory: {e}"))?
        .join(".perfbench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch directory: {e}"))?;
    let _cleanup = ScratchDir(dir.clone());
    let config = Config {
        seed: args.seed,
        seconds: args.seconds,
        dir,
    };
    let mut run = match (args.workload.as_str(), args.trace) {
        ("bootstrap", false) => bootstrap::end_to_end(&config),
        ("bootstrap", true) => bootstrap::traced(&config),
        ("helr", false) => helr::end_to_end(&config),
        ("helr", true) => helr::traced(&config),
        ("serve", false) => serve::end_to_end(&config),
        ("serve", true) => serve::traced(&config),
        (other, _) => Err(format!("unknown workload {other}")),
    }?;
    if !args.trace {
        let cores = probe::effective_cores();
        run.lines.push(format!(
            "effective parallelism: {cores:.3} cores (2x calibrated spin on 2 threads vs 1x); \
             available_parallelism reports {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ));
    }
    if let Some(bad) = run.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    Ok(run)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(run) => {
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            for line in &run.lines {
                println!("  {line}");
            }
            for m in &run.metrics {
                println!("  {} = {} {}", m.name, json_number(m.value), m.unit);
            }
            println!("{}", render_json(&run));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
