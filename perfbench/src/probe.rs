//! Measurements taken beside a workload: peak memory, the machine's effective parallelism,
//! `fab-par` dispatch cost, and isolated `fab-math`/`fab-rns` row kernels and `fab-ckks` ops
//! timed at the workload's ring degree and top level.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use fab_ckks::{Ciphertext, CkksContext, Encoder, Encryptor, Evaluator, KeyGenerator, SecretKey};
use fab_rns::kskip::{accumulate_digits, DigitRows, RowBuffers};
use fab_rns::BasisConverter;

use crate::stats::median;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median seconds per call of `f`, over `batches` batches of `reps` calls after one warm-up.
pub fn seconds_per_call(batches: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&samples)
}

fn spin(rounds: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..rounds {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    black_box(x)
}

/// Effective parallelism of this machine right now: a spin loop calibrated to ~20 ms is run
/// once on one thread and once on each of two threads at the same time; the result is
/// `2 × t(1×) / t(2× on 2 threads)`: 2 on two free cores, 1 when the threads share one.
pub fn effective_cores() -> f64 {
    let mut rounds = 1u64 << 16;
    while {
        let start = Instant::now();
        spin(rounds);
        start.elapsed().as_secs_f64() < 0.02
    } {
        rounds *= 2;
    }
    let single: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            spin(rounds);
            start.elapsed().as_secs_f64()
        })
        .collect();
    let pair: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|scope| {
                let other = scope.spawn(|| spin(rounds));
                spin(rounds);
                other.join().expect("spin thread panicked");
            });
            start.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * median(&single) / median(&pair)
}

/// Microseconds per empty `fab_par::par_limbs` call over `workers` items at `workers`
/// threads (the pool setting is restored afterwards).
pub fn dispatch_us(workers: usize) -> f64 {
    let previous = fab_par::threads();
    fab_par::set_threads(workers);
    let secs = seconds_per_call(5, 200, || {
        fab_par::par_limbs(workers, |i| {
            black_box(i);
        })
    });
    fab_par::set_threads(previous);
    secs * 1e6
}

/// Isolated row-kernel times, in nanoseconds per call.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelRows {
    /// One forward NTT of an `N`-coefficient row.
    pub ntt_forward_ns: f64,
    /// One inverse NTT of an `N`-coefficient row.
    pub ntt_inverse_ns: f64,
    /// One KSKIP row (both key components) over the top level's digit count.
    pub kskip_ns: f64,
    /// One basis-conversion target row from one digit's `α` source rows.
    pub convert_ns: f64,
}

fn residues(rng: &mut ChaCha20Rng, n: usize, q: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..q)).collect()
}

/// Times the row kernels the key switch and the NTTs are made of, at `ctx`'s degree.
pub fn kernel_rows(ctx: &CkksContext) -> KernelRows {
    let mut rng = ChaCha20Rng::seed_from_u64(0x5EED_0001);
    let n = ctx.degree();
    let params = ctx.params();
    let q_basis = ctx.q_basis();
    let table = q_basis.table(0);
    let modulus = q_basis.modulus(0).clone();
    let q = modulus.value();
    let mut row = residues(&mut rng, n, q);
    let ntt_forward_ns = seconds_per_call(5, 400, || table.forward(black_box(&mut row))) * 1e9;
    let ntt_inverse_ns = seconds_per_call(5, 400, || table.inverse(black_box(&mut row))) * 1e9;

    let digits = params.dnum;
    let xs: Vec<Vec<u64>> = (0..digits).map(|_| residues(&mut rng, n, q)).collect();
    let keys: Vec<(Vec<u64>, Vec<u64>)> = (0..digits)
        .map(|_| (residues(&mut rng, n, q), residues(&mut rng, n, q)))
        .collect();
    let (mut acc_b, mut acc_a) = (vec![0u128; n], vec![0u128; n]);
    let (mut out_b, mut out_a) = (vec![0u64; n], vec![0u64; n]);
    let fold_every = modulus.u128_mac_capacity();
    let kskip_ns = seconds_per_call(5, 200, || {
        acc_b.fill(0);
        acc_a.fill(0);
        accumulate_digits(
            &modulus,
            fold_every,
            xs.iter().zip(&keys).map(|(x, (b, a))| DigitRows {
                x,
                key_b: b,
                key_a: a,
            }),
            None,
            RowBuffers {
                acc_b: &mut acc_b,
                acc_a: &mut acc_a,
                out_b: &mut out_b,
                out_a: &mut out_a,
            },
        );
        black_box(&out_a);
    }) * 1e9;

    let alpha = params.alpha().min(q_basis.len());
    let converter = BasisConverter::from_moduli(&q_basis.moduli()[..alpha], ctx.p_basis().moduli())
        .expect("digit-to-extension converter");
    let mut hoisted = Vec::with_capacity(alpha * n);
    for i in 0..alpha {
        hoisted.extend(residues(&mut rng, n, q_basis.modulus(i).value()));
    }
    let mut out = vec![0u64; n];
    let convert_ns = seconds_per_call(5, 400, || {
        converter.accumulate_target_limb_into(black_box(&hoisted), n, 0, &mut out);
    }) * 1e9;
    KernelRows {
        ntt_forward_ns,
        ntt_inverse_ns,
        kskip_ns,
        convert_ns,
    }
}

/// Isolated op times, in microseconds per op, at the context's top level.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTimes {
    /// One hybrid key switch.
    pub key_switch_us: f64,
    /// One multiply + relinearise + rescale.
    pub multiply_rescale_us: f64,
    /// One rotation inside a hoisted batch (batch time / batch size).
    pub rotate_hoisted_us: f64,
    /// One plaintext multiply by an evaluation-form plaintext.
    pub multiply_plain_ntt_us: f64,
}

/// Times the ops a workload is made of, at the context's top level, on a fresh encryption
/// under fresh keys; rotations by 1, 2, 3 and 4 slots form the hoisted batch.
pub fn op_times(ctx: &Arc<CkksContext>) -> OpTimes {
    let mut rng = ChaCha20Rng::seed_from_u64(0x5EED_0002);
    let keygen = KeyGenerator::new(ctx.clone(), SecretKey::generate(ctx, &mut rng));
    let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
    let rlk = keygen.relinearization_key(&mut rng);
    let batch = [1usize, 2, 3, 4];
    let gks = keygen
        .galois_keys(&batch, false, &mut rng)
        .expect("probe rotation keys");
    let evaluator = Evaluator::new(ctx.clone());
    let encoder = Encoder::new(ctx.clone());
    let level = ctx.params().max_level;
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|_| rng.gen_range(-0.5..0.5))
        .collect();
    let pt = encoder
        .encode_real(&values, scale, level)
        .expect("encode probe input");
    let ct: Ciphertext = encryptor
        .encrypt(&pt, &mut rng)
        .expect("encrypt probe input");
    let basis = ctx.basis_at_level(level).expect("top-level basis");
    let d = fab_ckks::sampling::sample_uniform(&mut rng, &basis);
    let mut pt_eval = pt.poly().clone();
    pt_eval.to_evaluation(&basis);

    let us = |secs: f64| secs * 1e6;
    OpTimes {
        key_switch_us: us(seconds_per_call(5, 4, || {
            black_box(
                evaluator
                    .key_switch(&d, &rlk.key, level)
                    .expect("key switch"),
            );
        })),
        multiply_rescale_us: us(seconds_per_call(5, 4, || {
            black_box(
                evaluator
                    .multiply_rescale(&ct, &ct, &rlk)
                    .expect("multiply"),
            );
        })),
        rotate_hoisted_us: us(seconds_per_call(5, 2, || {
            black_box(
                evaluator
                    .rotate_hoisted_batch(&ct, &batch, &gks)
                    .expect("hoisted batch"),
            );
        })) / batch.len() as f64,
        multiply_plain_ntt_us: us(seconds_per_call(5, 8, || {
            black_box(
                evaluator
                    .multiply_plain_ntt(&ct, &pt_eval, scale)
                    .expect("plain multiply"),
            );
        })),
    }
}

/// NTTs and bytes counted by `fab_rns::metering` on this thread since [`Meter::start`].
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    transforms: fab_rns::metering::TransformCounts,
    bytes: fab_rns::metering::ByteCounts,
}

/// One unit's metered kernel work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metered {
    /// Forward single-limb NTTs.
    pub ntt_forward: u64,
    /// Inverse single-limb NTTs.
    pub ntt_inverse: u64,
    /// Bytes read by metered kernels.
    pub bytes_read: u64,
    /// Bytes written by metered kernels.
    pub bytes_written: u64,
}

impl Meter {
    /// Snapshots the thread's counters.
    pub fn start() -> Self {
        Self {
            transforms: fab_rns::metering::counts(),
            bytes: fab_rns::metering::byte_counts(),
        }
    }

    /// The work counted since the snapshot.
    pub fn stop(&self) -> Metered {
        let t = fab_rns::metering::counts().since(&self.transforms);
        let b = fab_rns::metering::byte_counts().since(&self.bytes);
        Metered {
            ntt_forward: t.forward,
            ntt_inverse: t.inverse,
            bytes_read: b.read,
            bytes_written: b.written,
        }
    }
}
