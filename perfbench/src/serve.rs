//! The `serve` workload: one client in a closed loop against one `FabServer` at the serving
//! bin's full parameters (N = 2^10, L = 3, dnum = 2). Four tenants take turns; each request
//! runs a seeded `Program::random` and is submitted only after the previous outcome
//! returned. The key cache holds a quarter of the tenants' key bytes, prefetch is on, and a
//! `DurableJournal` on a `FileBackend` fsyncs every record (`SyncPolicy::Always`).

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    key_set_bytes, Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator,
    KeyGenerator, ResidentKeyProvider, SecretKey,
};
use fab_serve::{
    DurableJournal, FabServer, Program, Request, RequestOutcome, RequestReport, ServeOp,
    ServerConfig, TenantId,
};
use fab_store::{FileBackend, StorageBackend, SyncPolicy};

use crate::probe::{self, Meter};
use crate::sink::{CountingBackend, LayerSink, StoreCounts};
use crate::stats::{self, mean, median};
use crate::{end_to_end_metrics, gate, gate_bitwise, repeated_setup, Config, Layers, Run};

const TENANTS: usize = 4;
const ROTATIONS: [usize; 2] = [1, 3];
const OPS_PER_REQUEST: usize = 6;
/// Journal records per segment before the journal rotates to a new one.
const SEGMENT_RECORDS: u64 = 64;
/// Requests served per journal; the full journal is then replaced by a fresh one between
/// two requests, outside any timed interval, so disk use stays bounded.
const JOURNAL_REQUESTS: u64 = 256;
/// Requests per server in the traced run: a fixed count, so its counts repeat exactly.
const TRACED_REQUESTS: u64 = 400;
/// Every served output must decrypt to the plaintext mirror within 2^-PRECISION_FLOOR_BITS
/// (the served programs keep about 25 bits at these parameters).
const PRECISION_FLOOR_BITS: f64 = 15.0;

fn serving_params() -> Result<CkksParams, String> {
    CkksParams::builder()
        .log_n(10)
        .scale_bits(40)
        .first_prime_bits(50)
        .max_level(3)
        .dnum(2)
        .secret_hamming_weight(Some(32))
        .build()
        .map_err(|e| e.to_string())
}

struct Tenant {
    values: Vec<f64>,
    input: Ciphertext,
    decryptor: Decryptor,
    resident: ResidentKeyProvider,
}

struct Bench {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    reference: Evaluator,
    tenants: Vec<Tenant>,
    server: FabServer,
    seed: u64,
    dir: PathBuf,
    /// Journals created so far (each gets its own directory).
    journals: u64,
    /// Counters of the journal's storage calls, when the backend is counted.
    store: Option<Arc<Mutex<StoreCounts>>>,
    served: u64,
}

/// What the client saw of one request.
struct Served {
    client_s: f64,
    report: Option<RequestReport>,
    output: Option<Vec<u8>>,
    precision_bits: f64,
}

impl Bench {
    /// Context, tenant keys, the server with its journal, and one warming request.
    fn setup(
        config: &Config,
        name: &str,
        sink: Option<Arc<LayerSink>>,
        counted: bool,
    ) -> Result<Self, String> {
        fab_par::set_threads(1);
        let params = serving_params()?;
        let ctx = CkksContext::new_arc(params.clone()).map_err(|e| e.to_string())?;
        let encoder = Encoder::new(ctx.clone());
        let per_tenant = key_set_bytes(&params, ROTATIONS.len() + 1);
        let evaluator = match sink {
            Some(sink) => Evaluator::with_sink(ctx.clone(), sink),
            None => Evaluator::new(ctx.clone()),
        };
        let mut server = FabServer::new(
            evaluator,
            ServerConfig {
                cache_budget_bytes: TENANTS * per_tenant / 4,
                prefetch: true,
                lookahead: 2 + ROTATIONS.len(),
                ..ServerConfig::default()
            },
        );
        let mut tenants = Vec::with_capacity(TENANTS);
        for t in 0..TENANTS {
            let mut rng = ChaCha20Rng::seed_from_u64(config.seed ^ ((0xFAB0 + t as u64) << 32));
            let sk = SecretKey::generate(&ctx, &mut rng);
            let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
            let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
            let rlk = keygen.relinearization_key(&mut rng);
            let keys = keygen
                .galois_keys(&ROTATIONS, true, &mut rng)
                .map_err(|e| e.to_string())?;
            server.register_tenant(TenantId(t as u32), &rlk, &keys);
            // A random program can double its values up to six times and square them in
            // between: from |x| ≤ 0.1 they stay within 10.24, far inside the ±512 that a
            // level-0 result can hold (q0 / 2Δ = 2^50 / 2^41); wider inputs wrap around.
            let values: Vec<f64> = (0..ctx.slot_count())
                .map(|_| rng.gen_range(-0.1..0.1))
                .collect();
            let pt = encoder
                .encode_real(&values, params.default_scale(), params.max_level)
                .map_err(|e| e.to_string())?;
            tenants.push(Tenant {
                input: encryptor
                    .encrypt(&pt, &mut rng)
                    .map_err(|e| e.to_string())?,
                values,
                decryptor: Decryptor::new(ctx.clone(), sk),
                resident: ResidentKeyProvider::new(rlk, keys),
            });
        }
        let mut bench = Self {
            reference: Evaluator::new(ctx.clone()),
            encoder,
            ctx,
            tenants,
            server,
            seed: config.seed,
            dir: config.dir.join(name),
            journals: 0,
            store: counted.then(|| Arc::new(Mutex::new(StoreCounts::default()))),
            served: 0,
        };
        bench.new_journal()?;
        bench.request(u64::MAX)?;
        Ok(bench)
    }

    /// Replaces the server's journal with a fresh one in a new directory.
    fn new_journal(&mut self) -> Result<(), String> {
        if self.journals > 0 {
            drop(self.server.take_durable_journal());
            let old = self.dir.join(format!("journal-{}", self.journals - 1));
            std::fs::remove_dir_all(old).map_err(|e| format!("journal cleanup: {e}"))?;
        }
        let dir = self.dir.join(format!("journal-{}", self.journals));
        self.journals += 1;
        let file = FileBackend::open(&dir).map_err(|e| e.to_string())?;
        let backend: Box<dyn StorageBackend + Send> = match &self.store {
            Some(counts) => Box::new(CountingBackend::new(file, counts.clone())),
            None => Box::new(file),
        };
        let journal = DurableJournal::create(
            backend,
            self.ctx.clone(),
            SyncPolicy::Always,
            SEGMENT_RECORDS,
        )
        .map_err(|e| e.to_string())?;
        self.server.attach_durable_journal(journal);
        Ok(())
    }

    fn program(&self, index: u64) -> Program {
        Program::random(
            self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index,
            OPS_PER_REQUEST,
            &ROTATIONS,
        )
    }

    /// Submits request `index`, waits for its outcome, and checks a completed output bit for
    /// bit against `Program::execute` on resident keys and for precision against the
    /// plaintext mirror. Only submit → outcome is timed.
    fn request(&mut self, index: u64) -> Result<Served, String> {
        if self.served > 0 && self.served.is_multiple_of(JOURNAL_REQUESTS) {
            self.new_journal()?;
        }
        self.served += 1;
        let t = (index % TENANTS as u64) as usize;
        let program = self.program(index);
        let request = Request {
            tenant: TenantId(t as u32),
            program: program.clone(),
            input: self.tenants[t].input.clone(),
        };
        let start = Instant::now();
        self.server.submit(request);
        let mut outcomes = self.server.run();
        let client_s = start.elapsed().as_secs_f64();
        if outcomes.len() != 1 {
            return Err(format!("one request yielded {} outcomes", outcomes.len()));
        }
        let served = match outcomes.remove(0) {
            RequestOutcome::Completed(served) => served,
            RequestOutcome::Failed(_) | RequestOutcome::Shed { .. } => {
                return Ok(Served {
                    client_s,
                    report: None,
                    output: None,
                    precision_bits: f64::NAN,
                })
            }
        };
        let tenant = &self.tenants[t];
        let expected = program
            .execute(&self.reference, &tenant.resident, &tenant.input)
            .map_err(|e| format!("reference execution failed: {e}"))?;
        let output = served.output.to_bytes(&self.ctx);
        gate_bitwise(
            &format!("request {index} against resident-key execution"),
            &output,
            &expected.to_bytes(&self.ctx),
        )?;
        let decoded = self.encoder.decode_real(
            &tenant
                .decryptor
                .decrypt(&served.output)
                .map_err(|e| e.to_string())?,
        );
        let mirror = mirror(&program, &tenant.values, self.ctx.params().max_level);
        let precision_bits = stats::precision_bits(stats::max_abs_error(&decoded, &mirror));
        if precision_bits < PRECISION_FLOOR_BITS {
            return Err(format!(
                "request {index} decrypts to {precision_bits:.2} bits against the plaintext mirror, below the {PRECISION_FLOOR_BITS} bit floor"
            ));
        }
        Ok(Served {
            client_s,
            report: Some(served.report),
            output: Some(output),
            precision_bits,
        })
    }
}

/// The program on plaintext slot values, with the evaluator's level rules: a square at
/// level 0 is skipped, conjugating real values changes nothing.
fn mirror(program: &Program, values: &[f64], start_level: usize) -> Vec<f64> {
    let slots = values.len();
    let mut level = start_level;
    let mut x = values.to_vec();
    for op in program.ops() {
        match *op {
            ServeOp::Square if level > 0 => {
                x.iter_mut().for_each(|v| *v *= *v);
                level -= 1;
            }
            ServeOp::Square | ServeOp::Conjugate => {}
            ServeOp::Rotate(steps) => x = (0..slots).map(|i| x[(i + steps) % slots]).collect(),
            ServeOp::AddSelf => x.iter_mut().for_each(|v| *v *= 2.0),
        }
    }
    x
}

pub fn end_to_end(config: &Config) -> Result<Run, String> {
    let (mut bench, setup_s) = repeated_setup(9, || Bench::setup(config, "serve", None, false))?;
    let (mut unit_s, mut bits) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let start = Instant::now();
    let mut index = 0;
    while !config.window_over(start) || index == 0 {
        let served = bench.request(index)?;
        index += 1;
        if served.report.is_some() {
            unit_s.push(served.client_s);
            bits.push(served.precision_bits);
        } else {
            failed += 1;
        }
    }
    if unit_s.is_empty() {
        return Err(format!("none of {index} requests completed"));
    }
    let latency_ms: Vec<f64> = unit_s.iter().map(|s| s * 1e3).collect();
    let precision = median(&bits);
    Ok(Run {
        attempted: index,
        failed,
        lines: vec![
            format!(
                "serve_rps: {:.2} requests/s (completed / client-observed seconds)",
                unit_s.len() as f64 / unit_s.iter().sum::<f64>()
            ),
            stats::describe_timing(
                "serve latency (serve_p50_ms, serve_tail_ms)",
                "ms",
                &latency_ms,
            ),
            format!(
                "serve_failed_ratio: {:.4} ({failed} failed or shed of {index} submitted)",
                stats::ratio(failed as f64, index as f64)
            ),
            format!(
                "serve precision: median {precision:.2} bits, worst {:.2} bits against the plaintext mirror (floor {PRECISION_FLOOR_BITS})",
                bits.iter().copied().fold(f64::INFINITY, f64::min)
            ),
        ],
        metrics: end_to_end_metrics(&setup_s, &unit_s, precision),
    })
}

pub fn traced(config: &Config) -> Result<Run, String> {
    let mut plain = Bench::setup(config, "untraced", None, false)?;
    let sink = LayerSink::shared(false);
    let mut observed = Bench::setup(config, "traced", Some(sink.clone()), true)?;
    let store = observed
        .store
        .clone()
        .expect("the traced journal is counted");
    sink.take();
    let store_before = *store.lock().expect("store counter mutex poisoned");
    let cache_before = observed.server.cache_stats();
    let counters_before = observed.server.counters();

    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    let mut metered_total = probe::Metered::default();
    for index in 0..TRACED_REQUESTS {
        let a = plain.request(index)?;
        let meter = Meter::start();
        let b = observed.request(index)?;
        let m = meter.stop();
        metered_total.ntt_forward += m.ntt_forward;
        metered_total.ntt_inverse += m.ntt_inverse;
        metered_total.bytes_read += m.bytes_read;
        metered_total.bytes_written += m.bytes_written;
        let (Some(out_a), Some(out_b), Some(report)) = (a.output, b.output, b.report) else {
            return Err(format!(
                "request {index} did not complete in the traced run"
            ));
        };
        gate_bitwise(&format!("request {index}"), &out_b, &out_a)?;
        let client_us = b.client_s * 1e6;
        // Each server-side stamp truncates to whole microseconds.
        gate(
            &format!("request {index}: server-side parts fit inside the client latency"),
            report.total_us as f64 <= client_us + 2.0,
        )?;
        untraced_s.push(a.client_s);
        traced_s.push(b.client_s);
        reports.push((report, client_us));
    }

    let n = TRACED_REQUESTS as f64;
    let seen = sink.take();
    let cache = observed.server.cache_stats();
    let counters = observed.server.counters();
    let store_now = *store.lock().expect("store counter mutex poisoned");
    let (hits, misses, uncached) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
        cache.uncached_fetches - cache_before.uncached_fetches,
    );
    let key_accesses: u64 = reports.iter().map(|(r, _)| r.key_accesses).sum();
    let settled = (counters.completed - counters_before.completed)
        + (counters.failed - counters_before.failed)
        + (counters.shed - counters_before.shed);
    gate(
        "completed + failed + shed = submitted",
        settled == TRACED_REQUESTS,
    )?;
    gate(
        "cache hits + misses (+ uncached fetches) = Σ report.key_accesses",
        hits + misses + uncached == key_accesses,
    )?;
    let appends = store_now.appends - store_before.appends;
    let syncs = store_now.syncs - store_before.syncs;
    gate(
        "fsyncs ≥ journal appends under SyncPolicy::Always",
        syncs >= appends,
    )?;
    let per_req = |x: u64| x as f64 / n;
    let prefetches = cache.prefetches - cache_before.prefetches;
    let mean_of = |f: fn(&RequestReport) -> u64| {
        mean(&reports.iter().map(|(r, _)| f(r) as f64).collect::<Vec<_>>())
    };
    let mut layers = Layers {
        counts: seen.counts,
        units: n,
        ntt_forward: per_req(metered_total.ntt_forward),
        ntt_inverse: per_req(metered_total.ntt_inverse),
        bytes_read: per_req(metered_total.bytes_read),
        bytes_written: per_req(metered_total.bytes_written),
        workers: 1,
        serve_queue_us: mean_of(|r| r.queue_us),
        serve_prefetch_us: mean_of(|r| r.prefetch_us),
        serve_execute_us: mean_of(|r| r.execute_us),
        serve_journal_us: mean(
            &reports
                .iter()
                .map(|(r, client_us)| client_us - r.total_us as f64)
                .collect::<Vec<_>>(),
        ),
        serve_cache_hit_ratio: stats::ratio(hits as f64, (hits + misses) as f64),
        serve_prefetch_useful_ratio: stats::ratio(
            (cache.prefetch_hits - cache_before.prefetch_hits) as f64,
            prefetches as f64,
        ),
        serve_evictions_per_req: per_req(cache.evictions - cache_before.evictions),
        serve_key_bytes_fetched_per_req: per_req(cache.bytes_fetched - cache_before.bytes_fetched),
        store_syncs_per_req: per_req(syncs),
        store_dir_syncs_per_req: per_req(store_now.dir_syncs - store_before.dir_syncs),
        store_sync_us: stats::ratio(
            (store_now.sync_s - store_before.sync_s) * 1e6,
            (syncs + store_now.dir_syncs - store_before.dir_syncs) as f64,
        ),
        store_bytes_appended_per_req: per_req(
            store_now.bytes_appended - store_before.bytes_appended,
        ),
        overhead_ratio: median(&traced_s) / median(&untraced_s) - 1.0,
        ..Layers::default()
    };
    layers.ops = probe::op_times(&plain.ctx);
    let untraced_ms: Vec<f64> = untraced_s.iter().map(|s| s * 1e3).collect();
    let traced_ms: Vec<f64> = traced_s.iter().map(|s| s * 1e3).collect();
    Ok(Run {
        attempted: TRACED_REQUESTS,
        failed: 0,
        lines: vec![
            stats::describe_timing("untraced request", "ms", &untraced_ms),
            stats::describe_timing("traced request", "ms", &traced_ms),
        ],
        metrics: layers.finish(mean(&untraced_s), &plain.ctx),
    })
}
