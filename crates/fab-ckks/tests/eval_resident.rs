//! Eval-resident pipeline equivalence: a random interleaving of domain-aware operations
//! (multiply, multiply_plain, add, hoisted rotation, rescale) executed on a ciphertext that
//! is kept **evaluation-resident** between steps must decrypt **bitwise identically** to the
//! same sequence executed coefficient-resident, across random `(N, L, dnum)` configurations.
//!
//! This is the correctness gate behind the PR 5 domain-aware pipeline: keeping data in
//! evaluation form (and letting the dual-form key switch, the `P·d` absorption and the
//! eval-resident adds rearrange where the transforms happen) may only move NTTs around,
//! never change a single bit of the result — the canonicalising inverse NTT guarantees it.
//!
//! The same gate covers the transform-free constant operations: `multiply_const`,
//! `multiply_scalar`, `match_scale` and `add_scalar` must equal `encode_constant` followed
//! by `multiply_plain`/`add_plain` bit for bit in both domains, and a Chebyshev series must
//! evaluate bitwise identically to the eval-resident, plaintext-constant leaf it replaced
//! (kept below as a test-only oracle, zero-encoding terms included).

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    ChebyshevSeries, Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator,
    GaloisKeys, KeyGenerator, Plaintext, RelinearizationKey, SecretKey,
};
use fab_math::Complex64;

struct Fixture {
    ctx: Arc<CkksContext>,
    evaluator: Evaluator,
    decryptor: Decryptor,
    rlk: RelinearizationKey,
    keys: GaloisKeys,
    pt: Plaintext,
    start: Ciphertext,
}

fn fixture(log_n: usize, max_level: usize, dnum: usize, seed: u64) -> Fixture {
    let params = CkksParams::builder()
        .log_n(log_n)
        .scale_bits(40)
        .first_prime_bits(50)
        .max_level(max_level)
        .dnum(dnum)
        .secret_hamming_weight(Some((1usize << log_n).min(32)))
        .build()
        .expect("valid small parameters");
    let ctx = CkksContext::new_arc(params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let keys = keygen
        .galois_keys(&[1, 3], false, &mut rng)
        .expect("galois keys");
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| ((i as f64 + 1.0) * 0.21).sin())
        .collect();
    let pt = encoder
        .encode_real(&values, scale, ctx.params().max_level)
        .expect("encode");
    let start = encryptor.encrypt(&pt, &mut rng).expect("encrypt");
    Fixture {
        evaluator: Evaluator::new(ctx.clone()),
        ctx,
        decryptor,
        rlk,
        keys,
        pt,
        start,
    }
}

/// Applies one operation of the interleaving. Scale bookkeeping is identical on both sides,
/// so only bitwise polynomial equality matters; level-exhausted multiplies/rescales are
/// skipped deterministically on both sides.
fn step(f: &Fixture, ct: &Ciphertext, op: u8) -> Ciphertext {
    let e = &f.evaluator;
    match op % 5 {
        // multiply (relinearised square) followed by a rescale to keep the scale bounded;
        // skipped once the levels are exhausted.
        0 => {
            if ct.level() == 0 {
                ct.clone()
            } else {
                let sq = e.multiply(ct, ct, &f.rlk).expect("multiply");
                e.rescale(&sq).expect("rescale")
            }
        }
        // multiply_plain (the encoded test vector, prefixed to the current level).
        1 => e.multiply_plain(ct, &f.pt).expect("multiply_plain"),
        // add with itself (scales always match).
        2 => e.add(ct, ct).expect("add"),
        // hoisted rotation batch; fold both outputs so the hoisted step contributes.
        3 => {
            let rotated = e
                .rotate_hoisted_batch(ct, &[1, 3], &f.keys)
                .expect("hoisted batch");
            e.add(&rotated[0], &rotated[1]).expect("add rotations")
        }
        // rescale; skipped at level 0.
        _ => {
            if ct.level() == 0 {
                ct.clone()
            } else {
                e.rescale(ct).expect("rescale")
            }
        }
    }
}

proptest! {
    // Context construction dominates; a handful of cases still sweeps ring sizes, chain
    // lengths and digit shapes.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prop_eval_resident_interleaving_is_bitwise_identical(
        log_n in 3usize..9,
        max_level in 1usize..5,
        dnum_seed in 1usize..5,
        seed in any::<u64>(),
        ops in proptest::collection::vec(0u8..5, 7),
        len in 1usize..8,
    ) {
        let ops = &ops[..len.min(ops.len())];
        let dnum = 1 + dnum_seed % (max_level + 1);
        let f = fixture(log_n, max_level, dnum, seed);
        let e = &f.evaluator;

        // Coefficient-resident reference: every op input/output in coefficient form.
        let mut reference = f.start.clone();
        // Eval-resident pipeline: promoted after every step, so each op sees an
        // evaluation-form input (multiply skips operand forwards, multiply_plain/add are
        // transform-free, rotations and rescales demote internally at their boundaries).
        let mut resident = e.to_evaluation_form(&f.start).expect("promote");

        for &op in ops {
            reference = step(&f, &reference, op);
            prop_assert!(reference.c0().is_coefficient(),
                "reference sequence must stay coefficient-resident");
            resident = step(&f, &resident, op);
            resident = e.to_evaluation_form(&resident).expect("re-promote");
        }

        // The eval-resident result, demoted once at the end, matches the reference bitwise —
        // ciphertext parts and decryption alike.
        let settled = e.to_coefficient_form(&resident).expect("demote");
        prop_assert_eq!(settled.c0(), reference.c0(), "c0 diverged");
        prop_assert_eq!(settled.c1(), reference.c1(), "c1 diverged");
        prop_assert_eq!(settled.level(), reference.level());
        prop_assert!((settled.scale() / reference.scale() - 1.0).abs() < 1e-12);
        let dec_ref = f.decryptor.decrypt(&reference).expect("decrypt reference");
        // Decryption is itself domain-aware: the still-eval-resident ciphertext decrypts to
        // the identical plaintext without an explicit demotion.
        let dec_res = f.decryptor.decrypt(&resident).expect("decrypt resident");
        prop_assert_eq!(dec_ref.poly(), dec_res.poly(), "decryption diverged");
        let _ = f.ctx.degree();
    }
}

/// Bitwise equality of two ciphertexts: both parts (domain tag included), level and scale.
fn assert_bitwise(got: &Ciphertext, want: &Ciphertext, what: &str) {
    assert_eq!(got.c0(), want.c0(), "{what}: c0 diverged");
    assert_eq!(got.c1(), want.c1(), "{what}: c1 diverged");
    assert_eq!(got.level(), want.level(), "{what}: level diverged");
    assert_eq!(got.scale(), want.scale(), "{what}: scale diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn prop_constant_ops_match_the_plaintext_oracle(
        log_n in 3usize..9,
        max_level in 1usize..5,
        dnum_seed in 1usize..5,
        seed in any::<u64>(),
        level_seed in 0usize..5,
        magnitude in 0.01f64..4.0,
    ) {
        let dnum = 1 + dnum_seed % (max_level + 1);
        let f = fixture(log_n, max_level, dnum, seed);
        let e = &f.evaluator;
        let encoder = e.encoder();
        // Level >= 1 so multiply_scalar and match_scale can rescale.
        let level = 1 + level_seed % max_level;
        let prime = f.ctx.rescale_prime(level) as f64;
        let coeff = e.mod_drop_to_level(&f.start, level).expect("drop");
        let eval = e.to_evaluation_form(&coeff).expect("promote");

        // Positive, negative, zero and complex constants, in both domains.
        let constants = [
            Complex64::new(magnitude, 0.0),
            Complex64::new(-magnitude, 0.0),
            Complex64::zero(),
            Complex64::new(magnitude, -0.5 * magnitude),
        ];
        for (ct, value) in [&coeff, &eval]
            .into_iter()
            .flat_map(|ct| constants.iter().map(move |&value| (ct, value)))
        {
            let at_prime = encoder.encode_constant(value, prime, level).expect("encode");
            let oracle = e.multiply_plain(ct, &at_prime).expect("multiply_plain");
            assert_bitwise(
                &e.multiply_const(ct, value, prime).expect("multiply_const"),
                &oracle,
                "multiply_const",
            );
            assert_bitwise(
                &e.multiply_scalar(ct, value).expect("multiply_scalar"),
                &e.rescale(&oracle).expect("rescale"),
                "multiply_scalar",
            );

            let at_scale = encoder.encode_constant(value, ct.scale(), level).expect("encode");
            assert_bitwise(
                &e.add_scalar(ct, value).expect("add_scalar"),
                &e.add_plain(ct, &at_scale).expect("add_plain"),
                "add_scalar",
            );

            // A target scale never within tolerance of the current one, so the multiply runs.
            let target = ct.scale() * (1.25 + magnitude / 8.0);
            let enc_scale = (target * prime / ct.scale()).round();
            let one = encoder
                .encode_constant(Complex64::one(), enc_scale, level)
                .expect("encode");
            let rescaled = e
                .rescale(&e.multiply_plain(ct, &one).expect("multiply_plain"))
                .expect("rescale");
            // match_scale declares the exact target scale.
            let want = Ciphertext::from_parts(
                rescaled.c0().clone(),
                rescaled.c1().clone(),
                target,
                rescaled.level(),
            );
            assert_bitwise(
                &e.match_scale(ct, target).expect("match_scale"),
                &want,
                "match_scale",
            );
        }
    }
}

/// Test-only oracle: the Chebyshev BSGS evaluation with every constant applied as an
/// encoded plaintext and every leaf accumulated **eval-resident** over all its nonzero
/// terms — the leaf the shipped coefficient-resident, zero-skipping one replaced. The
/// control flow mirrors `ChebyshevSeries::evaluate_with` step for step. Scale alignment
/// uses the evaluator's `align_for_addition`, whose `match_scale` the property above pins
/// to its plaintext oracle.
struct LeafOracle<'a> {
    e: &'a Evaluator,
    rlk: &'a RelinearizationKey,
}

impl LeafOracle<'_> {
    fn add_scalar(&self, ct: &Ciphertext, c: f64) -> Ciphertext {
        let pt = self
            .e
            .encoder()
            .encode_constant(Complex64::new(c, 0.0), ct.scale(), ct.level())
            .expect("encode");
        self.e.add_plain(ct, &pt).expect("add_plain")
    }

    fn multiply_const(&self, ct: &Ciphertext, c: f64, scale: f64) -> Ciphertext {
        let pt = self
            .e
            .encoder()
            .encode_constant(Complex64::new(c, 0.0), scale, ct.level())
            .expect("encode");
        self.e.multiply_plain(ct, &pt).expect("multiply_plain")
    }

    fn multiply_scalar(&self, ct: &Ciphertext, c: f64) -> Ciphertext {
        let prime = self.e.context().rescale_prime(ct.level()) as f64;
        let product = self.multiply_const(ct, c, prime);
        self.e.rescale(&product).expect("rescale")
    }

    fn evaluate(&self, series: &ChebyshevSeries, ct: &Ciphertext) -> Ciphertext {
        let (a, b) = series.domain();
        let ct_t = if (a + 1.0).abs() < 1e-12 && (b - 1.0).abs() < 1e-12 {
            ct.clone()
        } else {
            let scaled = self.multiply_scalar(ct, 2.0 / (b - a));
            self.add_scalar(&scaled, -(a + b) / (b - a))
        };
        let coeffs = series.coefficients();
        let degree = series.degree();
        if degree == 0 {
            let zeroed = self.multiply_scalar(&ct_t, 0.0);
            return self.add_scalar(&zeroed, coeffs[0]);
        }
        let mut m = 1usize;
        while m * m < degree + 1 {
            m *= 2;
        }
        let mut giants = Vec::new();
        let mut g = m;
        while g <= degree {
            giants.push(g);
            g *= 2;
        }
        let mut basis: Vec<Option<Ciphertext>> = vec![None; degree + 1];
        basis[1] = Some(ct_t);
        for j in 2..=m.min(degree) {
            let half = j / 2;
            basis[j] = Some(self.product(&basis, half, j - half));
        }
        for pair in giants.windows(2) {
            basis[pair[1]] = Some(self.product(&basis, pair[0], pair[0]));
        }
        self.recurse(coeffs, &basis, m)
    }

    fn product(&self, basis: &[Option<Ciphertext>], i: usize, j: usize) -> Ciphertext {
        let (ti, tj) = (basis[i].as_ref().unwrap(), basis[j].as_ref().unwrap());
        let level = ti.level().min(tj.level());
        let ti = self.e.mod_drop_to_level(ti, level).unwrap();
        let tj = self.e.mod_drop_to_level(tj, level).unwrap();
        let product = self.e.multiply_rescale(&ti, &tj, self.rlk).unwrap();
        let doubled = self.e.add(&product, &product).unwrap();
        let diff = i.abs_diff(j);
        if diff == 0 {
            self.add_scalar(&doubled, -1.0)
        } else {
            let (x, y) = self
                .e
                .align_for_addition(&doubled, basis[diff].as_ref().unwrap())
                .unwrap();
            self.e.sub(&x, &y).unwrap()
        }
    }

    fn recurse(&self, coeffs: &[f64], basis: &[Option<Ciphertext>], m: usize) -> Ciphertext {
        let degree = coeffs.len() - 1;
        if degree < m {
            return self.leaf(coeffs, basis);
        }
        let mut g = m;
        while g * 2 <= degree {
            g *= 2;
        }
        let mut q = vec![0.0f64; degree - g + 1];
        q[0] = coeffs[g];
        for j in 1..=degree - g {
            q[j] = 2.0 * coeffs[g + j];
        }
        let mut r = coeffs[..g].to_vec();
        for j in 1..=degree - g {
            if g >= j {
                r[g - j] -= coeffs[g + j];
            }
        }
        let q_eval = self.recurse(&q, basis, m);
        let r_eval = self.recurse(&r, basis, m);
        let t_g = basis[g].as_ref().unwrap();
        let level = q_eval.level().min(t_g.level());
        let q_dropped = self.e.mod_drop_to_level(&q_eval, level).unwrap();
        let t_dropped = self.e.mod_drop_to_level(t_g, level).unwrap();
        let product = self
            .e
            .multiply_rescale(&q_dropped, &t_dropped, self.rlk)
            .unwrap();
        let (x, y) = self.e.align_for_addition(&product, &r_eval).unwrap();
        self.e.add(&x, &y).unwrap()
    }

    /// The replaced leaf: every nonzero term promoted to evaluation form and multiplied by
    /// its encoded constant plaintext, the sum crossing back inside the rescale.
    fn leaf(&self, coeffs: &[f64], basis: &[Option<Ciphertext>]) -> Ciphertext {
        let level = coeffs
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, c)| c.abs() > 0.0)
            .filter_map(|(j, _)| basis[j].as_ref().map(Ciphertext::level))
            .min();
        let Some(level) = level else {
            let zeroed = self.multiply_scalar(basis[1].as_ref().unwrap(), 0.0);
            return self.add_scalar(&zeroed, coeffs[0]);
        };
        let prime = self.e.context().rescale_prime(level) as f64;
        let mut acc: Option<Ciphertext> = None;
        for (j, &c) in coeffs.iter().enumerate().skip(1) {
            if c.abs() == 0.0 {
                continue;
            }
            let t = self
                .e
                .mod_drop_to_level(basis[j].as_ref().unwrap(), level)
                .unwrap();
            let t = self.e.to_evaluation_form(&t).unwrap();
            let term = self.multiply_const(&t, c, prime);
            acc = Some(match acc {
                None => term,
                Some(prev) => {
                    let (x, y) = self.e.align_for_addition(&prev, &term).unwrap();
                    self.e.add(&x, &y).unwrap()
                }
            });
        }
        let rescaled = self.e.rescale(&acc.unwrap()).unwrap();
        self.add_scalar(&rescaled, coeffs[0])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn prop_chebyshev_matches_the_eval_resident_leaf_oracle(
        log_n in 3usize..8,
        seed in any::<u64>(),
        degree in 1usize..13,
        coeff_seeds in proptest::collection::vec(-1.0f64..1.0, 13),
        tiny_mask in any::<u64>(),
        zero_mask in any::<u64>(),
        mapped in any::<bool>(),
    ) {
        // Coefficients that encode to zero at a 2^40 prime (the ~1e-17 even terms of an odd
        // fit) and exact zeros, at random positions: zero-skipping leaves, all-zero leaves
        // and term-free leaves all occur across the cases.
        let coeffs: Vec<f64> = (0..=degree)
            .map(|k| {
                if (zero_mask >> k) & 1 == 1 && k > 0 {
                    0.0
                } else if (tiny_mask >> k) & 1 == 1 {
                    coeff_seeds[k] * 1e-17
                } else {
                    coeff_seeds[k]
                }
            })
            .collect();
        let (a, b) = if mapped { (-2.0, 2.0) } else { (-1.0, 1.0) };
        let series = ChebyshevSeries::from_coefficients(coeffs, a, b);
        let f = fixture(log_n, 7, 2, seed);
        let oracle = LeafOracle { e: &f.evaluator, rlk: &f.rlk };
        let want = oracle.evaluate(&series, &f.start);
        let got = series
            .evaluate_homomorphic(&f.evaluator, &f.start, &f.rlk)
            .expect("chebyshev evaluation");
        assert_bitwise(&got, &want, "chebyshev");
    }
}
