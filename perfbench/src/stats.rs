//! Metric derivations shared by every workload: medians, the tail-percentile rule,
//! precision bits and the residual/ratio arithmetic of the per-layer breakdown.
//!
//! [`self_check`] runs these derivations on synthetic samples with known answers; the
//! benchmark calls it before every run, so a broken derivation fails the run instead of
//! reporting a wrong number.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
/// Samples that must lie beyond a percentile before it is reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `samples` (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A tail percentile: which one, its value, and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub percentile: f64,
    /// The nearest-rank sample value at that percentile.
    pub value: f64,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples
/// beyond its nearest rank, or `None` when even the median has fewer.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&percentile| {
        let rank = ((percentile / 100.0) * n as f64).ceil() as usize;
        if rank == 0 || rank > n {
            return None;
        }
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// Renders a timing as "median … ; pXX … (k beyond), n samples", or says that no tail
/// percentile has enough samples beyond it.
pub fn describe_timing(name: &str, unit: &str, samples: &[f64]) -> String {
    let tail = match tail(samples) {
        Some(t) => format!(
            "p{} {:.4} {unit} ({} samples beyond)",
            t.percentile, t.value, t.beyond
        ),
        None => format!("no percentile has {TAIL_MIN_BEYOND} samples beyond it"),
    };
    format!(
        "{name}: median {:.4} {unit}; {tail}; {} samples",
        median(samples),
        samples.len()
    )
}

/// Bits of precision of a result whose largest absolute error is `max_error`: −log2 of it.
pub fn precision_bits(max_error: f64) -> f64 {
    -max_error.log2()
}

/// Largest absolute difference between two equally long value vectors.
pub fn max_abs_error(measured: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(
        measured.len(),
        reference.len(),
        "compared vectors differ in length"
    );
    measured
        .iter()
        .zip(reference)
        .map(|(m, r)| (m - r).abs())
        .fold(0.0, f64::max)
}

/// The share of `parent` its `parts` leave unexplained: `1 − parts / parent`.
pub fn residual(parts: f64, parent: f64) -> f64 {
    if parent == 0.0 {
        0.0
    } else {
        1.0 - parts / parent
    }
}

/// `numerator / denominator`, or 0 when nothing was attempted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Checks the derivations above on synthetic samples with known answers.
///
/// # Errors
///
/// Names the first derivation that disagrees with its expected value.
pub fn self_check() -> Result<(), String> {
    fn expect(what: &str, ok: bool) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("metric self-check failed: {what}"))
        }
    }
    let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    // 1000 samples: p99 sits at rank 990 with exactly 10 beyond; p99.9 has only 1.
    let t = tail(&ramp(1000));
    expect(
        "p99 of 1..=1000 is 990 with 10 beyond",
        t == Some(Tail {
            percentile: 99.0,
            value: 990.0,
            beyond: 10,
        }),
    )?;
    // 999 samples: p99 (rank 990) has 9 beyond, so the rule falls back to p95.
    let t = tail(&ramp(999));
    expect(
        "p95 of 1..=999 is 950 with 49 beyond",
        t == Some(Tail {
            percentile: 95.0,
            value: 950.0,
            beyond: 49,
        }),
    )?;
    // 20 samples: only the median qualifies, with exactly 10 beyond; 19 leave no tail.
    let t = tail(&ramp(20));
    expect(
        "p50 of 1..=20 is 10 with 10 beyond",
        t == Some(Tail {
            percentile: 50.0,
            value: 10.0,
            beyond: 10,
        }),
    )?;
    expect("1..=19 has no tail percentile", tail(&ramp(19)).is_none())?;
    // Order must not matter.
    let mut shuffled = ramp(1000);
    shuffled.reverse();
    expect(
        "tail ignores sample order",
        tail(&shuffled) == tail(&ramp(1000)),
    )?;
    expect(
        "median of 1..=4 is 2.5",
        median(&[4.0, 1.0, 3.0, 2.0]) == 2.5,
    )?;
    expect("median of 1..=5 is 3", median(&ramp(5)) == 3.0)?;
    expect(
        "precision of a 2^-20 error is 20 bits",
        precision_bits(2f64.powi(-20)) == 20.0,
    )?;
    expect(
        "max abs error picks the largest deviation",
        max_abs_error(&[1.0, -2.0, 3.5], &[1.0, -2.25, 3.0]) == 0.5,
    )?;
    expect(
        "residual of 0.75 s of parts in 1 s is 0.25",
        residual(0.75, 1.0) == 0.25,
    )?;
    expect(
        "parts exceeding the parent give a negative residual",
        residual(1.5, 1.0) == -0.5,
    )?;
    expect("ratio 3/4", ratio(3.0, 4.0) == 0.75)?;
    expect("ratio over nothing attempted is 0", ratio(3.0, 0.0) == 0.0)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivations_pass_their_self_check() {
        self_check().expect("self-check");
    }

    #[test]
    fn describe_timing_states_missing_tail() {
        let text = describe_timing("x_s", "s", &[1.0, 2.0, 3.0]);
        assert!(
            text.contains("no percentile has 10 samples beyond it"),
            "{text}"
        );
        assert!(text.contains("3 samples"), "{text}");
    }
}
