//! Small order statistics and the output digest.

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples the tail estimate must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail summary: the value, the percentile it sits at, and the
/// sample count it was taken from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Median and tail of `xs`. The tail is the highest percentile with at
/// least [`TAIL_BEYOND`] samples beyond it: the sample of rank
/// `n - TAIL_BEYOND` (1-based), at percentile `100 (n - 10) / n`.
/// `None` when there are too few samples to leave ten beyond anything.
pub fn median_and_tail(xs: &[f64]) -> Option<(f64, Tail)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some((
        median(&v),
        Tail {
            value: v[rank - 1],
            percentile: 100.0 * rank as f64 / n as f64,
            samples: n,
        },
    ))
}

/// FNV-1a over bytes: a stable digest of rendered outputs, so a round's
/// results can be compared with the first round's and printed.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fold one digest into another (order-sensitive).
pub fn fold(acc: u64, d: u64) -> u64 {
    fnv1a(&[acc.to_le_bytes(), d.to_le_bytes()].concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (m, t) = median_and_tail(&xs).unwrap();
        assert_eq!(m, 50.5);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert!(median_and_tail(&xs[..10]).is_none());
    }
}
