//! Small numeric helpers: nearest-rank quantiles, seeded arrival
//! schedules and Zipf draws.

use billcap_rt::{Rng, Xoshiro256pp};

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile within each run of `window` consecutive values,
/// then the median of those. A stall that delays one window's requests
/// moves one window, not the result. A trailing part-window is folded
/// into the last whole one; fewer values than a window form one window.
pub fn windowed_quantile(values: &[f64], window: usize, q: f64) -> f64 {
    let whole = (values.len() / window.max(1)).max(1);
    let per: Vec<f64> = (0..whole)
        .map(|w| {
            let end = if w + 1 == whole {
                values.len()
            } else {
                (w + 1) * window
            };
            quantile(&values[w * window..end], q)
        })
        .collect();
    median(&per)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `n` Poisson arrival offsets (ns from the phase start) at `rate`
/// requests per second.
pub fn poisson_offsets(rng: &mut Xoshiro256pp, rate: f64, n: usize) -> Vec<u64> {
    let mut t = 0.0_f64;
    (0..n)
        .map(|_| {
            // 1 - u is in (0, 1], so the log is finite.
            let u = 1.0 - rng.random::<f64>();
            t += -u.ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn draw(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.random::<f64>();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(rng: &mut Xoshiro256pp, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_quantile_ignores_one_bad_window() {
        let mut v = vec![1.0; 3000];
        v[10..50].iter_mut().for_each(|x| *x = 100.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(windowed_quantile(&v, 1000, 0.99), 1.0);
        assert_eq!(windowed_quantile(&v[..500], 1000, 0.5), 1.0);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100, 1.2);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let draws: Vec<usize> = (0..10_000).map(|_| z.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 100));
        let zeros = draws.iter().filter(|&&d| d == 0).count();
        let tail = draws.iter().filter(|&&d| d == 99).count();
        assert!(zeros > 10 * tail.max(1));
    }

    #[test]
    fn poisson_offsets_are_increasing_at_the_requested_rate() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let off = poisson_offsets(&mut rng, 1000.0, 5000);
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
        let secs = *off.last().unwrap() as f64 / 1e9;
        assert!((secs - 5.0).abs() < 0.5, "{secs}");
    }
}
