//! Log-linear latency histogram with bounded relative error.
//!
//! Values below `2^SUB_BITS` get one bucket each (exact).  Above that,
//! every power-of-two range `[2^k, 2^(k+1))` is split into `2^SUB_BITS`
//! equal buckets, so a bucket is at most `1/2^SUB_BITS` of its lower
//! bound wide.  A quantile is reported as its bucket's midpoint, which is
//! within half a bucket — at most `1/2^(SUB_BITS+1)` ≈ 0.4 % — of the true
//! sample quantile.  That resolves a 10 % latency shift with room to spare
//! (the factor-2 buckets of `pm2_workload::LogHistogram` cannot).

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Largest recorded value: 2^36 ns ≈ 69 s.  Larger values are clamped.
const MAX_SHIFT: u32 = 36 - SUB_BITS;
const N_BUCKETS: usize = ((MAX_SHIFT as usize) + 2) << SUB_BITS;

/// Worst-case relative error of a reported quantile.
pub const REL_ERROR: f64 = 1.0 / (2 * SUB) as f64;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; N_BUCKETS],
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = (msb - SUB_BITS).min(MAX_SHIFT);
    let top = (v >> shift).min(2 * SUB - 1);
    (((shift + 1) as u64) * SUB + (top - SUB)) as usize
}

/// Midpoint of bucket `i` (the value itself in the exact range).
fn midpoint(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let low = (SUB + i % SUB) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (nearest rank), or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(i);
            }
        }
        unreachable!("rank {rank} beyond total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn assert_close(got: f64, want: f64, what: &str) {
        let err = (got - want).abs() / want.max(1.0);
        assert!(
            err <= REL_ERROR,
            "{what}: got {got}, want {want} (rel err {err})"
        );
    }

    #[test]
    fn buckets_are_monotone_and_cover_their_values() {
        let mut prev = 0;
        for v in (0..1_000_000u64).chain((20..36).map(|k| (1 << k) + 12345)) {
            let i = index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            assert_close(midpoint(i), v as f64, "midpoint");
        }
        assert_eq!(index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn uniform_grid_quantiles_match_analytic_values() {
        // 1 µs .. 10 ms in 1 ns steps of 97: q-quantile is known exactly.
        let mut h = Hist::default();
        let (lo, step, n) = (1_000u64, 97u64, 103_000u64);
        for k in 0..n {
            h.record(lo + k * step);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = (q * n as f64).ceil() as u64;
            assert_close(h.quantile(q), (lo + (rank - 1) * step) as f64, "uniform");
        }
    }

    #[test]
    fn heavy_tailed_quantiles_match_sorted_samples() {
        // Log-uniform over 100 ns .. 100 ms plus a 1 % tail 10x out.
        let mut rng = Rng::fork(42, 0);
        let mut h = Hist::default();
        let mut raw = Vec::new();
        for _ in 0..200_000 {
            let e = 2.0 + 6.0 * rng.unit();
            let mut v = 10f64.powf(e) as u64;
            if rng.unit() < 0.01 {
                v *= 10;
            }
            h.record(v);
            raw.push(v);
        }
        raw.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
            assert_close(h.quantile(q), exact(&raw, q), "log-uniform");
        }
    }

    #[test]
    fn a_ten_percent_shift_is_visible() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        for k in 0..10_000u64 {
            a.record(5_000 + k % 100);
            b.record((5_000 + k % 100) * 11 / 10);
        }
        let ratio = b.quantile(0.5) / a.quantile(0.5);
        assert!((ratio - 1.1).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut all) = (Hist::default(), Hist::default(), Hist::default());
        for v in 0..50_000u64 {
            let v = v * 31 % 77_777;
            if v % 3 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
