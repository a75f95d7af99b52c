//! The generator's own randomness: SplitMix64, so inputs depend on the
//! seed alone and not on whichever `rand` the product links.

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `label` (a unit index, a purpose tag).
    pub fn fork(&self, label: u64) -> SplitMix64 {
        let mut s = SplitMix64(self.0 ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Index into a cumulative weight table (last entry is the total).
    pub fn pick(&mut self, cdf: &[f64]) -> usize {
        let u = self.unit() * cdf[cdf.len() - 1];
        cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
    }

    /// Poisson(λ): Knuth below 30, normal approximation above.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let limit = (-lambda).exp();
            let (mut k, mut p) = (0u64, 1.0);
            loop {
                p *= self.unit();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        }
        let (u1, u2) = (self.unit().max(1e-12), self.unit());
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (lambda + lambda.sqrt() * z).round().max(0.0) as u64
    }
}

/// Running sums of `weights`.
pub fn cumulative(weights: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .into_iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// Cumulative Zipf(`s`) weights over `n` ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    cumulative((1..=n).map(|k| 1.0 / (k as f64).powf(s)))
}

/// FNV-1a, for the input digest the determinism tests compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
