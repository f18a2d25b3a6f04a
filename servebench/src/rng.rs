//! Seeded generators for workload inputs and schedules.
//!
//! Everything the program receives is derived from the `--seed`
//! argument through these helpers, so one seed always replays the same
//! byte stream.

/// SplitMix64: small, fast, and fully specified, so schedules do not
/// depend on any library's generator choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose (`salt`) of one seed.
    pub fn stream(seed: u64, salt: u64) -> Self {
        let mut base = Rng::new(seed);
        Rng::new(base.next_u64() ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential inter-arrival gap (Poisson process) in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate_per_s: f64) -> u64 {
        let u = 1.0 - self.unit();
        (-u.ln() / rate_per_s * 1e9) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a, the schedule fingerprint: cheap, byte-exact, stable.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A dense `f32` tensor of uniform values in `[0, 1)`.
pub fn image(rng: &mut Rng, shape: &[usize]) -> dlhub_core::Value {
    let len = shape.iter().product();
    let data = (0..len).map(|_| rng.unit() as f32).collect();
    dlhub_core::Value::Tensor {
        shape: shape.to_vec(),
        data,
    }
}

/// A binary or ternary composition over the first 83 elements (the
/// same pool the stability model was trained on), e.g. `Fe2O3Al1`.
pub fn formula(rng: &mut Rng) -> String {
    let pool = &dlhub_matsci::elements::ELEMENTS[..83];
    let arity = 2 + rng.below(2);
    let mut symbols: Vec<&str> = Vec::with_capacity(arity);
    while symbols.len() < arity {
        let symbol = pool[rng.below(pool.len())].symbol;
        if !symbols.contains(&symbol) {
            symbols.push(symbol);
        }
    }
    symbols
        .iter()
        .map(|s| format!("{s}{}", 1 + rng.below(6)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_replay_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(1, 2).next_u64(), Rng::stream(2, 2).next_u64());
        assert_ne!(Rng::stream(1, 2).next_u64(), Rng::stream(1, 3).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(100, 1.2);
        let mut rng = Rng::new(3);
        let head = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        assert!(head > 5_000, "{head}");
    }
}
