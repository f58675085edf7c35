//! Seeded inputs: case ids and open-loop arrival schedules. Everything
//! here is a pure function of the `--seed` argument; the program under
//! test only ever sees the ids and times made here.

/// SplitMix64: a tiny, well-mixed generator whose output sequence is a
/// pure function of its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer. It is a bijection on `u64`, which is what
/// makes [`case_id`] collision-free within one stream.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th case id of stream `stream` under `seed`. Distinct
/// indices of one stream give distinct ids (a bijection of
/// `base + index`), so every request of a run asks for its own episode.
pub fn case_id(seed: u64, stream: u64, index: u64) -> u64 {
    let base = mix64(seed ^ mix64(stream.wrapping_add(0xA076_1D64_78BD_642F)));
    mix64(base.wrapping_add(index))
}

/// One scheduled request of an open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, seconds after the phase starts.
    pub at_s: f64,
    /// Episode the request asks for.
    pub case: u64,
}

/// A Poisson arrival process at `rate_rps` over `seconds`. Case ids come
/// from stream `stream` of `seed`.
pub fn poisson_schedule(seed: u64, stream: u64, rate_rps: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(mix64(seed) ^ mix64(stream));
    let mut arrivals = Vec::with_capacity((rate_rps * seconds * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 - u keeps the log argument > 0.
        t += -(1.0 - rng.next_f64()).ln() / rate_rps;
        if t >= seconds {
            return arrivals;
        }
        arrivals.push(Arrival {
            at_s: t,
            case: case_id(seed, stream, arrivals.len() as u64),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 1, 500.0, 2.0);
        let b = poisson_schedule(7, 1, 500.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 1, 500.0, 2.0));
        assert_ne!(a, poisson_schedule(7, 2, 500.0, 2.0));
    }

    #[test]
    fn schedule_has_the_offered_rate() {
        let arrivals = poisson_schedule(3, 0, 1000.0, 10.0);
        let n = arrivals.len() as f64;
        // 10 000 expected arrivals; 4 standard deviations is 400.
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(arrivals.windows(2).all(|w| w[0].at_s < w[1].at_s));
        assert!(arrivals.iter().all(|a| a.at_s < 10.0));
    }

    #[test]
    fn case_ids_are_distinct_within_and_across_streams() {
        let mut seen = BTreeSet::new();
        for stream in 0..4 {
            for index in 0..5000 {
                assert!(seen.insert(case_id(11, stream, index)));
            }
        }
        assert_eq!(case_id(11, 2, 9), case_id(11, 2, 9));
        assert_ne!(case_id(11, 2, 9), case_id(12, 2, 9));
        let arrivals = poisson_schedule(5, 9, 2000.0, 3.0);
        let cases: BTreeSet<u64> = arrivals.iter().map(|a| a.case).collect();
        assert_eq!(cases.len(), arrivals.len());
    }
}
