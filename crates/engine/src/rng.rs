//! Deterministic random-number generation.
//!
//! Every stochastic component of the simulator (workload arrivals, ECMP
//! hashing salt, DIBS detour-port choice, ...) draws from its own
//! [`SimRng`], forked from a single root seed. Forking is label-based, so
//! adding a new consumer does not perturb the streams of existing ones.

/// SplitMix64 step; used to derive fork seeds from (seed, label) pairs.
///
/// This is the canonical splitmix64 finalizer from Steele et al., a cheap,
/// well-distributed mixing function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic 64-bit hash of a byte string, built from splitmix64.
///
/// Used wherever a stable identifier (a fork label, a run-descriptor
/// field) must be folded into a seed. The hash depends only on the bytes,
/// never on pointer identity or platform, so it is safe to persist.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    // Seed the fold with an arbitrary non-zero constant so the empty
    // string does not hash to zero.
    let mut h = 0x6A09_E667_F3BC_C908;
    for &b in bytes {
        h = splitmix64(h ^ u64::from(b));
    }
    // Length suffix: distinguishes "ab" + "c" from "a" + "bc" when callers
    // concatenate hashed fields.
    splitmix64(h ^ bytes.len() as u64)
}

/// Derives the seed of an independent random stream identified by a
/// sequence of words (typically hashed run-descriptor fields) under a
/// master seed.
///
/// This is the sweep executor's seeding scheme: the derived seed is a pure
/// function of `(master, words)` — never of thread identity, completion
/// order, or submission order — so a parallel sweep reproduces a serial
/// one bit for bit. Word order matters; empty word lists are valid.
pub fn derive_stream_seed(master: u64, words: &[u64]) -> u64 {
    let mut h = splitmix64(master ^ 0x9E37_79B9_7F4A_7C15);
    for &w in words {
        h = splitmix64(h ^ w);
    }
    splitmix64(h ^ words.len() as u64)
}

/// A seeded random stream.
///
/// A self-contained xoshiro256++ generator with a convenience API and
/// deterministic label-based forking. The implementation carries no
/// external dependencies and no global state, so identical seeds give
/// bit-identical streams on every platform and build.
///
/// # Examples
///
/// ```
/// use dibs_engine::rng::SimRng;
///
/// let mut a = SimRng::new(42).fork("workload");
/// let mut b = SimRng::new(42).fork("workload");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a stream from a root seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed through splitmix64, per the xoshiro authors'
        // recommendation; the all-zero state is unreachable this way.
        let mut s = splitmix64(seed);
        let mut state = [0u64; 4];
        for word in &mut state {
            s = splitmix64(s);
            *word = s;
        }
        SimRng { state, seed }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// Forking does not consume randomness from `self`, so the set of forks
    /// taken from a stream never affects the stream's own output.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h = self.seed;
        for b in label.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        SimRng::new(splitmix64(h ^ 0xD1B5_4A32_D192_ED03))
    }

    /// Derives an independent child stream identified by an index.
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        let forked = self.fork(label);
        SimRng::new(splitmix64(forked.seed ^ splitmix64(idx)))
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits scaled into the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let bound = n as u64;
        usize::try_from(self.bounded(bound)).expect("bound fits usize")
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.bounded(hi - lo)
    }

    /// Unbiased uniform value in `[0, bound)` via rejection sampling.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Classic Lemire-style threshold rejection: discard the biased
        // low region so every residue is equally likely.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            if x >= threshold {
                return x % bound;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        // Inverse transform; 1 - u avoids ln(0).
        let u = self.uniform();
        -mean * (1.0 - u).ln()
    }

    /// Picks one element of a non-empty slice uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len())]
    }

    /// Samples `k` distinct indices from `0..n` (Floyd's algorithm), returned
    /// in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct from {n}");
        // Floyd's algorithm gives distinctness in O(k) expected time; a final
        // Fisher-Yates pass randomizes the order.
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.below(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        // Shuffle.
        for i in (1..chosen.len()).rev() {
            let j = self.below(i + 1);
            chosen.swap(i, j);
        }
        chosen
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRng").field("seed", &self.seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent = SimRng::new(7);
        let mut f1 = parent.fork("x");
        let mut parent2 = SimRng::new(7);
        parent2.next_u64(); // Consume from the parent.
        let mut f2 = parent2.fork("x");
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn different_labels_differ() {
        let parent = SimRng::new(7);
        assert_ne!(parent.fork("a").next_u64(), parent.fork("b").next_u64());
        assert_ne!(
            parent.fork_idx("a", 0).next_u64(),
            parent.fork_idx("a", 1).next_u64()
        );
    }

    #[test]
    fn hash_bytes_is_stable_and_length_sensitive() {
        assert_eq!(hash_bytes(b"fig12"), hash_bytes(b"fig12"));
        assert_ne!(hash_bytes(b"fig12"), hash_bytes(b"fig13"));
        assert_ne!(hash_bytes(b""), 0);
        // Field-boundary sensitivity for concatenating callers.
        assert_ne!(
            derive_stream_seed(1, &[hash_bytes(b"ab"), hash_bytes(b"c")]),
            derive_stream_seed(1, &[hash_bytes(b"a"), hash_bytes(b"bc")])
        );
    }

    #[test]
    fn derive_stream_seed_depends_on_all_inputs() {
        let w = [hash_bytes(b"scenario"), hash_bytes(b"point"), 3];
        assert_eq!(derive_stream_seed(7, &w), derive_stream_seed(7, &w));
        assert_ne!(derive_stream_seed(7, &w), derive_stream_seed(8, &w));
        let mut reordered = w;
        reordered.swap(0, 1);
        assert_ne!(derive_stream_seed(7, &w), derive_stream_seed(7, &reordered));
        assert_ne!(derive_stream_seed(7, &[]), derive_stream_seed(7, &[0]));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < 0.05 * mean,
            "observed mean {observed}"
        );
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = SimRng::new(11);
        for _ in 0..200 {
            let s = rng.sample_distinct(40, 12);
            assert_eq!(s.len(), 12);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 12);
            assert!(s.iter().all(|&x| x < 40));
        }
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut rng = SimRng::new(11);
        let mut s = rng.sample_distinct(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
