//! Deterministic pseudo-random number generation.
//!
//! The synthetic workload generators need a fast, seedable, reproducible
//! stream. We implement PCG32 (O'Neill, 2014) directly so that the simulator
//! core has no external dependencies and produces identical traces on every
//! platform and toolchain.

/// A PCG32 (XSH-RR 64/32) pseudo-random number generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Creates a generator from a seed and a stream selector.
    ///
    /// Distinct `(seed, stream)` pairs produce statistically independent
    /// sequences; the workload layer derives streams from
    /// `(app, core, warp)` so each warp sees its own trace.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// The raw `(state, increment)` pair, which a snapshot encodes.
    #[must_use]
    pub fn raw_parts(&self) -> (u64, u64) {
        (self.state, self.inc)
    }

    /// The next 32 uniformly-distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 uniformly-distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// A uniform value in `[0, bound)` (Lemire-style rejection-free modulo
    /// with negligible bias for the bounds used here).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // 128-bit multiply-shift maps the 64-bit stream onto [0, bound).
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg32::new(42, 7);
        let mut b = Pcg32::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn distinct_streams_diverge() {
        let mut a = Pcg32::new(42, 1);
        let mut b = Pcg32::new(42, 2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "streams should be nearly disjoint, {same} collisions"
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Pcg32::new(1, 1);
        for bound in [1u64, 2, 3, 17, 1000, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let mut rng = Pcg32::new(9, 3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.unit()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg32::new(5, 5);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
