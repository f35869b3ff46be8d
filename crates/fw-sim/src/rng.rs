//! Self-contained deterministic PRNGs.
//!
//! The chip-level accelerator contains a hardware random number generator
//! (Figure 3, step ③); the simulator needs one that is fast, seedable and
//! identical across platforms so every experiment replays from a single
//! `u64` seed. We implement SplitMix64 (for seeding and cheap streams) and
//! xoshiro256++ (the workhorse generator) from their reference definitions
//! rather than pulling in `rand`, keeping the hot walk-update path free of
//! trait dispatch.

/// Derive an independent child seed for a named subsystem stream.
///
/// Subsystems that need their own randomness (e.g. the fault injector)
/// must not share the walk RNG's sequence — drawing from it would change
/// walk paths whenever the subsystem is toggled. Instead they derive a
/// child seed that is a pure function of `(seed, stream)`: deterministic
/// across runs, distinct per stream tag, and decorrelated from
/// `Xoshiro256pp::new(seed)` itself.
pub fn derive_stream_seed(seed: u64, stream: u64) -> u64 {
    let mut sm = SplitMix64::new(seed ^ stream.rotate_left(32));
    // Burn one output so stream 0 is not the identity permutation on the
    // seed, then take the next as the child seed.
    sm.next_u64();
    sm.next_u64()
}

/// SplitMix64: tiny, fast, passes BigCrush; ideal for seeding and for
/// deriving independent streams from one master seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the recommended general-purpose generator from the
/// xoshiro family (Blackman & Vigna). 256-bit state, period 2^256 − 1.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64, as the xoshiro authors recommend, guaranteeing
    /// a non-zero state for any seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        step(s);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased, no modulo in the common case). This is the operation the
    /// chip-level ALU performs to turn `rnd0` into `rnd1 ∈ [0, outDegree)`.
    ///
    /// # Panics
    /// In debug builds, panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Jump ahead exactly `steps` outputs: afterwards the generator is
    /// where `steps` calls of [`next_u64`](Self::next_u64) would leave it.
    pub fn advance(&mut self, steps: u64) {
        XoshiroJump::new(steps).apply(self);
    }

    /// Derive an independent child stream (used to give every chip-level
    /// accelerator its own generator).
    pub fn fork(&mut self) -> Xoshiro256pp {
        Xoshiro256pp::new(self.next_u64())
    }
}

/// The top 53 bits of `x` as a uniform `f64` in `[0, 1)`. Both the
/// conversion and the scaling are exact.
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The xoshiro256++ state transition applied a fixed number of times.
///
/// The transition is linear over GF(2), so any number of steps of it is
/// one 256×256 bit matrix, built by square-and-multiply from the one-step
/// matrix: a few dozen matrix products, about a millisecond. Applying it
/// to a state costs about a thousand word operations, whatever the step
/// count.
#[derive(Clone)]
pub struct XoshiroJump {
    /// Column `j` is the image of state bit `j` (word `j / 64`, bit
    /// `j % 64`).
    cols: [[u64; 4]; 256],
}

impl XoshiroJump {
    /// The transition applied `steps` times.
    pub fn new(steps: u64) -> Self {
        let mut one = Self::identity();
        one.cols.iter_mut().for_each(step);
        one.pow(steps)
    }

    /// This jump applied `e` times in a row.
    pub fn pow(&self, mut e: u64) -> Self {
        let mut acc = Self::identity();
        let mut base = self.clone();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.then(&base);
            }
            e >>= 1;
            if e > 0 {
                base = base.then(&base);
            }
        }
        acc
    }

    /// Zero steps.
    fn identity() -> Self {
        XoshiroJump {
            cols: std::array::from_fn(|j| {
                let mut s = [0u64; 4];
                s[j / 64] = 1 << (j % 64);
                s
            }),
        }
    }

    /// Jump `rng` ahead by this jump's step count.
    pub fn apply(&self, rng: &mut Xoshiro256pp) {
        rng.s = self.image(&rng.s);
    }

    /// The matrix times the state vector `s`: the XOR of the columns of
    /// `s`'s set bits.
    fn image(&self, s: &[u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (w, &word) in s.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let col = &self.cols[w * 64 + bits.trailing_zeros() as usize];
                for (o, c) in out.iter_mut().zip(col) {
                    *o ^= c;
                }
                bits &= bits - 1;
            }
        }
        out
    }

    /// `other` applied after `self`. Powers of one transition commute, so
    /// the order does not matter to [`pow`](Self::pow).
    fn then(&self, other: &XoshiroJump) -> XoshiroJump {
        XoshiroJump {
            cols: std::array::from_fn(|j| other.image(&self.cols[j])),
        }
    }
}

/// One xoshiro256++ state transition, without the output.
#[inline]
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// `L` lanes of xoshiro256++ stored word by word (structure of arrays),
/// so that one call advances every lane and, on a CPU with wide vector
/// registers, runs as a handful of vector instructions.
///
/// Each lane yields exactly what a scalar [`Xoshiro256pp`] in the same
/// state would, bit for bit.
#[derive(Debug, Clone)]
pub struct XoshiroLanes<const L: usize> {
    s: [[u64; L]; 4],
}

impl<const L: usize> XoshiroLanes<L> {
    /// One lane per generator, each in that generator's state.
    pub fn new(lanes: [Xoshiro256pp; L]) -> Self {
        XoshiroLanes {
            s: std::array::from_fn(|w| std::array::from_fn(|l| lanes[l].s[w])),
        }
    }

    /// Jump every lane ahead by `jump`'s step count.
    pub fn jump(&mut self, jump: &XoshiroJump) {
        for l in 0..L {
            let state = jump.image(&[self.s[0][l], self.s[1][l], self.s[2][l], self.s[3][l]]);
            for (word, v) in self.s.iter_mut().zip(state) {
                word[l] = v;
            }
        }
    }

    /// Next 64 random bits of every lane: [`Xoshiro256pp::next_u64`]
    /// written word-array by word-array so that it vectorises.
    #[inline]
    pub fn next_u64(&mut self) -> [u64; L] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0u64; L];
        for l in 0..L {
            out[l] = s0[l]
                .wrapping_add(s3[l])
                .rotate_left(23)
                .wrapping_add(s0[l]);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
        out
    }

    /// Next uniform `f64` in `[0, 1)` of every lane, as
    /// [`Xoshiro256pp::next_f64`] computes it.
    #[inline]
    pub fn next_f64(&mut self) -> [f64; L] {
        let x = self.next_u64();
        let mut out = [0.0; L];
        for l in 0..L {
            out[l] = unit_f64(x[l]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public SplitMix64
        // reference implementation.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::new(42);
        let mut b = Xoshiro256pp::new(42);
        let mut c = Xoshiro256pp::new(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn next_below_stays_in_range_and_hits_all_values() {
        let mut g = Xoshiro256pp::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut g = Xoshiro256pp::new(99);
        let n = 100_000;
        let k = 8u64;
        let mut counts = [0u32; 8];
        for _ in 0..n {
            counts[g.next_below(k) as usize] += 1;
        }
        let expect = n as f64 / k as f64;
        for c in counts {
            // within 5% of expectation at n=100k — loose but catches bias bugs
            assert!((c as f64 - expect).abs() < expect * 0.05, "{counts:?}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256pp::new(3);
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let a = derive_stream_seed(42, 1);
        assert_eq!(a, derive_stream_seed(42, 1), "pure function of inputs");
        assert_ne!(a, derive_stream_seed(42, 2), "distinct per stream tag");
        assert_ne!(a, derive_stream_seed(43, 1), "distinct per seed");
        assert_ne!(derive_stream_seed(42, 0), 42, "stream 0 not identity");
    }

    #[test]
    fn advance_equals_stepping() {
        for n in [0, 1, 63, 64, 255, 256, 257, 5 * 17 * 8192] {
            let mut stepped = Xoshiro256pp::new(11);
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut jumped = Xoshiro256pp::new(11);
            jumped.advance(n);
            assert_eq!(jumped.s, stepped.s, "advance({n})");
        }
    }

    #[test]
    fn advances_compose() {
        let mut g = Xoshiro256pp::new(12);
        for _ in 0..4 {
            let (a, b) = (g.next_below(1 << 40), g.next_below(1 << 40));
            let mut split = Xoshiro256pp::new(a ^ b);
            let mut whole = split.clone();
            split.advance(a);
            split.advance(b);
            whole.advance(a + b);
            assert_eq!(split.s, whole.s, "advance({a}) + advance({b})");
        }
    }

    #[test]
    fn unit_f64_is_exact_at_the_edges() {
        for v in [0, (1u64 << 32) - 1, 1 << 32, (1u64 << 53) - 1] {
            let x = (v << 11) | 0x7ff; // low bits are discarded
            assert_eq!(unit_f64(x), v as f64 / 9007199254740992.0, "{v}");
        }
    }

    #[test]
    fn every_lane_matches_its_scalar_stream() {
        lanes_match_their_scalar_streams::<8>();
        lanes_match_their_scalar_streams::<16>();
    }

    /// `L` lanes a fixed stride apart draw, bit for bit, what their
    /// scalar generators draw, before and after a jump.
    fn lanes_match_their_scalar_streams<const L: usize>() {
        let stride = 1_000;
        let base = Xoshiro256pp::new(13);
        let mut scalars: Vec<Xoshiro256pp> = (0..L as u64)
            .map(|l| {
                let mut g = base.clone();
                g.advance(l * stride);
                g
            })
            .collect();
        let mut lanes = XoshiroLanes::<L>::new(std::array::from_fn(|l| scalars[l].clone()));
        for i in 0..100_000 {
            let got = lanes.next_f64();
            for (l, g) in scalars.iter_mut().enumerate() {
                assert_eq!(
                    got[l].to_bits(),
                    g.next_f64().to_bits(),
                    "L={L}: lane {l}, draw {i}"
                );
            }
        }
        let jump = XoshiroJump::new(stride).pow(3);
        lanes.jump(&jump);
        for g in &mut scalars {
            g.advance(stride * 3);
        }
        let got = lanes.next_u64();
        for (l, g) in scalars.iter_mut().enumerate() {
            assert_eq!(got[l], g.next_u64(), "L={L}: lane {l} after a jump");
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut g = Xoshiro256pp::new(5);
        let mut f1 = g.fork();
        let mut f2 = g.fork();
        let a: Vec<u64> = (0..4).map(|_| f1.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| f2.next_u64()).collect();
        assert_ne!(a, b);
    }
}
