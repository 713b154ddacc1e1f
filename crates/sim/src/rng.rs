//! Seeded, portable random-number generation.
//!
//! Every stochastic element of the reproduction — random coin
//! initializations (Figs 3, 4, 6, 7, 8), random pairing partner selection,
//! workload jitter — draws from a [`SimRng`], an in-repo ChaCha8 generator
//! that is stable across platforms and toolchains (no external crates, so
//! the stream can never shift under a dependency upgrade). Sweeps derive
//! per-trial generators from a root seed with [`SimRng::derive`], so trials
//! are independent yet individually reproducible.

/// A deterministic simulation RNG.
///
/// # Example
///
/// ```
/// use blitzcoin_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.range_u64(0..100), b.range_u64(0..100));
///
/// // Per-trial generators are decorrelated but reproducible:
/// let t0 = SimRng::seed(42).derive(0).range_u64(0..1_000_000);
/// let t1 = SimRng::seed(42).derive(1).range_u64(0..1_000_000);
/// assert_ne!(t0, t1);
/// assert_eq!(t0, SimRng::seed(42).derive(0).range_u64(0..1_000_000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    core: ChaCha8,
    /// The words of the last four blocks, in stream order.
    buf: [u32; BUF_WORDS],
    /// Next unread word in `buf`; `BUF_WORDS` means the buffer is
    /// exhausted.
    cursor: usize,
    seed: u64,
}

/// Blocks one refill computes together, one per vector lane.
const LANES: usize = 4;
/// Words one refill yields: `LANES` whole 16-word blocks.
const BUF_WORDS: usize = 16 * LANES;

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The 256-bit ChaCha key is expanded from the seed with a SplitMix64
    /// chain, mirroring the usual `seed_from_u64` construction.
    pub fn seed(seed: u64) -> Self {
        let mut key = [0u32; 8];
        let mut s = seed;
        for pair in key.chunks_exact_mut(2) {
            s = splitmix64(s);
            pair[0] = s as u32;
            pair[1] = (s >> 32) as u32;
        }
        SimRng {
            core: ChaCha8::new(key),
            buf: [0; BUF_WORDS],
            cursor: BUF_WORDS,
            seed,
        }
    }

    /// The seed this generator was created from.
    pub fn root_seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator for trial/stream `index`.
    ///
    /// The derivation is a fixed mix of the root seed and the index (a
    /// SplitMix64 finalizer), so child streams do not overlap for any
    /// realistic number of trials.
    pub fn derive(&self, index: u64) -> SimRng {
        SimRng::seed(splitmix64(self.seed ^ splitmix64(index)))
    }

    /// The next raw 32-bit output word.
    pub fn next_u32(&mut self) -> u32 {
        if self.cursor == BUF_WORDS {
            self.core.next_blocks(&mut self.buf);
            self.cursor = 0;
        }
        let w = self.buf[self.cursor];
        self.cursor += 1;
        w
    }

    /// The next raw 64-bit output word.
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Uniform value in `range` (half-open).
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "range_u64: empty range");
        let span = range.end - range.start;
        // Rejection sampling over the largest multiple of `span` that fits
        // in u64, so the result is exactly uniform.
        let zone = (u64::MAX / span) * span;
        loop {
            let x = self.next_u64();
            if x < zone {
                return range.start + x % span;
            }
        }
    }

    /// Uniform value in `range` (half-open).
    pub fn range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.range_u64(range.start as u64..range.end as u64) as usize
    }

    /// Uniform value in `range` (half-open).
    pub fn range_i64(&mut self, range: std::ops::Range<i64>) -> i64 {
        assert!(range.start < range.end, "range_i64: empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.range_u64(0..span) as i64)
    }

    /// Uniform float in `[0, 1)` with 53 random mantissa bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot choose from an empty slice");
        &slice[self.range_usize(0..slice.len())]
    }
}

/// The ChaCha8 block function (RFC 8439 layout, 8 rounds, 64-bit counter).
#[derive(Debug, Clone)]
struct ChaCha8 {
    state: [u32; 16],
}

impl ChaCha8 {
    fn new(key: [u32; 8]) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k" constants.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        state[4..12].copy_from_slice(&key);
        // Words 12..13 hold the 64-bit block counter; 14..15 the nonce (0).
        ChaCha8 { state }
    }

    /// Writes the next `LANES` blocks into `out`, block after block, and
    /// advances the counter past them: the same words, in the same order,
    /// as `LANES` calls of the one-block function. Each lane computes its
    /// block from its own 64-bit counter, so a batch that straddles the
    /// carry into word 13 (or the wrap of the whole counter) matches too.
    ///
    /// The lane loop is the innermost loop (the rounds are written out,
    /// not looped), so LLVM's loop vectorizer runs the lanes as one
    /// `[u32; 4]` SSE2 vector per state word, which baseline x86-64 has.
    /// The vectorizer is what makes this pay: SLP vectorization of the
    /// rounds finds a 4-wide rotate no cheaper than four scalar ones.
    fn next_blocks(&mut self, out: &mut [u32; BUF_WORDS]) {
        let counter = u64::from(self.state[12]) | u64::from(self.state[13]) << 32;
        for k in 0..LANES {
            let mut init = self.state;
            let c = counter.wrapping_add(k as u64);
            init[12] = c as u32;
            init[13] = (c >> 32) as u32;
            let mut x = init;
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            for w in 0..16 {
                out[16 * k + w] = x[w].wrapping_add(init[w]);
            }
        }
        let next = counter.wrapping_add(LANES as u64);
        self.state[12] = next as u32;
        self.state[13] = (next >> 32) as u32;
    }

    /// The one-block function [`ChaCha8::next_blocks`] replaced, kept as
    /// its reference.
    #[cfg(test)]
    fn next_block(&mut self) -> [u32; 16] {
        let mut x = self.state;
        for _ in 0..4 {
            double_round(&mut x);
        }
        for (o, s) in x.iter_mut().zip(self.state.iter()) {
            *o = o.wrapping_add(*s);
        }
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
        x
    }
}

#[inline(always)]
fn double_round(x: &mut [u32; 16]) {
    // Column round.
    quarter(x, 0, 4, 8, 12);
    quarter(x, 1, 5, 9, 13);
    quarter(x, 2, 6, 10, 14);
    quarter(x, 3, 7, 11, 15);
    // Diagonal round.
    quarter(x, 0, 5, 10, 15);
    quarter(x, 1, 6, 11, 12);
    quarter(x, 2, 7, 8, 13);
    quarter(x, 3, 4, 9, 14);
}

#[inline(always)]
fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// SplitMix64 finalizer: a cheap, well-mixed hash used for seed expansion
/// and for stateless per-entity random decisions (fault injection derives
/// drop/delay decisions from hashes of packet identity so it never
/// perturbs the main simulation stream).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Exact inverse of [`splitmix64`]. The finalizer is a bijection on
/// `u64` (an add, two odd multiplications, and three xorshifts, each
/// individually invertible), which is what lets the event queue's
/// `Permuted` tie-break use it as a keyed permutation of sequence
/// numbers: the shuffled heap key still decodes back to the exact
/// scheduling sequence on pop.
pub fn inv_splitmix64(mut x: u64) -> u64 {
    x = x ^ (x >> 31) ^ (x >> 62);
    x = x.wrapping_mul(0x3196_42B2_D24D_8EC3);
    x = x ^ (x >> 27) ^ (x >> 54);
    x = x.wrapping_mul(0x96DE_1B17_3F11_9089);
    x = x ^ (x >> 30) ^ (x >> 60);
    x.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha_rfc8439_vector() {
        // RFC 8439 §2.3.2 test vector key/counter/nonce, adapted to 8
        // rounds is not published, so check the 20-round-independent
        // parts: the block function must be deterministic and the counter
        // must advance.
        let mut c = ChaCha8::new([1, 2, 3, 4, 5, 6, 7, 8]);
        let b0 = c.next_block();
        let b1 = c.next_block();
        assert_ne!(b0, b1);
        let mut c2 = ChaCha8::new([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c2.next_block(), b0);
        assert_eq!(c2.next_block(), b1);
    }

    /// `words` words of the scalar one-block function, from `core`'s
    /// current counter on.
    fn scalar_words(mut core: ChaCha8, words: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(words + 16);
        while out.len() < words {
            out.extend(core.next_block());
        }
        out.truncate(words);
        out
    }

    fn draws(rng: &mut SimRng, words: usize) -> Vec<u32> {
        (0..words).map(|_| rng.next_u32()).collect()
    }

    #[test]
    fn four_block_refill_matches_scalar_blocks() {
        for seed in 0..200u64 {
            let mut rng = SimRng::seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let want = scalar_words(rng.core.clone(), 1_500);
            assert_eq!(draws(&mut rng, 1_500), want, "seed {seed}");
        }
        // batches whose four lanes straddle the carry from word 12 into
        // word 13, and the wrap of the whole 64-bit counter
        let carry = 1u64 << 32;
        for start in [
            carry - 4,
            carry - 3,
            carry - 2,
            carry - 1,
            u64::MAX - 2,
            u64::MAX,
        ] {
            let mut rng = SimRng::seed(start);
            rng.core.state[12] = start as u32;
            rng.core.state[13] = (start >> 32) as u32;
            let want = scalar_words(rng.core.clone(), 1_024);
            assert_eq!(draws(&mut rng, 1_024), want, "counter {start:#x}");
        }
        // a clone or a derive taken mid-buffer, at and between block and
        // refill boundaries
        for head in [1, 15, 16, 37, 63, 64, 65, 100] {
            let mut rng = SimRng::seed(77);
            let want = scalar_words(rng.core.clone(), head + 1_000);
            assert_eq!(draws(&mut rng, head), want[..head], "head {head}");
            let mut twin = rng.clone();
            assert_eq!(draws(&mut twin, 1_000), want[head..], "clone at {head}");
            assert_eq!(draws(&mut rng, 1_000), want[head..], "source at {head}");
            let mut child = rng.derive(3);
            let fresh = SimRng::seed(77).derive(3);
            let want_child = scalar_words(fresh.core.clone(), 1_000);
            assert_eq!(draws(&mut child, 1_000), want_child, "derive at {head}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_reproducible_and_decorrelated() {
        let root = SimRng::seed(99);
        let x: Vec<u64> = {
            let mut r = root.derive(5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let y: Vec<u64> = {
            let mut r = root.derive(5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(x, y);
        let z: Vec<u64> = {
            let mut r = root.derive(6);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(x, z);
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::seed(3);
        for _ in 0..1000 {
            let v = r.range_u64(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_i64_handles_negative_spans() {
        let mut r = SimRng::seed(11);
        for _ in 0..1000 {
            let v = r.range_i64(-5..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn range_u64_covers_full_span() {
        let mut r = SimRng::seed(12);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.range_u64(0..8) as usize] = true;
        }
        assert_eq!(seen, [true; 8]);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let expected: Vec<u32> = (0..50).collect();
        assert_eq!(sorted, expected);
        assert_ne!(v, expected, "50 elements should not shuffle to identity");
    }

    #[test]
    fn choose_covers_slice() {
        let mut r = SimRng::seed(6);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*r.choose(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn inv_splitmix64_round_trips() {
        // bijection check across a spread of values, both directions
        for x in [
            0u64,
            1,
            0x9E37_79B9_7F4A_7C15,
            u64::MAX,
            u64::MAX / 3,
            0xDEAD_BEEF_CAFE_F00D,
        ] {
            assert_eq!(inv_splitmix64(splitmix64(x)), x);
            assert_eq!(splitmix64(inv_splitmix64(x)), x);
        }
        let mut r = SimRng::seed(0x51);
        for _ in 0..1000 {
            let x = r.next_u64();
            assert_eq!(inv_splitmix64(splitmix64(x)), x);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SimRng::seed(8);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
