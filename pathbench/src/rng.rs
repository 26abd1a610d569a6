//! The benchmark's own seeded generator (SplitMix64): every schedule is a
//! function of `--seed` alone, whatever the library's generators do.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, kept apart from other streams of the same run by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below what a schedule can show).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 1), draw(42, 1));
        assert_ne!(draw(42, 1), draw(43, 1));
        assert_ne!(draw(42, 1), draw(42, 2));
    }

    #[test]
    fn a_shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(7, 0).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
