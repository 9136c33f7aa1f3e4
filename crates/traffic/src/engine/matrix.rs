//! Seeded traffic matrices: who talks to whom.
//!
//! A [`TrafficMatrix`] describes the spatial structure of a heavy-traffic workload
//! over an ordered endpoint list (the switches hosts attach to). Two shapes cover
//! the workloads that run:
//!
//! * [`TrafficMatrix::Uniform`] — all-to-all: source and destination drawn uniformly,
//! * [`TrafficMatrix::Permutation`] — a seeded fixed permutation: endpoint `e` sends
//!   only to `pi(e)`, the worst case for core-link load balance.
//!
//! Sampling is fully deterministic: a [`MatrixSampler`] is built from the endpoint
//! count and the run seed, and equal seeds produce equal pair streams.

use sdn_rng::Rng;

/// The spatial structure of a traffic workload. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrafficMatrix {
    /// Uniform all-to-all traffic.
    Uniform,
    /// A seeded fixed permutation: endpoint `e` only sends to `pi(e)`.
    Permutation,
}

impl TrafficMatrix {
    /// Short label for reports (`"uniform"`, `"permutation"`).
    pub fn label(&self) -> &'static str {
        match self {
            TrafficMatrix::Uniform => "uniform",
            TrafficMatrix::Permutation => "permutation",
        }
    }

    /// Builds the stateful sampler for an endpoint list of `endpoints` entries.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two endpoints are available (no pair can be formed).
    pub fn sampler(&self, endpoints: usize, seed: u64) -> MatrixSampler {
        assert!(
            endpoints >= 2,
            "a traffic matrix needs at least two endpoints, got {endpoints}"
        );
        let mut rng = Rng::seed_from_u64(seed);
        let permutation = match self {
            TrafficMatrix::Uniform => Vec::new(),
            TrafficMatrix::Permutation => {
                // A seeded derangement-ish permutation: shuffle, then fix any
                // self-mapping by swapping with its cyclic successor so no endpoint
                // talks to itself.
                let mut perm: Vec<u32> = (0..endpoints as u32).collect();
                rng.shuffle(&mut perm);
                for i in 0..perm.len() {
                    if perm[i] == i as u32 {
                        let j = (i + 1) % perm.len();
                        perm.swap(i, j);
                    }
                }
                perm
            }
        };
        MatrixSampler {
            matrix: *self,
            endpoints,
            rng,
            permutation,
            cursor: 0,
        }
    }
}

/// The stateful, seeded pair sampler of one [`TrafficMatrix`].
#[derive(Clone, Debug)]
pub struct MatrixSampler {
    matrix: TrafficMatrix,
    endpoints: usize,
    rng: Rng,
    /// Fixed permutation (empty unless [`TrafficMatrix::Permutation`]).
    permutation: Vec<u32>,
    /// Round-robin source cursor of the permutation matrix.
    cursor: usize,
}

impl MatrixSampler {
    /// Draws the next `(src, dst)` pair as positions into the endpoint list.
    /// Guaranteed `src != dst`.
    pub fn next_pair(&mut self) -> (u32, u32) {
        let n = self.endpoints as u64;
        match self.matrix {
            TrafficMatrix::Uniform => {
                let src = self.rng.gen_range(0..n) as u32;
                let dst = self.distinct_from(src);
                (src, dst)
            }
            TrafficMatrix::Permutation => {
                let src = (self.cursor % self.endpoints) as u32;
                self.cursor += 1;
                (src, self.permutation[src as usize])
            }
        }
    }

    /// A uniform endpoint position different from `src`.
    fn distinct_from(&mut self, src: u32) -> u32 {
        // Sample from n-1 positions and skip over src: uniform without rejection
        // loops, so the draw count per pair is fixed and the stream stays aligned.
        let d = self.rng.gen_range(0..self.endpoints as u64 - 1) as u32;
        if d >= src {
            d + 1
        } else {
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_pairs_are_distinct_and_seed_stable() {
        let mut a = TrafficMatrix::Uniform.sampler(16, 7);
        let mut b = TrafficMatrix::Uniform.sampler(16, 7);
        for _ in 0..1000 {
            let (s, d) = a.next_pair();
            assert_ne!(s, d);
            assert!(s < 16 && d < 16);
            assert_eq!((s, d), b.next_pair());
        }
        let mut c = TrafficMatrix::Uniform.sampler(16, 8);
        let first: Vec<_> = (0..16).map(|_| c.next_pair()).collect();
        let mut a2 = TrafficMatrix::Uniform.sampler(16, 7);
        let again: Vec<_> = (0..16).map(|_| a2.next_pair()).collect();
        assert_ne!(first, again, "different seeds should differ somewhere");
    }

    #[test]
    fn permutation_is_fixed_and_self_free() {
        let mut sampler = TrafficMatrix::Permutation.sampler(10, 5);
        let first: Vec<(u32, u32)> = (0..10).map(|_| sampler.next_pair()).collect();
        // Sources cycle round-robin; destinations form a permutation without
        // self-mappings.
        let mut dsts: Vec<u32> = first.iter().map(|&(_, d)| d).collect();
        for (i, &(s, d)) in first.iter().enumerate() {
            assert_eq!(s, i as u32);
            assert_ne!(s, d);
        }
        dsts.sort_unstable();
        assert_eq!(dsts, (0..10).collect::<Vec<_>>());
        // The second cycle repeats the same mapping.
        let second: Vec<(u32, u32)> = (0..10).map(|_| sampler.next_pair()).collect();
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "at least two endpoints")]
    fn one_endpoint_panics() {
        let _ = TrafficMatrix::Uniform.sampler(1, 0);
    }
}
