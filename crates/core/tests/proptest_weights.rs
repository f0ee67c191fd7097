//! Property test for the eq. 4 weights: read off the per-solve descendant
//! sets, they equal the one-walk-per-task reference bit for bit, on graphs
//! that cross the sets' 64-task word boundaries.

use batsched_core::sequence::{subtree_current_weights, subtree_weights, weighted_sequence};
use batsched_taskgraph::synth::{
    chain, fork_join, layered, random_dag, Rounding, ScalingScheme, TaskParams,
};
use batsched_taskgraph::topo::{list_schedule, DescendantSets};
use batsched_taskgraph::{PointId, TaskGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const M: usize = 4;

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 0usize..4, 2usize..200).prop_map(|(seed, family, n)| {
        let params = TaskParams {
            current_range: (50.0, 950.0),
            duration_range: (1.0, 15.0),
            factors: (0..M)
                .map(|j| 1.0 - 0.67 * j as f64 / (M - 1) as f64)
                .collect(),
            scheme: ScalingScheme::ReversedDuration,
            rounding: Rounding::PAPER,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => chain(n, &params, &mut rng),
            1 => fork_join(&[n / 2 + 1, n / 3 + 1], &params, &mut rng),
            2 => layered(n / 5 + 1, 5, 0.35, &params, &mut rng),
            _ => random_dag(n, 0.05, &params, &mut rng),
        }
        .expect("valid generator parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn set_weights_equal_the_reference_bit_for_bit(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment: Vec<PointId> =
            g.task_ids().map(|_| PointId(rng.gen_range(0..M))).collect();
        let sets = DescendantSets::new(&g);
        let fast: Vec<u64> =
            subtree_weights(&g, &sets, &assignment).iter().map(|w| w.to_bits()).collect();
        let oracle = subtree_current_weights(&g, &assignment);
        let slow: Vec<u64> = oracle.iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(fast, slow);
        let reference = list_schedule(&g, |_, t| oracle[t.index()]);
        prop_assert_eq!(weighted_sequence(&g, &assignment), reference);
    }
}
