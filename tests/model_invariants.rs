//! Property-based invariants of the accelerator model: quantities that
//! must hold for *any* workload if the analytic simulator is coherent.

use proptest::prelude::*;
use ptb_snn::ptb_accel::config::{Policy, SimInputs};
use ptb_snn::ptb_accel::sim::{simulate_layer, simulate_layer_reference};
use ptb_snn::ptb_accel::stsap::{pack_tile, PackResult};
use ptb_snn::snn_core::shape::ConvShape;
use ptb_snn::snn_core::spike::SpikeTensor;
use ptb_snn::systolic_sim::{ArchConfig, ArrayDims};

fn small_layer_strategy() -> impl Strategy<Value = (ConvShape, SpikeTensor)> {
    (
        2u32..8,
        1u32..3,
        1u32..6,
        1u32..20,
        1usize..48,
        any::<u64>(),
    )
        .prop_flat_map(|(h, r, c, m, t, seed)| {
            let r = r.min(h);
            let shape = ConvShape::new(h, r, c, m, 1).expect("valid by construction");
            let neurons = shape.ifmap_neurons();
            Just((
                shape,
                SpikeTensor::from_fn(neurons, t, move |i, tp| {
                    let x = (i as u64)
                        .wrapping_mul(0x9E37)
                        .wrapping_add((tp as u64).wrapping_mul(0x85EB))
                        .wrapping_add(seed);
                    x % 7 == 0
                }),
            ))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_snn_policies_do_identical_useful_work(
        (shape, input) in small_layer_strategy(),
        tw in 1u32..=16,
    ) {
        let inputs = SimInputs::hpca22(tw);
        let base = simulate_layer(&inputs, Policy::BaselineTemporal, shape, &input);
        let ops: Vec<u64> = [
            Policy::ptb(),
            Policy::ptb_with_stsap(),
            Policy::TimeSerial,
            Policy::EventDriven,
        ]
        .into_iter()
        .map(|p| simulate_layer(&inputs, p, shape, &input).useful_ops)
        .collect();
        prop_assert!(ops.iter().all(|&o| o == base.useful_ops),
            "useful work must be schedule-invariant: {:?} vs {}", ops, base.useful_ops);
    }

    #[test]
    fn utilization_is_a_fraction((shape, input) in small_layer_strategy(), tw in 1u32..=16) {
        let inputs = SimInputs::hpca22(tw);
        for p in [Policy::ptb(), Policy::ptb_with_stsap(), Policy::BaselineTemporal, Policy::Ann] {
            let r = simulate_layer(&inputs, p, shape, &input);
            prop_assert!(r.utilization() >= 0.0 && r.utilization() <= 1.0 + 1e-9,
                "{:?}: utilization {}", p, r.utilization());
        }
    }

    #[test]
    fn stsap_never_increases_slots_or_changes_work(
        (shape, input) in small_layer_strategy(),
        tw in 1u32..=16,
    ) {
        let inputs = SimInputs::hpca22(tw);
        let plain = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        let packed = simulate_layer(&inputs, Policy::ptb_with_stsap(), shape, &input);
        prop_assert!(packed.entries_after <= plain.entries_after);
        prop_assert!(packed.cycles <= plain.cycles);
        prop_assert_eq!(packed.counts.ac_ops, plain.counts.ac_ops);
        prop_assert_eq!(packed.entries_before, plain.entries_before);
    }

    #[test]
    fn energy_and_edp_are_positive_and_consistent(
        (shape, input) in small_layer_strategy(),
        tw in 1u32..=16,
    ) {
        let inputs = SimInputs::hpca22(tw);
        let r = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        prop_assert!(r.energy_joules() >= 0.0);
        prop_assert!((r.edp() - r.energy_joules() * r.seconds).abs() <= r.edp() * 1e-12 + 1e-30);
        prop_assert!((r.seconds - r.cycles as f64 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn more_spikes_cost_more_under_ptb(
        (shape, _) in small_layer_strategy(),
        t in 8usize..40,
    ) {
        let sparse = SpikeTensor::from_fn(shape.ifmap_neurons(), t, |i, tp| (i + tp) % 11 == 0);
        let dense = SpikeTensor::from_fn(shape.ifmap_neurons(), t, |i, tp| (i + tp) % 2 == 0);
        let inputs = SimInputs::hpca22(8);
        let rs = simulate_layer(&inputs, Policy::ptb(), shape, &sparse);
        let rd = simulate_layer(&inputs, Policy::ptb(), shape, &dense);
        prop_assert!(rd.counts.ac_ops >= rs.counts.ac_ops);
        prop_assert!(rd.energy_joules() >= rs.energy_joules());
    }

    #[test]
    fn simulation_is_deterministic((shape, input) in small_layer_strategy(), tw in 1u32..=16) {
        let inputs = SimInputs::hpca22(tw);
        for p in [Policy::ptb_with_stsap(), Policy::BaselineTemporal, Policy::EventDriven] {
            let a = simulate_layer(&inputs, p, shape, &input);
            let b = simulate_layer(&inputs, p, shape, &input);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn longer_periods_never_cost_less((shape, input) in small_layer_strategy()) {
        // Extend the period by repeating the pattern: every cost metric
        // must be monotone in T.
        let t = input.timesteps();
        let doubled = SpikeTensor::from_fn(shape.ifmap_neurons(), t * 2, |n, tp| {
            input.get(n, tp % t)
        });
        let inputs = SimInputs::hpca22(8);
        let short = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        let long = simulate_layer(&inputs, Policy::ptb(), shape, &doubled);
        prop_assert!(long.energy_joules() >= short.energy_joules());
        prop_assert!(long.cycles >= short.cycles);
        prop_assert!(long.counts.ac_ops >= short.counts.ac_ops);
    }

    #[test]
    fn parallel_scan_matches_serial_for_every_policy(
        (shape, input) in small_layer_strategy(),
        tw in 1u32..=16,
        threads in 2usize..=9,
    ) {
        // The tentpole determinism guarantee: fanning the position scan
        // across N workers produces a LayerReport assert_eq!-identical
        // to the serial walk, for every policy.
        let serial = SimInputs::hpca22(tw);
        let parallel = serial.with_threads(threads);
        for p in [
            Policy::ptb(),
            Policy::ptb_with_stsap(),
            Policy::BaselineTemporal,
            Policy::TimeSerial,
            Policy::Ann,
            Policy::EventDriven,
        ] {
            let a = simulate_layer(&serial, p, shape, &input);
            let b = simulate_layer(&parallel, p, shape, &input);
            prop_assert_eq!(a, b, "{:?} diverged at {} threads", p, threads);
        }
    }

    #[test]
    fn dense_baselines_match_the_scalar_reference(
        (r, u, k, pad, c) in (1u32..7, 1u32..5, 0u32..5, 0u32..5, 1u32..4),
        (t, cols, threads, seed) in (1usize..150, 1u32..=130, 1usize..=9, any::<u64>()),
    ) {
        // The summed-area window sums of both dense baselines against
        // the receptive-field walk, over random strides, paddings
        // (overhanging windows included), array widths (tiles wider than
        // a spike word included) and thread counts (beyond the tile
        // count included). The padded side `R + k·U` tiles by
        // construction; the padding is capped so the map keeps a pixel.
        let pad = pad.min((r + k * u - 1) / 2);
        let h = r + k * u - 2 * pad;
        let shape = ConvShape::with_padding(h, r, c, 3, u, pad).expect("valid by construction");
        let density = 2 + seed % 7;
        let input = SpikeTensor::from_fn(shape.ifmap_neurons(), t, move |i, tp| {
            (i as u64)
                .wrapping_mul(0x9E37)
                .wrapping_add((tp as u64).wrapping_mul(0x85EB))
                .wrapping_add(seed)
                % density
                == 0
        });
        let inputs = SimInputs {
            arch: ArchConfig::hpca22().with_array(ArrayDims::new(4, cols)),
            ..SimInputs::hpca22(1)
        }
        .with_threads(threads);
        for p in [Policy::BaselineTemporal, Policy::TimeSerial] {
            let word = simulate_layer(&inputs, p, shape, &input);
            let reference = simulate_layer_reference(&inputs, p, shape, &input);
            prop_assert_eq!(word, reference, "{:?} {:?} t={} cols={} threads={}", p, shape, t, cols, threads);
        }
    }

    #[test]
    fn pack_tile_partitions_entries(seed in any::<u64>(), n in 1usize..120, width in 1u32..=16) {
        let full: u128 = if width == 128 { u128::MAX } else { (1u128 << width) - 1 };
        let tags: Vec<u128> = (0..n)
            .map(|i| {
                let v = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) as u128;
                let m = v & full;
                if m == 0 { 1 } else { m }
            })
            .collect();
        let r: PackResult = pack_tile(&tags, full);
        // Every entry appears exactly once across all slots.
        let mut seen = vec![false; n];
        for s in &r.slots {
            prop_assert!(!std::mem::replace(&mut seen[s.first], true));
            if let Some(sec) = s.second {
                prop_assert!(!std::mem::replace(&mut seen[sec], true));
                // Pairs are genuinely disjoint and non-bursting.
                prop_assert_eq!(tags[s.first] & tags[sec], 0);
                prop_assert!(tags[s.first] != full && tags[sec] != full);
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
        prop_assert_eq!(r.entries_after() + r.pairs(), r.entries_before);
    }
}
