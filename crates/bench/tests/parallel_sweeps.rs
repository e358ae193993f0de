//! The parallel sweep driver must be a pure wall-clock optimization:
//! byte-identical results to the serial path, for the generic driver
//! (property-tested) and for a real figure sweep end to end.

use dmf_bench::experiments::REGISTRY;
use dmf_bench::parallel::parallel_map_with;
use dmf_bench::Scale;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_map_is_order_stable_and_exact(
        items in proptest::collection::vec(any::<u64>(), 0..200),
        threads in 1usize..9,
    ) {
        let work = |x: u64| {
            let mut h = x ^ 0xc2b2_ae3d_27d4_eb4f;
            for _ in 0..50 {
                h ^= h >> 29;
                h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
            }
            (x, h, format!("{h:x}"))
        };
        let serial: Vec<_> = items.clone().into_iter().map(work).collect();
        let parallel = parallel_map_with(threads, items, work);
        prop_assert_eq!(parallel, serial);
    }
}

/// A real sweep: Figure 3 at quick scale, serial vs. 4 workers, must
/// serialize to the exact same JSON (the figure seeds every cell
/// independently, so scheduling cannot leak into the numbers).
///
/// This is one `#[test]` in its own integration binary because it
/// pins the environment-independent path via explicit thread counts.
#[test]
fn fig3_parallel_matches_serial_byte_for_byte() {
    // Sub-quick scale: byte-identity needs every cell exercised, not
    // converged accuracy, and this trains 48 systems twice.
    let scale = Scale {
        harvard_nodes: 40,
        meridian_nodes: 50,
        hps3_nodes: 40,
        harvard_measurements: 8_000,
        budget_k_multiplier: 6,
        k_harvard: 8,
        k_meridian: 8,
        k_hps3: 8,
    };
    let fig3 = REGISTRY
        .iter()
        .find(|entry| entry.name == "fig3_eta_lambda")
        .expect("Figure 3 is registered")
        .run;
    std::env::set_var("DMF_BENCH_THREADS", "1");
    let serial = serde_json::to_string(&*fig3(&scale, 3)).expect("serialize serial");
    std::env::set_var("DMF_BENCH_THREADS", "4");
    let parallel = serde_json::to_string(&*fig3(&scale, 3)).expect("serialize parallel");
    std::env::remove_var("DMF_BENCH_THREADS");
    assert_eq!(serial, parallel, "parallel fig3 sweep diverged from serial");
}
