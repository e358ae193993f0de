//! Layout conformance: a `k`-island [`ShardedSimNet`] must produce
//! **exactly** the delivery stream (and counters) the dense [`SimNet`]
//! produces for the same operation script, impairment hooks included.
//!
//! The comparison is only meaningful with jitter and loss disabled
//! and the default delay between islands: then neither layout draws
//! from an RNG, and the cross-island default-delay carve-out coincides
//! with the delay the dense net's function gives the same pair. A
//! re-embedding swaps in a function that keeps that so: it changes
//! intra-island delays only, island by the compared layout's. Any
//! divergence is a bug in what the layouts share (island lookup, seq
//! threading through the one queue, clock handling, where partitions,
//! straggler factors and swapped delay functions apply), which is
//! precisely what this suite pins. Draw *order* under jitter is
//! `dmf-core`'s `sharded_golden`.

use dmf_simnet::net::NetStats;
use dmf_simnet::{NetConfig, ShardedSimNet, SimNet};
use proptest::prelude::*;

const DELAY_S: f64 = 0.05;
/// Node ids and class vectors are generated for this population and
/// wrapped / truncated to the case's `n`.
const MAX_N: usize = 13;

/// One step of an operation script. `Pop(c)` drains up to `c`
/// deliveries before the next schedule, so scripts exercise the queue
/// mid-run (schedules relative to an advanced clock), not just a
/// schedule-everything-then-drain pattern.
#[derive(Clone, Debug)]
enum Op {
    Send {
        from: usize,
        to: usize,
    },
    Timer {
        node: usize,
        delay_ms: u16,
    },
    TimerAt {
        node: usize,
        at_ms: u16,
    },
    Roundtrip {
        from: usize,
        to: usize,
    },
    Pop(u8),
    /// `set_partition_classes` with the first `n` of these classes.
    Partition(Vec<u32>),
    /// `set_delay_factor(node, quarters / 4)`: exact in `f32`.
    Straggler {
        node: usize,
        quarters: u8,
    },
    Heal,
    /// `set_delay_fn`: `quarters / 4 · DELAY_S` within a block of ids,
    /// `DELAY_S` across blocks. The dense reference's blocks are the
    /// compared layout's islands; the k-island net's function sees one
    /// block, so a cross-island leg that asked it would diverge.
    Reembed(u8),
}

fn op() -> impl Strategy<Value = Op> {
    let n = MAX_N;
    prop_oneof![
        (0..n, 0..n).prop_map(|(from, to)| Op::Send { from, to }),
        (0..n, 1u16..2000).prop_map(|(node, delay_ms)| Op::Timer { node, delay_ms }),
        (0..n, 1u16..5000).prop_map(|(node, at_ms)| Op::TimerAt { node, at_ms }),
        (0..n, 0..n).prop_map(|(from, to)| Op::Roundtrip { from, to }),
        (1u8..6).prop_map(Op::Pop),
        proptest::collection::vec(0u32..3, n).prop_map(Op::Partition),
        (0..n, 1u8..13).prop_map(|(node, quarters)| Op::Straggler { node, quarters }),
        Just(Op::Heal),
        (1u8..13).prop_map(Op::Reembed),
    ]
}

/// The full observable record of one delivery: exact time bits,
/// endpoints and payload.
type Event = (u64, usize, usize, u32);

/// Runs `script` against a net of either layout (a [`ShardedSimNet`]
/// derefs to the [`SimNet`] it lays out), logging every delivery;
/// `block` is the id block size of `Reembed`'s delay function.
/// Node ids wrap into range, and `TimerAt` times in the past of the
/// advancing clock are clamped to `now`, so one generator serves every
/// population size.
fn run_script(net: &mut SimNet<u32>, block: usize, script: &[Op]) -> (Vec<Event>, NetStats) {
    let n = net.len();
    let mut log = Vec::new();
    let pop = |net: &mut SimNet<u32>, log: &mut Vec<Event>| {
        let popped = net.next_delivery();
        log.extend(
            popped
                .iter()
                .map(|(t, d)| (t.to_bits(), d.from, d.to, d.msg)),
        );
        popped.is_some()
    };
    for (i, step) in script.iter().enumerate() {
        let msg = i as u32;
        match *step {
            Op::Send { from, to } => net.send(from % n, to % n, msg),
            Op::Timer { node, delay_ms } => {
                net.set_timer(node % n, f64::from(delay_ms) / 1000.0, msg)
            }
            Op::TimerAt { node, at_ms } => {
                let at = (f64::from(at_ms) / 1000.0).max(net.now());
                net.set_timer_at(node % n, at, msg);
            }
            Op::Roundtrip { from, to } => {
                net.roundtrip(from % n, to % n, msg);
            }
            Op::Pop(count) => {
                for _ in 0..count {
                    if !pop(net, &mut log) {
                        break;
                    }
                }
            }
            Op::Partition(ref classes) => net.set_partition_classes(&classes[..n]),
            Op::Straggler { node, quarters } => {
                net.set_delay_factor(node % n, f64::from(quarters) / 4.0)
            }
            Op::Heal => net.clear_partition(),
            Op::Reembed(quarters) => {
                let intra = DELAY_S * f64::from(quarters) / 4.0;
                net.set_delay_fn(move |i, j| {
                    if i / block == j / block {
                        intra
                    } else {
                        DELAY_S
                    }
                });
            }
        }
    }
    while pop(net, &mut log) {}
    (log, net.stats())
}

fn quiet() -> NetConfig {
    NetConfig {
        loss_probability: 0.0,
        delay_jitter_sigma: 0.0,
        default_one_way_delay_s: DELAY_S,
        ..NetConfig::default()
    }
}

/// The dense reference for a comparison with `islands` islands.
fn run_single(n: usize, islands: usize, script: &[Op]) -> (Vec<Event>, NetStats) {
    let island = n.div_ceil(islands);
    run_script(&mut SimNet::uniform(n, DELAY_S, quiet()), island, script)
}

fn run_sharded(n: usize, islands: usize, script: &[Op]) -> (Vec<Event>, NetStats) {
    run_script(
        &mut ShardedSimNet::uniform(n, islands, DELAY_S, quiet()),
        n,
        script,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: for every script, every island count
    /// divides into the same bit-exact delivery stream — times, FIFO
    /// tie order, endpoints and payloads — and the same counters.
    #[test]
    fn merged_event_order_equals_single_queue_order(
        n in 2usize..MAX_N,
        script in proptest::collection::vec(op(), 1..120),
    ) {
        for islands in [1, 2, n.div_ceil(2), n] {
            let want = run_single(n, islands, &script);
            let got = run_sharded(n, islands, &script);
            prop_assert_eq!(
                &got,
                &want,
                "{} islands diverged from the single queue (n={})",
                islands,
                n
            );
        }
    }
}

/// Deterministic smoke for the same property at a fixed, larger scale:
/// an n-way time tie, then traffic under a three-way partition with
/// two stragglers, healed half way, where the delays are re-embedded.
#[test]
fn sharded_equals_single_on_dense_tie_heavy_script() {
    let n = 24;
    let mut script = Vec::new();
    for i in 0..n {
        script.push(Op::TimerAt {
            node: i,
            at_ms: 1000,
        }); // n-way time tie across every island
    }
    script.push(Op::Partition((0..n as u32).map(|i| i % 3).collect()));
    script.push(Op::Straggler {
        node: 5,
        quarters: 10,
    });
    script.push(Op::Straggler {
        node: 16,
        quarters: 1,
    });
    for i in 0..n {
        if i == n / 2 {
            script.push(Op::Heal);
            script.push(Op::Reembed(6));
        }
        script.push(Op::Send {
            from: i,
            to: (i * 7 + 1) % n,
        });
        if i % 3 == 0 {
            script.push(Op::Pop(2));
        }
        script.push(Op::Roundtrip {
            from: (i * 5) % n,
            to: (i * 11 + 3) % n,
        });
    }
    for islands in [2, 3, 8, 24] {
        let want = run_single(n, islands, &script);
        assert_eq!(run_sharded(n, islands, &script), want, "{islands} islands");
        let (log, stats) = want;
        assert!(log.len() >= 2 * n, "script actually delivered traffic");
        assert!(stats.dropped > 0, "the partition actually cut traffic");
    }
}
