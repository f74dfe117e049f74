//! Differential property tests for the layer-sharded kernel pass
//! ([`CompiledCircuit::evaluate_rows_sharded`]): split across 1–4 threads,
//! every lane must match the scalar evaluator bit for bit — outputs,
//! firing counts and the full `evaluation_into` expansion — per gate class
//! (the `i128` wide-gate fallback included), at every lane width, on
//! ragged lane counts, and on both the detected SIMD arm and the forced
//! portable one.
//!
//! The tests are named `kernel_sharded_*` so the Miri CI job's `kernel`
//! filter runs them over the pass's raw-pointer, cross-thread slot writes.
//! Every test forces sharding of every multi-gate layer
//! (`min_layer_plane_ops: 0`), so more threads than a layer has gates
//! (empty chunks) comes up routinely.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use tc_circuit::{
    simd, Circuit, CircuitBuilder, CompiledCircuit, Evaluation, PlaneArena, ShardOptions, Wire,
};

/// Fewer cases under Miri, which interprets every plane operation.
fn cases() -> u32 {
    if cfg!(miri) {
        2
    } else {
        32
    }
}

/// Serialises every test touching the global force-portable switch.
fn simd_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    // A panicking sibling test must not wedge the rest of the suite.
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Restores the default dispatch when dropped, assertion failures included.
struct PortableGuard;
impl Drop for PortableGuard {
    fn drop(&mut self) {
        simd::force_portable(false);
    }
}

/// One gate: fan-in as (wire ordinal, weight selector), plus a threshold.
type GateSpec = (Vec<(usize, i64)>, i64);

/// Builds a circuit whose layer `k` is exactly `layers[k]`: each gate's
/// first edge comes from the previous layer (fixing its depth), the rest
/// from any earlier wire. Every weight selector goes through `weight_of`.
fn build_layered(
    num_inputs: usize,
    layers: &[Vec<GateSpec>],
    weight_of: impl Fn(i64) -> i64,
) -> Circuit {
    let mut b = CircuitBuilder::new(num_inputs);
    let mut earlier: Vec<Wire> = std::iter::once(Wire::One)
        .chain((0..num_inputs).map(Wire::input))
        .collect();
    let mut prev: Vec<Wire> = (0..num_inputs).map(Wire::input).collect();
    for layer in layers {
        let mut next = Vec::new();
        for (fan_in, threshold) in layer {
            let mut resolved: Vec<(Wire, i64)> = Vec::new();
            for (k, &(ordinal, selector)) in fan_in.iter().enumerate() {
                let wire = if k == 0 {
                    prev[ordinal % prev.len()]
                } else {
                    earlier[ordinal % earlier.len()]
                };
                if resolved.iter().all(|&(w, _)| w != wire) {
                    resolved.push((wire, weight_of(selector)));
                }
            }
            next.push(b.add_gate(resolved, *threshold).unwrap());
        }
        earlier.extend_from_slice(&next);
        prev = next;
    }
    b.mark_outputs(prev);
    b.build()
}

fn layered_spec() -> impl Strategy<Value = (usize, Vec<Vec<GateSpec>>)> {
    (
        1usize..6,
        prop::collection::vec(
            prop::collection::vec(
                (
                    prop::collection::vec((0usize..64, -40i64..41), 1..6),
                    -9i64..10,
                ),
                1..12,
            ),
            1..5,
        ),
    )
}

fn random_rows(num_inputs: usize, rows: usize, mut state: u64) -> Vec<Vec<bool>> {
    state |= 1;
    (0..rows)
        .map(|_| {
            (0..num_inputs)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 1 == 1
                })
                .collect()
        })
        .collect()
}

/// Weight mapper per class: 0 Unit, 1 Pow2, 2 General, 3 General with
/// near-`i64::MAX` weights that exceed the plane budget (the wide-gate
/// fallback), anything else a mix of all four.
fn weight_of(class: usize, s: i64) -> i64 {
    let sign = if s < 0 { -1 } else { 1 };
    let m = s.unsigned_abs() as i64;
    match class {
        0 => sign,
        1 => sign * (1 << (m % 16)),
        2 => sign * (3 + (m % 37) * 2),
        3 if m % 2 == 0 => sign * (i64::MAX - 2 * (m % 7)),
        3 => sign * (3 + (m % 37) * 2),
        _ => weight_of(s.rem_euclid(4) as usize, s / 4),
    }
}

/// The sharded pass at width `W` on `threads` threads against the scalar
/// evaluator, lane by lane.
fn check_width<const W: usize>(
    cc: &CompiledCircuit,
    rows: &[Vec<bool>],
    threads: usize,
) -> Result<(), String> {
    let refs: Vec<&[bool]> = rows.iter().map(Vec::as_slice).collect();
    let mut arena = PlaneArena::new();
    let opts = ShardOptions {
        threads,
        min_layer_plane_ops: 0,
    };
    let ev = cc
        .evaluate_rows_sharded::<W>(&refs, &mut arena, opts)
        .map_err(|e| e.to_string())?;
    prop_assert_eq!(ev.lanes(), rows.len());
    prop_assert_eq!(ev.firing_counts().len(), rows.len());
    let mut shell = Evaluation::default();
    for (lane, row) in rows.iter().enumerate() {
        let scalar = cc.evaluate(row).map_err(|e| e.to_string())?;
        prop_assert_eq!(
            ev.outputs(lane).unwrap().as_slice(),
            scalar.outputs(),
            "outputs, lane {} of {} at W={}, {} threads",
            lane,
            rows.len(),
            W,
            threads
        );
        prop_assert_eq!(
            ev.firing_count(lane).unwrap() as usize,
            scalar.firing_count(),
            "firing count, lane {} at W={}, {} threads",
            lane,
            W,
            threads
        );
        ev.evaluation_into(lane, &mut shell).unwrap();
        prop_assert_eq!(&shell, &scalar, "evaluation, lane {}", lane);
    }
    Ok(())
}

/// Runs [`check_width`] at width `64·words`-lanes with `lanes` rows on the
/// detected SIMD arm and on the forced portable arm.
fn check_both_arms(
    circuit: &Circuit,
    words: usize,
    lanes: usize,
    threads: usize,
    seed: u64,
) -> Result<(), String> {
    let cc = circuit.compile().unwrap();
    let rows = random_rows(cc.num_inputs(), lanes % (64 * words + 1), seed);
    let _serial = simd_lock();
    let _guard = PortableGuard;
    for portable in [false, true] {
        simd::force_portable(portable);
        match words {
            1 => check_width::<1>(&cc, &rows, threads)?,
            2 => check_width::<2>(&cc, &rows, threads)?,
            4 => check_width::<4>(&cc, &rows, threads)?,
            _ => check_width::<8>(&cc, &rows, threads)?,
        }
    }
    Ok(())
}

fn words_of(selector: usize) -> usize {
    [1, 2, 4, 8][selector % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Unit-class circuits: raw-edge loops split across shards.
    #[test]
    fn kernel_sharded_unit_matches_scalar((num_inputs, layers) in layered_spec(),
                                          words in 0usize..4,
                                          lanes in 0usize..513,
                                          threads in 1usize..5,
                                          seed in any::<u64>()) {
        let circuit = build_layered(num_inputs, &layers, |s| weight_of(0, s));
        check_both_arms(&circuit, words_of(words), lanes, threads, seed)?;
    }

    /// Pow2-class circuits: shift-indexed bit-edges split across shards.
    #[test]
    fn kernel_sharded_pow2_matches_scalar((num_inputs, layers) in layered_spec(),
                                          words in 0usize..4,
                                          lanes in 0usize..513,
                                          threads in 1usize..5,
                                          seed in any::<u64>()) {
        let circuit = build_layered(num_inputs, &layers, |s| weight_of(1, s));
        check_both_arms(&circuit, words_of(words), lanes, threads, seed)?;
    }

    /// General-class circuits: multi-digit bit-edges split across shards.
    #[test]
    fn kernel_sharded_general_matches_scalar((num_inputs, layers) in layered_spec(),
                                             words in 0usize..4,
                                             lanes in 0usize..513,
                                             threads in 1usize..5,
                                             seed in any::<u64>()) {
        let circuit = build_layered(num_inputs, &layers, |s| weight_of(2, s));
        check_both_arms(&circuit, words_of(words), lanes, threads, seed)?;
    }

    /// Near-`i64::MAX` weights: the per-lane `i128` wide-gate fallback
    /// runs inside shards.
    #[test]
    fn kernel_sharded_wide_gates_match_scalar((num_inputs, layers) in layered_spec(),
                                              words in 0usize..4,
                                              lanes in 0usize..513,
                                              threads in 1usize..5,
                                              seed in any::<u64>()) {
        let circuit = build_layered(num_inputs, &layers, |s| weight_of(3, s));
        check_both_arms(&circuit, words_of(words), lanes, threads, seed)?;
    }

    /// All classes mixed inside each layer: chunks clipped against several
    /// class segments.
    #[test]
    fn kernel_sharded_mixed_matches_scalar((num_inputs, layers) in layered_spec(),
                                           words in 0usize..4,
                                           lanes in 0usize..513,
                                           threads in 1usize..5,
                                           seed in any::<u64>()) {
        let circuit = build_layered(num_inputs, &layers, |s| weight_of(4, s));
        check_both_arms(&circuit, words_of(words), lanes, threads, seed)?;
    }
}

/// Two-gate layers on four threads: half the chunks of every layer are
/// empty, and the extreme weights keep both gates on the wide fallback.
#[test]
fn kernel_sharded_more_threads_than_gates() {
    let mut b = CircuitBuilder::new(2);
    let (x, y) = (Wire::input(0), Wire::input(1));
    let g = b.add_gate([(x, i64::MAX), (y, i64::MAX - 2)], 1).unwrap();
    let h = b.add_gate([(x, 1), (y, 1)], 2).unwrap();
    let p = b.add_gate([(g, i64::MIN), (h, 1)], 0).unwrap();
    let q = b.add_gate([(g, 1), (h, -1), (x, 1)], 1).unwrap();
    b.mark_outputs([p, q]);
    let circuit = b.build();
    let cc = circuit.compile().unwrap();
    let opts = ShardOptions {
        threads: 4,
        min_layer_plane_ops: 0,
    };
    assert!((0..cc.depth() as usize).all(|d| cc.shards_layer(d, opts)));
    for lanes in [0, 1, 4, 63, 64, 65, 256] {
        check_both_arms(&circuit, 4, lanes, 4, lanes as u64).unwrap();
    }
}

/// Per-layer plane-ops partition the class totals, and the default
/// threshold keeps small layers on the calling thread.
#[test]
fn kernel_sharded_layer_plane_ops_partition_the_pass() {
    let circuit = build_layered(
        4,
        &[
            vec![(vec![(0, 1), (1, 2), (2, 3)], 1); 6],
            vec![(vec![(0, 5), (3, -7)], 0); 3],
        ],
        |s| weight_of(4, s),
    );
    let cc = circuit.compile().unwrap();
    let per_layer: u64 = (0..cc.depth() as usize)
        .map(|d| cc.layer_plane_ops(d))
        .sum();
    assert_eq!(per_layer, cc.class_plane_ops().iter().sum::<u64>());
    for d in 0..cc.depth() as usize {
        assert!(!cc.shards_layer(d, ShardOptions::new(4)), "layer {d}");
        assert!(!cc.shards_layer(
            d,
            ShardOptions {
                threads: 1,
                min_layer_plane_ops: 0
            }
        ));
    }
}
