//! Differential property tests for threshold-family sum reuse: layers built
//! from runs of gates with identical fan-in and distinct thresholds (the
//! shape of Lemma 3.1's bit extraction), evaluated by the bit-sliced pass
//! and compared lane by lane against the scalar evaluator — outputs, firing
//! counts and the full `evaluation_into` expansion.
//!
//! Thresholds run both ascending and descending inside a run, so a reusing
//! gate's plane budget both grows past and falls below its run's; `Unit`,
//! `Pow2` and `General` runs are covered, with wide-path neighbours that
//! must break a run. Every pass runs on 1–4 threads with every multi-gate
//! layer sharded (`min_layer_plane_ops: 0`), so chunk cuts land inside
//! runs, at every lane width and on both SIMD arms.
//!
//! The tests are named `kernel_sum_reuse_*` so the Miri CI job's `kernel`
//! filter runs them.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use tc_circuit::{
    simd, verify_compiled, Circuit, CircuitBuilder, CompiledCircuit, Evaluation, PlaneArena,
    ShardOptions, Wire,
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

/// One run: fan-in as (wire ordinal, weight selector), its length, the
/// thresholds' base, step and growth, whether they descend, and whether a
/// wide-path gate sits in the middle of the run.
#[derive(Debug, Clone)]
struct RunSpec {
    fan_in: Vec<(usize, i64)>,
    len: usize,
    base: i64,
    step: i64,
    growth: u32,
    descending: bool,
    wide_neighbour: bool,
}

impl RunSpec {
    /// Distinct thresholds, monotone in the run order: `base + step·i`
    /// scaled by `2^(growth·i)`, so a growing run also grows its plane
    /// budget gate by gate.
    fn thresholds(&self) -> Vec<i64> {
        let mut ts: Vec<i64> = (0..self.len as i64)
            .map(|i| self.base + self.step * i * (1i64 << (self.growth as i64 * i)))
            .collect();
        if self.descending {
            ts.reverse();
        }
        ts
    }
}

fn run_spec() -> impl Strategy<Value = RunSpec> {
    (
        prop::collection::vec((0usize..64, -40i64..41), 1..6),
        1usize..8,
        (-9i64..10, 1i64..4, 0u32..5),
        any::<bool>(),
        0u32..4,
    )
        .prop_map(
            |(fan_in, len, (base, step, growth), descending, wide)| RunSpec {
                fan_in,
                len,
                base,
                step,
                growth,
                descending,
                wide_neighbour: wide == 0,
            },
        )
}

/// Up to four layers of up to four runs each.
fn layered_runs() -> impl Strategy<Value = (usize, Vec<Vec<RunSpec>>)> {
    (
        1usize..6,
        prop::collection::vec(prop::collection::vec(run_spec(), 1..5), 1..5),
    )
}

/// Weight mapper per class: 0 Unit, 1 Pow2, 2 General, anything else a mix
/// of the three (per edge, so one run still shares one class).
fn weight_of(class: usize, s: i64) -> i64 {
    let sign = if s < 0 { -1 } else { 1 };
    let m = s.unsigned_abs() as i64;
    match class {
        0 => sign,
        1 => sign * (1 << (m % 16)),
        2 => sign * (3 + (m % 37) * 2),
        _ => weight_of(s.rem_euclid(3) as usize, s / 3),
    }
}

/// Builds a circuit whose layer `k` holds the runs `layers[k]`, each run
/// as `len` gates over one fan-in: the first edge comes from the previous
/// layer (fixing the depth), the rest from any earlier wire. A run with a
/// wide neighbour gets a gate of near-`i64::MAX` weights over the same
/// wires in its middle.
fn build_runs(num_inputs: usize, layers: &[Vec<RunSpec>], class: usize) -> Circuit {
    let mut b = CircuitBuilder::new(num_inputs);
    let mut earlier: Vec<Wire> = std::iter::once(Wire::One)
        .chain((0..num_inputs).map(Wire::input))
        .collect();
    let mut prev: Vec<Wire> = (0..num_inputs).map(Wire::input).collect();
    for layer in layers {
        let mut next = Vec::new();
        for run in layer {
            let mut edges: Vec<(Wire, i64)> = Vec::new();
            for (k, &(ordinal, selector)) in run.fan_in.iter().enumerate() {
                let wire = if k == 0 {
                    prev[ordinal % prev.len()]
                } else {
                    earlier[ordinal % earlier.len()]
                };
                if edges.iter().all(|&(w, _)| w != wire) {
                    edges.push((wire, weight_of(class, selector)));
                }
            }
            let thresholds = run.thresholds();
            for (i, &t) in thresholds.iter().enumerate() {
                if run.wide_neighbour && i == thresholds.len() / 2 {
                    let wide: Vec<(Wire, i64)> = edges
                        .iter()
                        .enumerate()
                        .map(|(k, &(w, _))| (w, i64::MAX - 2 * k as i64))
                        .collect();
                    next.push(b.add_gate(wide, t).unwrap());
                }
                next.push(b.add_gate(edges.clone(), t).unwrap());
            }
        }
        earlier.extend_from_slice(&next);
        prev = next;
    }
    b.mark_outputs(prev);
    b.build()
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

/// The pass at width `W` on `threads` threads, every multi-gate layer
/// sharded, against the scalar evaluator, lane by lane.
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

/// Runs [`check_width`] at `64·words` lanes with `lanes` rows on the
/// detected SIMD arm and on the forced portable arm.
fn check_both_arms(
    cc: &CompiledCircuit,
    words: usize,
    lanes: usize,
    threads: usize,
    seed: u64,
) -> Result<(), String> {
    let rows = random_rows(cc.num_inputs(), lanes % (64 * words + 1), seed);
    let _serial = simd_lock();
    let _guard = PortableGuard;
    for portable in [false, true] {
        simd::force_portable(portable);
        match words {
            1 => check_width::<1>(cc, &rows, threads)?,
            2 => check_width::<2>(cc, &rows, threads)?,
            4 => check_width::<4>(cc, &rows, threads)?,
            _ => check_width::<8>(cc, &rows, threads)?,
        }
    }
    Ok(())
}

fn words_of(selector: usize) -> usize {
    [1, 2, 4, 8][selector % 4]
}

/// Compiles `circuit`, checks that the verifier accepts its reuse marks and
/// that at least `len - 1` repeats of every single-class run without a
/// wide neighbour were marked, then runs the differential check.
fn check_runs(
    layers: &[Vec<RunSpec>],
    circuit: &Circuit,
    words: usize,
    lanes: usize,
    threads: usize,
    seed: u64,
) -> Result<(), String> {
    let cc = circuit.compile().unwrap();
    let report = verify_compiled(&cc);
    prop_assert!(report.is_valid(), "{}", report);
    let plain_repeats: usize = layers
        .iter()
        .flatten()
        .filter(|run| !run.wide_neighbour)
        .map(|run| run.len - 1)
        .sum();
    prop_assert!(
        cc.reused_sum_gates() >= plain_repeats,
        "{} reuse marks, {} plain repeats",
        cc.reused_sum_gates(),
        plain_repeats
    );
    check_both_arms(&cc, words, lanes, threads, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Unit runs: ±1 fan-ins repeated with ascending or descending
    /// thresholds.
    #[test]
    fn kernel_sum_reuse_unit_runs_match_scalar((num_inputs, layers) in layered_runs(),
                                               words in 0usize..4,
                                               lanes in 0usize..513,
                                               threads in 1usize..5,
                                               seed in any::<u64>()) {
        let circuit = build_runs(num_inputs, &layers, 0);
        check_runs(&layers, &circuit, words_of(words), lanes, threads, seed)?;
    }

    /// Pow2 runs: one shift-indexed bit-edge per edge, sums up to 2^15 per
    /// edge, so older sums leave high planes set.
    #[test]
    fn kernel_sum_reuse_pow2_runs_match_scalar((num_inputs, layers) in layered_runs(),
                                               words in 0usize..4,
                                               lanes in 0usize..513,
                                               threads in 1usize..5,
                                               seed in any::<u64>()) {
        let circuit = build_runs(num_inputs, &layers, 1);
        check_runs(&layers, &circuit, words_of(words), lanes, threads, seed)?;
    }

    /// General runs: multi-digit bit-edges, with wide-path neighbours
    /// splitting some runs.
    #[test]
    fn kernel_sum_reuse_general_runs_match_scalar((num_inputs, layers) in layered_runs(),
                                                  words in 0usize..4,
                                                  lanes in 0usize..513,
                                                  threads in 1usize..5,
                                                  seed in any::<u64>()) {
        let circuit = build_runs(num_inputs, &layers, 2);
        check_runs(&layers, &circuit, words_of(words), lanes, threads, seed)?;
    }

    /// Runs of every class inside one layer: the `pos`/`neg` planes pass
    /// from one class segment to the next.
    #[test]
    fn kernel_sum_reuse_mixed_runs_match_scalar((num_inputs, layers) in layered_runs(),
                                                words in 0usize..4,
                                                lanes in 0usize..513,
                                                threads in 1usize..5,
                                                seed in any::<u64>()) {
        let circuit = build_runs(num_inputs, &layers, 3);
        check_runs(&layers, &circuit, words_of(words), lanes, threads, seed)?;
    }
}

/// Lane counts the deterministic tests cover: ragged, exact and (off Miri)
/// wide.
fn lane_counts() -> &'static [usize] {
    if cfg!(miri) {
        &[1, 65]
    } else {
        &[1, 63, 64, 65, 200, 512]
    }
}

/// A reusing gate whose budget exceeds its run's must zero the planes it
/// newly exposes. Layer 1 leaves plane 16 set (the Pow2 sum 2^16·x + y,
/// coprime so GCD factoring keeps it); layer 2's Unit run starts with a
/// 5-plane budget, then
/// compares its sum (at most 2) against 2^15 and 3·2^14 over 18 planes —
/// without the zeroing it would read layer 1's sum there and fire.
#[test]
fn kernel_sum_reuse_growing_budget_zeroes_exposed_planes() {
    let mut b = CircuitBuilder::new(3);
    let (x, y, z) = (Wire::input(0), Wire::input(1), Wire::input(2));
    let big = b.add_gate([(x, 1 << 16), (y, 1)], 1).unwrap();
    let mut gates = vec![big];
    for t in [1, 1 << 15, 2, 3 << 14, 0] {
        gates.push(b.add_gate([(big, 1), (z, 1)], t).unwrap());
    }
    b.mark_outputs(gates);
    let cc = b.build().compile().unwrap();
    assert_eq!(cc.reused_sum_gates(), 4);
    assert!(verify_compiled(&cc).is_valid());
    for &lanes in lane_counts() {
        check_both_arms(&cc, 1, lanes, 1, lanes as u64).unwrap();
        check_both_arms(&cc, 4, lanes, 1, lanes as u64).unwrap();
    }
}

/// A wide-path gate between two halves of a General run breaks it: the
/// gate after it adds the sum afresh, and its wide twin right after it
/// reuses nothing (the wide path keeps no planes).
#[test]
fn kernel_sum_reuse_wide_neighbour_breaks_run() {
    let mut b = CircuitBuilder::new(3);
    let (x, y, z) = (Wire::input(0), Wire::input(1), Wire::input(2));
    let edges = [(x, 3), (y, 5), (z, 7)];
    let wide = [(x, i64::MAX), (y, i64::MAX - 2)];
    let mut gates = Vec::new();
    for t in [0, 4, 9] {
        gates.push(b.add_gate(edges, t).unwrap());
    }
    gates.push(b.add_gate(wide, 1).unwrap());
    gates.push(b.add_gate(wide, 2).unwrap());
    for t in [12, 15] {
        gates.push(b.add_gate(edges, t).unwrap());
    }
    b.mark_outputs(gates);
    let cc = b.build().compile().unwrap();
    // Repeats 2 + 1; the wide twins and the gate after them add afresh.
    assert_eq!(cc.reused_sum_gates(), 3);
    assert!(verify_compiled(&cc).is_valid());
    for &lanes in lane_counts() {
        for threads in 1..=3 {
            check_both_arms(&cc, 2, lanes, threads, lanes as u64).unwrap();
        }
    }
}

/// One long run per class in one layer, on 1–4 threads: every chunk cut
/// lands inside a run, and the chunk after it adds the sum again.
#[test]
fn kernel_sum_reuse_chunk_cuts_inside_a_run() {
    let len: i64 = if cfg!(miri) { 12 } else { 40 };
    let mut b = CircuitBuilder::new(4);
    let ins: Vec<Wire> = (0..4).map(Wire::input).collect();
    let mut gates = Vec::new();
    let runs = [
        vec![(ins[0], 1), (ins[1], 1), (ins[2], -1), (ins[3], 1)],
        vec![(ins[0], 2), (ins[1], -4), (ins[3], 1)],
        vec![(ins[0], 3), (ins[2], 5), (ins[3], -7)],
    ];
    for edges in &runs {
        for i in 0..len {
            // Descending then ascending thresholds around the sums' range.
            let t = (i - len / 2).abs() - 4;
            gates.push(b.add_gate(edges.clone(), t).unwrap());
        }
    }
    b.mark_outputs(gates);
    let cc = b.build().compile().unwrap();
    // One run per class, `len - 1` repeats each.
    assert_eq!(cc.reused_sum_gates(), 3 * (len as usize - 1));
    assert!(verify_compiled(&cc).is_valid());
    // The pass performs each run's additions once.
    assert_eq!(cc.class_plane_ops()[0], 4);
    for threads in 1..=4 {
        for &lanes in lane_counts() {
            check_both_arms(&cc, 1, lanes, threads, lanes as u64).unwrap();
            check_both_arms(&cc, 8, lanes, threads, lanes as u64 + 1).unwrap();
        }
    }
}
