//! Differential property tests for the compiled CSR engine: the scalar,
//! layer-parallel, and bit-sliced arena evaluators at 64/128/256/512 lanes
//! must agree gate-for-gate — values, outputs, and firing counts — on
//! randomly generated layered circuits, including negative weights,
//! `Wire::One`, ragged-tail lane counts, and empty batches.

use proptest::prelude::*;
use tc_circuit::{CircuitBuilder, CompiledCircuit, EvalOptions, PlaneArena, Wire};

/// A generated circuit description: `(num_inputs, gates)` with each gate
/// given as `(fan-in (wire ordinal, weight) pairs, threshold)`.
type CircuitSpec = (usize, Vec<(Vec<(usize, i64)>, i64)>);

/// Strategy producing a random layered circuit spec: `(num_inputs, gates)`
/// where each gate is `(fan-in as (wire_ordinal, weight), threshold)`.  A
/// wire ordinal `o` resolves to: the constant-one wire when `o == 0`, input
/// `o - 1` when `o <= num_inputs`, otherwise an earlier gate (modulo the
/// gates available so far, preserving topological order).
fn circuit_spec() -> impl Strategy<Value = CircuitSpec> {
    (
        1usize..7,
        prop::collection::vec(
            (
                prop::collection::vec((0usize..96, -10i64..11), 1..7),
                -8i64..9,
            ),
            1..48,
        ),
    )
}

fn build_circuit(num_inputs: usize, spec: &[(Vec<(usize, i64)>, i64)]) -> tc_circuit::Circuit {
    let mut b = CircuitBuilder::new(num_inputs);
    for (gate_idx, (fan_in, threshold)) in spec.iter().enumerate() {
        let mut resolved = Vec::new();
        let mut used = std::collections::HashSet::new();
        for &(ordinal, weight) in fan_in {
            let pool = 1 + num_inputs + gate_idx;
            let o = ordinal % pool;
            let wire = if o == 0 {
                Wire::One
            } else if o <= num_inputs {
                Wire::input(o - 1)
            } else {
                Wire::gate(o - 1 - num_inputs)
            };
            if used.insert(wire) {
                resolved.push((wire, weight));
            }
        }
        if resolved.is_empty() {
            resolved.push((Wire::One, 1));
        }
        let w = b.add_gate(resolved, *threshold).unwrap();
        b.mark_output(w);
    }
    // Also exercise non-gate outputs.
    b.mark_output(Wire::One);
    if num_inputs > 0 {
        b.mark_output(Wire::input(num_inputs - 1));
    }
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

/// Asserts the width-`W` arena pass is bit-identical to the scalar
/// evaluator — gate values, outputs, and firing counts — on `rows`, which
/// may be empty or any ragged lane count up to `64·W`.
fn assert_arena_agrees<const W: usize>(
    compiled: &CompiledCircuit,
    rows: &[Vec<bool>],
) -> Result<(), String> {
    let refs: Vec<&[bool]> = rows.iter().map(Vec::as_slice).collect();
    let mut arena = PlaneArena::new();
    let wev = compiled
        .evaluate_rows_arena::<W>(&refs, &mut arena)
        .unwrap();
    prop_assert_eq!(wev.lanes(), rows.len());
    prop_assert!(
        wev.output(rows.len(), 0).is_err(),
        "dead lanes must be unreachable"
    );
    for (lane, row) in rows.iter().enumerate() {
        let scalar = compiled.evaluate(row).unwrap();
        prop_assert_eq!(
            &scalar,
            &wev.evaluation(lane).unwrap(),
            "{}-lane gate values or outputs disagree on lane {}",
            64 * W,
            lane
        );
        prop_assert_eq!(
            scalar.firing_count(),
            wev.firing_count(lane).unwrap() as usize,
            "{}-lane firing count disagrees on lane {}",
            64 * W,
            lane
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The scalar, layer-parallel and 64-lane arena evaluators agree on
    /// gate values, outputs, and firing counts for every lane of a batch.
    #[test]
    fn scalar_parallel_batch64_agree((num_inputs, spec) in circuit_spec(),
                                     seed in any::<u64>(),
                                     width in 1usize..65) {
        let circuit = build_circuit(num_inputs, &spec);
        let compiled = circuit.compile().unwrap();
        let rows = random_rows(num_inputs, width, seed);
        for (lane, row) in rows.iter().enumerate() {
            let parallel = compiled
                .evaluate_parallel(row, EvalOptions { parallel_threshold: 1 })
                .unwrap();
            prop_assert_eq!(compiled.evaluate(row).unwrap(), parallel, "parallel disagrees on lane {}", lane);
        }
        assert_arena_agrees::<1>(&compiled, &rows)?;
    }

    /// The 128/256/512-lane arena passes agree gate-for-gate with scalar,
    /// including ragged-tail lane counts and the empty batch (`width == 0`).
    #[test]
    fn wide_lanes_agree_with_scalar((num_inputs, spec) in circuit_spec(),
                                    seed in any::<u64>(),
                                    width in 0usize..513) {
        let circuit = build_circuit(num_inputs, &spec);
        let compiled = circuit.compile().unwrap();
        let rows = random_rows(num_inputs, width, seed);
        if width <= 128 {
            assert_arena_agrees::<2>(&compiled, &rows)?;
        }
        if width <= 256 {
            assert_arena_agrees::<4>(&compiled, &rows)?;
        }
        assert_arena_agrees::<8>(&compiled, &rows)?;
    }

    /// The padded-tail `evaluate_many` path matches per-request scalar
    /// evaluation for any batch size, including empty.
    #[test]
    fn evaluate_many_handles_any_batch_size((num_inputs, spec) in circuit_spec(),
                                            seed in any::<u64>(),
                                            requests in 0usize..200) {
        let circuit = build_circuit(num_inputs, &spec);
        let compiled = circuit.compile().unwrap();
        let rows = random_rows(num_inputs, requests, seed);
        let many = compiled.evaluate_many(&rows).unwrap();
        prop_assert_eq!(many.len(), requests);
        prop_assert_eq!(many.is_empty(), requests == 0);
        prop_assert!(many.outputs(requests).is_err(), "out-of-range request must error");
        for (i, row) in rows.iter().enumerate() {
            let scalar = compiled.evaluate(row).unwrap();
            prop_assert_eq!(
                scalar.outputs(),
                many.outputs(i).unwrap().as_slice(),
                "outputs disagree on request {}", i
            );
            prop_assert_eq!(
                scalar.firing_count(),
                many.firing_count(i).unwrap() as usize,
                "request {}", i
            );
        }
    }

    /// The compiled scalar evaluator is bit-identical to the legacy
    /// `Circuit::evaluate` entry point (which itself now lowers to CSR).
    #[test]
    fn compiled_matches_circuit_evaluate((num_inputs, spec) in circuit_spec(),
                                         seed in any::<u64>()) {
        let circuit = build_circuit(num_inputs, &spec);
        let compiled = circuit.compile().unwrap();
        for row in random_rows(num_inputs, 8, seed) {
            let a = circuit.evaluate(&row).unwrap();
            let b = compiled.evaluate(&row).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// Compiled statistics match the circuit-derived aggregate measures.
    #[test]
    fn compiled_stats_are_consistent((num_inputs, spec) in circuit_spec()) {
        let circuit = build_circuit(num_inputs, &spec);
        let compiled = circuit.compile().unwrap();
        let stats = compiled.stats();
        prop_assert_eq!(stats.size, circuit.num_gates());
        prop_assert_eq!(stats.depth, circuit.depth());
        prop_assert_eq!(stats.edges, circuit.num_edges());
        prop_assert_eq!(stats.max_fan_in, circuit.max_fan_in());
        prop_assert_eq!(stats.layers.iter().map(|l| l.gates).sum::<usize>(), stats.size);
        prop_assert_eq!(stats.layers.iter().map(|l| l.edges).sum::<usize>(), stats.edges);
        let layer_sum: usize = (0..compiled.depth() as usize)
            .map(|d| compiled.layer(d).len())
            .sum();
        prop_assert_eq!(layer_sum, compiled.num_gates());
    }
}

/// Zero-width rows: a circuit with no inputs (gates fed only by the
/// constant-one wire) must be servable through every batch entry point —
/// the arena packing path explicitly early-accepts empty rows instead of
/// relying on a vacuous packing loop — and a *non*-empty row against a
/// zero-input circuit must be rejected with the typed length mismatch, not
/// silently accepted.
#[test]
fn zero_input_circuits_accept_zero_width_rows_everywhere() {
    use tc_circuit::CircuitError;

    let mut b = CircuitBuilder::new(0);
    let g = b.add_gate([(Wire::one(), 1)], 1).unwrap();
    let h = b.add_gate([(Wire::one(), 1), (g, -1)], 1).unwrap();
    b.mark_output(g);
    b.mark_output(h);
    let compiled = b.build().compile().unwrap();

    let scalar = compiled.evaluate(&[]).unwrap();
    assert_eq!(scalar.outputs(), &[true, false]);

    // The arena path, at several widths and lane counts (incl. > 64).
    let mut arena = PlaneArena::new();
    for lanes in [1usize, 3, 64, 100] {
        let rows: Vec<&[bool]> = vec![&[]; lanes];
        let ev = compiled
            .evaluate_rows_arena::<2>(&rows, &mut arena)
            .unwrap();
        for lane in 0..lanes {
            assert_eq!(ev.outputs(lane).unwrap(), scalar.outputs());
            assert_eq!(
                ev.firing_count(lane).unwrap() as usize,
                scalar.firing_count()
            );
        }
    }

    // The padded-tail evaluate_many path.
    let rows: Vec<Vec<bool>> = vec![Vec::new(); 130];
    let many = compiled.evaluate_many(&rows).unwrap();
    assert_eq!(many.len(), 130);
    assert_eq!(many.outputs(129).unwrap(), scalar.outputs());

    // A non-empty row against a zero-input circuit is a typed error, not a
    // silent accept: the early-accept branch must keep the length check.
    let bad: Vec<&[bool]> = vec![&[], &[true]];
    assert!(matches!(
        compiled.evaluate_rows_arena::<1>(&bad, &mut arena),
        Err(CircuitError::InputLengthMismatch {
            expected: 0,
            actual: 1
        })
    ));
}
