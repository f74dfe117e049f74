//! Differential property tests for the SIMD dispatch: whatever vector level
//! the host CPU offers, every kernel width must produce bit-identical
//! results — gate values, output lane masks, firing counts — to the
//! portable scalar word loop, per gate class and on ragged-tail batch
//! widths.
//!
//! The portable arm is selected through [`tc_circuit::simd::force_portable`],
//! a process-global switch, so the tests in this binary serialise on a mutex
//! and restore the default even when an assertion fails.

use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use tc_circuit::{simd, Circuit, CircuitBuilder, CompiledCircuit, Evaluation, PlaneArena, Wire};

/// Serialises every test touching the global force-portable switch.
fn simd_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
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

fn build_circuit(num_inputs: usize, spec: &[GateSpec], weight_of: impl Fn(i64) -> i64) -> Circuit {
    let mut b = CircuitBuilder::new(num_inputs);
    for (gate_idx, (fan_in, threshold)) in spec.iter().enumerate() {
        let mut resolved = Vec::new();
        let mut used = std::collections::HashSet::new();
        for &(ordinal, selector) in fan_in {
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
                resolved.push((wire, weight_of(selector)));
            }
        }
        if resolved.is_empty() {
            resolved.push((Wire::One, weight_of(1)));
        }
        let w = b.add_gate(resolved, *threshold).unwrap();
        b.mark_output(w);
    }
    b.build()
}

fn gate_spec() -> impl Strategy<Value = (usize, Vec<GateSpec>)> {
    (
        1usize..7,
        prop::collection::vec(
            (
                prop::collection::vec((0usize..96, -40i64..41), 1..7),
                -9i64..10,
            ),
            1..40,
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

/// Weight mapper per class forced by the proptests below.
fn weight_of(class: usize, s: i64) -> i64 {
    let sign = if s < 0 { -1 } else { 1 };
    match class {
        0 => sign,                                            // Unit
        1 => sign * (1 << (s.unsigned_abs() % 16)),           // Pow2
        2 => sign * (3 + (s.unsigned_abs() as i64 % 37) * 2), // General (odd)
        _ => match s.unsigned_abs() % 3 {
            0 => sign,
            1 => sign * (1 << (s.unsigned_abs() % 16)),
            _ => sign * (3 + (s.unsigned_abs() as i64 % 37) * 2),
        },
    }
}

/// Everything one arm computes for a batch: every gate's value per lane,
/// the output lane masks, and the per-lane firing counts.
#[derive(Default)]
struct Digest {
    gates: Vec<bool>,
    masks: Vec<u64>,
    firing: Vec<u32>,
}

/// Folds one width-`W` arena pass over the first `64·W` of `rows` into `d`.
fn fold_width<const W: usize>(compiled: &CompiledCircuit, rows: &[Vec<bool>], d: &mut Digest) {
    let refs: Vec<&[bool]> = rows.iter().take(64 * W).map(Vec::as_slice).collect();
    let mut arena = PlaneArena::new();
    let ev = compiled
        .evaluate_rows_arena::<W>(&refs, &mut arena)
        .unwrap();
    let mut lane_eval = Evaluation::default();
    for lane in 0..refs.len() {
        ev.evaluation_into(lane, &mut lane_eval).unwrap();
        d.gates.extend_from_slice(lane_eval.gate_values());
    }
    for i in 0..compiled.num_outputs() {
        for word in 0..refs.len().div_ceil(64) {
            d.masks.push(ev.output_lane_mask(i, word));
        }
    }
    d.firing.extend_from_slice(ev.firing_counts());
}

/// Evaluates `rows` through every kernel width on the CURRENT dispatch arm.
fn digest(circuit: &Circuit, rows: &[Vec<bool>]) -> Digest {
    let compiled = circuit.compile().unwrap();
    let mut d = Digest::default();
    fold_width::<1>(&compiled, rows, &mut d);
    fold_width::<2>(&compiled, rows, &mut d);
    fold_width::<4>(&compiled, rows, &mut d);
    fold_width::<8>(&compiled, rows, &mut d);
    d
}

/// Runs `digest` on the active (possibly vector) arm and on the forced
/// portable arm, and asserts bit-identical results.
fn assert_arms_agree(circuit: &Circuit, rows: &[Vec<bool>]) -> Result<(), String> {
    // A panicking sibling test must not wedge the rest of the suite.
    let _serial = match simd_lock().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    simd::force_portable(false);
    let vectored = digest(circuit, rows);
    let _guard = PortableGuard;
    simd::force_portable(true);
    let portable = digest(circuit, rows);
    let level = simd::detected_level().name();
    prop_assert_eq!(
        vectored.gates,
        portable.gates,
        "gate values diverge between {} and portable",
        level
    );
    prop_assert_eq!(
        vectored.masks,
        portable.masks,
        "output lane masks diverge between {} and portable",
        level
    );
    prop_assert_eq!(
        vectored.firing,
        portable.firing,
        "firing counts diverge between {} and portable",
        level
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Unit-class circuits: raw-edge popcount loops, both arms identical.
    #[test]
    fn unit_class_simd_matches_portable((num_inputs, spec) in gate_spec(),
                                        seed in any::<u64>(),
                                        width in 1usize..513) {
        let circuit = build_circuit(num_inputs, &spec, |s| weight_of(0, s));
        let rows = random_rows(num_inputs, width, seed);
        assert_arms_agree(&circuit, &rows)?;
    }

    /// Pow2-class circuits: shift-indexed plane additions.
    #[test]
    fn pow2_class_simd_matches_portable((num_inputs, spec) in gate_spec(),
                                        seed in any::<u64>(),
                                        width in 1usize..513) {
        let circuit = build_circuit(num_inputs, &spec, |s| weight_of(1, s));
        let rows = random_rows(num_inputs, width, seed);
        assert_arms_agree(&circuit, &rows)?;
    }

    /// General-class circuits: multi-digit bit-edge decompositions.
    #[test]
    fn general_class_simd_matches_portable((num_inputs, spec) in gate_spec(),
                                           seed in any::<u64>(),
                                           width in 1usize..513) {
        let circuit = build_circuit(num_inputs, &spec, |s| weight_of(2, s));
        let rows = random_rows(num_inputs, width, seed);
        assert_arms_agree(&circuit, &rows)?;
    }

    /// Mixed-class circuits on deliberately ragged batch widths (partial
    /// final lane groups for every kernel width).
    #[test]
    fn ragged_tails_simd_matches_portable((num_inputs, spec) in gate_spec(),
                                          seed in any::<u64>(),
                                          tail in 1usize..64,
                                          groups in 0usize..8) {
        let circuit = build_circuit(num_inputs, &spec, |s| weight_of(3, s));
        let rows = random_rows(num_inputs, groups * 64 + tail, seed);
        assert_arms_agree(&circuit, &rows)?;
    }
}

/// The wide (per-lane `i128`) fallback must agree across arms too.
#[test]
fn wide_gates_simd_matches_portable() {
    let mut b = CircuitBuilder::new(2);
    let g = b
        .add_gate(
            [(Wire::input(0), i64::MAX), (Wire::input(1), i64::MAX - 2)],
            1,
        )
        .unwrap();
    let h = b.add_gate([(Wire::input(0), i64::MIN), (g, 1)], 0).unwrap();
    b.mark_outputs([g, h]);
    let circuit = b.build();
    let rows = random_rows(2, 300, 0xDEADBEEF);
    assert_arms_agree(&circuit, &rows).unwrap();
}

/// On x86_64 hosts the harness actually exercises a vector arm (SSE2 is
/// baseline), so a dispatch regression cannot silently pass as portable ==
/// portable.
#[cfg(target_arch = "x86_64")]
#[test]
fn x86_64_detects_a_vector_level() {
    if std::env::var_os("TCMM_SIMD").is_some() {
        // The environment pinned a level (e.g. the portable-fallback CI
        // job); detection is deliberately overridden there.
        return;
    }
    assert_ne!(simd::detected_level(), simd::SimdLevel::Portable);
}
