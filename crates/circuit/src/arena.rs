//! The one front door to the bit-sliced kernel: reusable plane scratch and
//! allocation-free steady-state serving.
//!
//! Every batch pass needs a slot array (`[u64; W]` lane words per slot) and
//! per-lane firing counts. Allocating those per call costs megabytes of
//! page-zeroing on paper-scale circuits (~7 MB of slots for an 881k-gate
//! trace circuit, per group). A [`PlaneArena`] owns that storage across
//! calls: input rows are packed straight into it, the kernel runs in place,
//! and the returned [`ArenaEvaluation`] is a borrowed view — after the first
//! call per (circuit, width), [`CompiledCircuit::evaluate_rows_arena`]
//! performs **zero** heap allocations (pinned by the allocation-counting
//! test in `tc-runtime`).
//!
//! Every batch evaluation goes through here: the runtime backends, the
//! tuner's probes and [`CompiledCircuit::evaluate_many`] call
//! [`CompiledCircuit::evaluate_rows_arena`] (or its layer-sharded form
//! [`CompiledCircuit::evaluate_rows_sharded`], the only caller of the
//! kernel pass), and the view exposes everything a caller decodes: outputs,
//! per-gate values, output lane masks and per-lane firing counts.

use crate::compiled::CompiledCircuit;
use crate::eval::Evaluation;
use crate::kernel::{word_mask, ShardOptions};
use crate::{CircuitError, Result};

/// Reusable scratch storage for the width-generic batch kernel.
///
/// One arena serves any circuit and any lane width (`W ∈ {1, 2, 4, 8}`); it
/// grows to the largest (slots × width) it has seen and never shrinks.
/// Runtime workers own one arena each, so steady-state serving never touches
/// the allocator.
#[derive(Debug, Default)]
pub struct PlaneArena {
    /// Slot planes, `slots * W` words when in use. (Firing counters live on
    /// each kernel thread's stack.)
    words: Vec<u64>,
    /// Per-lane firing counts of the most recent evaluation.
    counts: Vec<u32>,
}

impl PlaneArena {
    /// A fresh arena holding no storage (grows on first use).
    pub fn new() -> Self {
        PlaneArena::default()
    }

    /// Grows the arena (zero-filled) to hold a pass of up to `lanes` lanes
    /// over `circuit`, so the first pass at that width or narrower does
    /// not pay the arena's first touch.
    pub fn reserve(&mut self, circuit: &CompiledCircuit, lanes: usize) {
        let needed = circuit.len_slots() * lanes.div_ceil(64);
        if self.words.len() < needed {
            self.words.resize(needed, 0);
        }
    }

    /// Bytes currently retained by the arena.
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
    }
}

/// Reinterprets a word slice as `[u64; W]` planes.
///
/// Sound because `[u64; W]` has `u64` alignment, size `8·W`, and no padding;
/// the length is checked to be an exact multiple of `W`.
fn as_planes_mut<const W: usize>(words: &mut [u64]) -> &mut [[u64; W]] {
    debug_assert_eq!(words.len() % W, 0);
    // SAFETY: see above — same allocation, same lifetime, exact fit.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut [u64; W], words.len() / W) }
}

impl CompiledCircuit {
    /// Packs `rows` into `arena` and evaluates them in one single-thread
    /// pass of the width-generic kernel — the zero-allocation serving entry
    /// point, and the one-shard case of
    /// [`CompiledCircuit::evaluate_rows_sharded`].
    ///
    /// Accepts up to `64·W` rows (any ragged count, including zero). Lane
    /// `l` of the returned view is bit-identical to `evaluate(&rows[l])` —
    /// outputs and firing counts. After the arena has grown to this
    /// circuit's size, repeated calls perform no heap allocation.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::BatchTooWide`] for more than `64·W` rows;
    /// * [`CircuitError::InputLengthMismatch`] if any row has the wrong
    ///   length.
    pub fn evaluate_rows_arena<'a, const W: usize>(
        &'a self,
        rows: &[&[bool]],
        arena: &'a mut PlaneArena,
    ) -> Result<ArenaEvaluation<'a>> {
        self.evaluate_rows_sharded::<W>(rows, arena, ShardOptions::SINGLE)
    }

    /// [`CompiledCircuit::evaluate_rows_arena`] with each large depth layer
    /// split across `opts.threads` threads (see [`ShardOptions`]).
    ///
    /// Rows are packed exactly as the single-thread pass packs them, and
    /// the result is bit-identical to it. Threads are scoped to the call:
    /// the calling thread evaluates one chunk of every sharded layer and
    /// every layer too small to shard. A pass that shards no layer spawns
    /// nothing and, once the arena is warm, allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`CompiledCircuit::evaluate_rows_arena`].
    // lint:hot-path-begin — the zero-allocation serving entry point; only
    // the warm-up `resize` below may touch the allocator, and only until
    // the arena reaches this circuit's high-water mark.
    pub fn evaluate_rows_sharded<'a, const W: usize>(
        &'a self,
        rows: &[&[bool]],
        arena: &'a mut PlaneArena,
        opts: ShardOptions,
    ) -> Result<ArenaEvaluation<'a>> {
        let lanes = rows.len();
        if lanes > 64 * W {
            return Err(CircuitError::BatchTooWide { rows: lanes });
        }
        let needed = self.len_slots() * W;
        if arena.words.len() < needed {
            arena.words.resize(needed, 0);
        }
        let val_words = &mut arena.words[..needed];
        let vals = as_planes_mut::<W>(val_words);

        // Only the constant-one + input region needs zeroing; every gate
        // slot is overwritten by the kernel.
        vals[..1 + self.num_inputs].fill([0u64; W]);
        vals[0] = [!0u64; W];
        if self.num_inputs == 0 {
            // Explicit early-accept for zero-width rows (a circuit with no
            // inputs, fed only by the constant-one wire). The general loop
            // below would handle this case too — vacuous packing, same
            // length check — but only implicitly; this branch states the
            // contract (empty rows accepted, non-empty rows rejected) so
            // it cannot be lost in a packing-loop refactor, and the
            // regression tests pin it.
            if let Some(row) = rows.iter().find(|r| !r.is_empty()) {
                return Err(CircuitError::InputLengthMismatch {
                    expected: 0,
                    actual: row.len(),
                });
            }
        } else {
            for (lane, row) in rows.iter().enumerate() {
                if row.len() != self.num_inputs {
                    return Err(CircuitError::InputLengthMismatch {
                        expected: self.num_inputs,
                        actual: row.len(),
                    });
                }
                let (word, bit) = (lane / 64, lane % 64);
                for (i, &value) in row.iter().enumerate() {
                    // lint:allow(narrowing-cast): a bool is exactly 0 or 1
                    vals[1 + i][word] |= (value as u64) << bit;
                }
            }
        }

        if lanes > 0 {
            self.run_pass::<W>(vals, lanes, opts, &mut arena.counts);
        } else {
            arena.counts.clear();
        }

        Ok(ArenaEvaluation {
            circuit: self,
            vals: val_words,
            words: W,
            lanes,
            counts: &arena.counts,
        })
    }
    // lint:hot-path-end
}

/// A borrowed view over an arena evaluation: designated outputs, firing
/// counts, and (for callers that decode interior wires) full per-gate
/// values, all bounds-checked against the batch's lane count.
#[derive(Debug)]
pub struct ArenaEvaluation<'a> {
    circuit: &'a CompiledCircuit,
    /// Slot-major lane words: slot `s` occupies `vals[s*words..(s+1)*words]`.
    vals: &'a [u64],
    words: usize,
    lanes: usize,
    counts: &'a [u32],
}

impl ArenaEvaluation<'_> {
    /// Number of valid lanes (the batch's row count).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    fn check_lane(&self, lane: usize) -> Result<()> {
        if lane >= self.lanes {
            return Err(CircuitError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            });
        }
        Ok(())
    }

    #[inline]
    fn slot_bit(&self, slot: usize, lane: usize) -> bool {
        (self.vals[slot * self.words + lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// The value of output `i` for assignment `lane`.
    pub fn output(&self, lane: usize, i: usize) -> Result<bool> {
        self.check_lane(lane)?;
        let slot = *self
            .circuit
            .outputs
            .get(i)
            .ok_or(CircuitError::OutputIndexOutOfRange {
                index: i,
                len: self.circuit.outputs.len(),
            })?;
        Ok(self.slot_bit(slot as usize, lane))
    }

    /// All designated output values for assignment `lane`.
    pub fn outputs(&self, lane: usize) -> Result<Vec<bool>> {
        let mut out = Vec::with_capacity(self.circuit.outputs.len());
        self.outputs_into(lane, &mut out)?;
        Ok(out)
    }

    /// Writes the designated output values for assignment `lane` into `out`
    /// (cleared first, capacity reused) — the allocation-free counterpart of
    /// [`ArenaEvaluation::outputs`] for pooled response buffers.
    pub fn outputs_into(&self, lane: usize, out: &mut Vec<bool>) -> Result<()> {
        self.check_lane(lane)?;
        out.clear();
        out.extend(
            self.circuit
                .outputs
                .iter()
                .map(|&s| self.slot_bit(s as usize, lane)),
        );
        Ok(())
    }

    /// Lane word `word` of designated output `i`, masked to valid lanes.
    #[inline]
    pub fn output_lane_mask(&self, i: usize, word: usize) -> u64 {
        let slot = self.circuit.outputs[i] as usize;
        self.vals[slot * self.words + word] & word_mask(self.lanes, word)
    }

    /// Number of gates that fired for assignment `lane` (the evaluation's
    /// *energy* in the Uchizawa–Douglas–Maass model).
    pub fn firing_count(&self, lane: usize) -> Result<u32> {
        self.check_lane(lane)?;
        Ok(self.counts[lane])
    }

    /// Per-lane firing counts, one entry per valid lane.
    #[inline]
    pub fn firing_counts(&self) -> &[u32] {
        self.counts
    }

    /// Expands one lane into a full [`Evaluation`] (original gate order),
    /// identical to what the scalar evaluator returns for that assignment.
    pub fn evaluation(&self, lane: usize) -> Result<Evaluation> {
        let mut ev = Evaluation::default();
        self.evaluation_into(lane, &mut ev)?;
        Ok(ev)
    }

    /// Expands one lane into `out`, a recycled [`Evaluation`] shell, reusing
    /// its buffers' capacity — the allocation-free counterpart of
    /// [`ArenaEvaluation::evaluation`] for pooled response payloads. The
    /// refilled shell is bit-identical to what the scalar evaluator returns
    /// for that assignment.
    pub fn evaluation_into(&self, lane: usize, out: &mut Evaluation) -> Result<()> {
        self.check_lane(lane)?;
        let (gate_values, outputs) = out.parts_mut();
        gate_values.clear();
        gate_values.extend(
            (0..self.circuit.num_gates())
                .map(|g| self.slot_bit(self.circuit.slot_of_gate(g), lane)),
        );
        self.outputs_into(lane, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::tests::mixed_circuit;
    use crate::compiled::WIDE_GATE;
    use crate::{CircuitBuilder, GateClass, Wire};

    /// Every assignment of `bits` inputs, in counting order.
    fn exhaustive_rows(bits: usize) -> Vec<Vec<bool>> {
        (0..1u32 << bits)
            .map(|v| (0..bits).map(|b| (v >> b) & 1 == 1).collect())
            .collect()
    }

    /// Evaluates `rows` in one width-`W` arena pass and asserts that every
    /// lane — gate values, outputs and firing count — equals the scalar
    /// evaluator's result for that row.
    fn assert_lanes_match_scalar<const W: usize>(cc: &CompiledCircuit, rows: &[Vec<bool>]) {
        let refs: Vec<&[bool]> = rows.iter().map(Vec::as_slice).collect();
        let mut arena = PlaneArena::new();
        let ev = cc.evaluate_rows_arena::<W>(&refs, &mut arena).unwrap();
        assert_eq!(ev.lanes(), rows.len());
        for (lane, row) in rows.iter().enumerate() {
            let scalar = cc.evaluate(row).unwrap();
            assert_eq!(scalar, ev.evaluation(lane).unwrap(), "W={W} lane {lane}");
            assert_eq!(
                scalar.firing_count(),
                ev.firing_count(lane).unwrap() as usize,
                "W={W} lane {lane}"
            );
        }
    }

    #[test]
    fn small_circuits_match_scalar_exhaustively() {
        let cc = mixed_circuit().compile().unwrap();
        assert_lanes_match_scalar::<1>(&cc, &exhaustive_rows(3));

        // Negative thresholds and constant-one fan-in.
        let mut b = CircuitBuilder::new(1);
        let always = b.add_gate([(Wire::input(0), 1)], i64::MIN + 1).unwrap();
        let negate = b.add_gate([(Wire::One, -4), (always, 2)], -2).unwrap();
        b.mark_outputs([always, negate]);
        let cc = b.build().compile().unwrap();
        assert_lanes_match_scalar::<1>(&cc, &exhaustive_rows(1));
    }

    #[test]
    fn ragged_lanes_match_scalar_at_w4() {
        // 130 lanes: a ragged count spanning three of the four words.
        let cc = mixed_circuit().compile().unwrap();
        let rows: Vec<Vec<bool>> = exhaustive_rows(3).into_iter().cycle().take(130).collect();
        assert_lanes_match_scalar::<4>(&cc, &rows);
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let cc = mixed_circuit().compile().unwrap();
        let mut arena = PlaneArena::new();
        let row: &[bool] = &[false; 3];
        assert!(matches!(
            cc.evaluate_rows_arena::<1>(&[row; 65], &mut arena),
            Err(CircuitError::BatchTooWide { rows: 65 })
        ));
        assert!(matches!(
            cc.evaluate_rows_arena::<2>(&[row; 129], &mut arena),
            Err(CircuitError::BatchTooWide { rows: 129 })
        ));
        let short: &[bool] = &[true, false];
        assert!(matches!(
            cc.evaluate_rows_arena::<2>(&[row, short], &mut arena),
            Err(CircuitError::InputLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn empty_batches_give_a_zero_lane_view() {
        let cc = mixed_circuit().compile().unwrap();
        let mut arena = PlaneArena::new();
        let ev = cc.evaluate_rows_arena::<2>(&[], &mut arena).unwrap();
        assert_eq!(ev.lanes(), 0);
        assert!(ev.firing_counts().is_empty());
        assert!(matches!(
            ev.output(0, 0),
            Err(CircuitError::LaneOutOfRange { lane: 0, lanes: 0 })
        ));
    }

    #[test]
    fn lane_and_output_indices_are_bounds_checked() {
        let cc = mixed_circuit().compile().unwrap();
        let mut arena = PlaneArena::new();
        let row: &[bool] = &[true, false, true];
        let ev = cc.evaluate_rows_arena::<1>(&[row], &mut arena).unwrap();
        assert!(ev.output(0, 0).is_ok());
        assert!(matches!(
            ev.output(1, 0),
            Err(CircuitError::LaneOutOfRange { lane: 1, lanes: 1 })
        ));
        assert!(matches!(
            ev.firing_count(1),
            Err(CircuitError::LaneOutOfRange { lane: 1, lanes: 1 })
        ));
        assert!(matches!(
            ev.output(0, 99),
            Err(CircuitError::OutputIndexOutOfRange { index: 99, .. })
        ));
    }

    #[test]
    fn extreme_weights_take_the_wide_fallback() {
        // Coprime near-extreme weights: GCD factoring cannot shrink them,
        // so the gates genuinely exceed the plane budget.
        let mut b = CircuitBuilder::new(2);
        let g = b
            .add_gate(
                [(Wire::input(0), i64::MAX), (Wire::input(1), i64::MAX - 2)],
                1,
            )
            .unwrap();
        let h = b.add_gate([(Wire::input(0), i64::MIN), (g, 1)], 0).unwrap();
        b.mark_outputs([g, h]);
        let cc = b.build().compile().unwrap();
        assert_eq!(cc.gate_class(0), GateClass::General);
        assert!(cc.batch_planes.iter().all(|&p| p == WIDE_GATE));
        // NAF would shorten MAX's 63 bit-edges but its digit reach exceeds
        // the plane budget just like binary: the gate stays wide, unrecoded.
        assert_eq!(cc.canonicalized_gates(), 0);
        let rows: Vec<Vec<bool>> = (0..100u32).map(|v| vec![v & 1 != 0, v & 2 != 0]).collect();
        assert_lanes_match_scalar::<1>(&cc, &rows[..4]);
        assert_lanes_match_scalar::<2>(&cc, &rows);
    }

    #[test]
    fn canonicalization_upgrades_classes_and_preserves_behaviour() {
        let mut b = CircuitBuilder::new(2);
        let x = Wire::input(0);
        let y = Wire::input(1);
        // {+5, -5} factors to Unit; {+6, -12} to Pow2 {+1, -2};
        // {+3, +7} is already canonical General (CSD shortens the 7).
        let maj = b.add_gate([(x, 5), (y, -5)], 3).unwrap();
        let pow = b.add_gate([(x, 6), (y, -12)], -6).unwrap();
        let gen = b.add_gate([(x, 3), (y, 7)], 7).unwrap();
        b.mark_outputs([maj, pow, gen]);
        let c = b.build();
        let cc = c.compile().unwrap();
        assert_eq!(cc.gate_class(0), GateClass::Unit);
        assert_eq!(cc.gate_class(1), GateClass::Pow2);
        assert_eq!(cc.gate_class(2), GateClass::General);
        assert_eq!(cc.class_counts_pre(), [0, 0, 3]);
        assert_eq!(cc.class_counts(), [1, 1, 1]);
        assert_eq!(cc.canonicalized_gates(), 3);
        // Factored accessors stay behaviour-equivalent.
        assert_eq!(cc.threshold(0), 1); // ⌈3/5⌉
        assert_eq!(cc.threshold(1), -1); // ⌈-6/6⌉
        assert_eq!(cc.max_abs_weight(), 7);
        // Unit gate contributes no bit-edges; Pow2 {+1,-2} one per edge
        // (2 total); General {3, 7}: 3 keeps two binary edges, 7 recodes
        // to two signed digits (8 - 1) instead of three (4 total).
        assert_eq!(cc.num_bit_edges(), 2 + 4);
        let rows = exhaustive_rows(2);
        for row in &rows {
            assert_eq!(c.evaluate(row).unwrap(), cc.evaluate(row).unwrap());
        }
        assert_lanes_match_scalar::<1>(&cc, &rows);
    }
}
