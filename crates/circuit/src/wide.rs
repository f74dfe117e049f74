//! Width-generic bit-sliced evaluation: `[u64; W]` planes carrying `64·W`
//! independent input assignments per pass.
//!
//! [`CompiledCircuit::evaluate_batch64`] packs 64 assignments into one `u64`
//! lane word; this module exposes the same unified kernel (`kernel.rs`) at
//! `W` words per plane — 128, 256 or 512 lanes for `W` of 2, 4, 8 — so the
//! CSR traversal (gate offsets, edges, bit-edge descriptors) is read **once
//! per `64·W` lanes** instead of once per 64. On circuits whose edge arrays
//! spill out of cache, that traversal is the bound, and the wide widths
//! amortise it across `W` word-columns evaluated back to back while the
//! gate's metadata is hot.
//!
//! Every word-column is an independent instance of the 64-lane kernel:
//! carries never propagate between words, so lane `l` of a wide evaluation
//! is bit-identical to the scalar evaluator on assignment `l` (enforced by
//! the differential proptests in `tests/proptest_compiled.rs` for all of
//! `W ∈ {2, 4, 8}`).
//!
//! This allocating API mirrors [`crate::Batch64`] for one-shot callers; the
//! serving hot path packs rows straight into a reusable [`crate::PlaneArena`]
//! via [`CompiledCircuit::evaluate_rows_arena`] instead.

use crate::eval::Evaluation;
use crate::kernel::ShardOptions;
use crate::{CircuitError, CompiledCircuit, Result};

/// Packed input assignments for the width-generic kernel: one `[u64; W]`
/// plane per primary input, bit `l % 64` of word `l / 64` carrying
/// assignment `l`'s value.
///
/// Unlike [`crate::Batch64`], an empty batch is representable: packing zero
/// rows succeeds and evaluates to a zero-lane [`WideEvaluation`].
#[derive(Debug, Clone)]
pub struct BatchWide<const W: usize> {
    num_inputs: usize,
    lanes: usize,
    masks: Vec<[u64; W]>,
}

/// 128-lane batch (`[u64; 2]` planes).
pub type Batch128 = BatchWide<2>;
/// 256-lane batch (`[u64; 4]` planes).
pub type Batch256 = BatchWide<4>;
/// 512-lane batch (`[u64; 8]` planes).
pub type Batch512 = BatchWide<8>;

impl<const W: usize> BatchWide<W> {
    /// Number of lanes one batch of this width can carry.
    pub const LANES: usize = 64 * W;

    /// Packs up to `64·W` assignments (each of `num_inputs` bits). Zero rows
    /// are allowed; partial batches occupy the low lanes.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::BatchTooWide`] for more than `64·W` assignments;
    /// * [`CircuitError::InputLengthMismatch`] if any row has the wrong
    ///   length.
    pub fn pack<R: AsRef<[bool]>>(num_inputs: usize, rows: &[R]) -> Result<Self> {
        if rows.len() > Self::LANES {
            return Err(CircuitError::BatchTooWide { rows: rows.len() });
        }
        let mut masks = vec![[0u64; W]; num_inputs];
        for (lane, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            if row.len() != num_inputs {
                return Err(CircuitError::InputLengthMismatch {
                    expected: num_inputs,
                    actual: row.len(),
                });
            }
            let (word, bit) = (lane / 64, lane % 64);
            for (i, &value) in row.iter().enumerate() {
                masks[i][word] |= (value as u64) << bit;
            }
        }
        Ok(BatchWide {
            num_inputs,
            lanes: rows.len(),
            masks,
        })
    }

    /// Number of packed assignments (0..=`64·W`).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of primary inputs per assignment.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }
}

impl CompiledCircuit {
    /// Evaluates up to `64·W` independent input assignments in one pass of
    /// the unified width-generic bit-sliced kernel (the `W = 1`
    /// instantiation of which is [`CompiledCircuit::evaluate_batch64`]).
    ///
    /// Lane `l` of the result is bit-identical to `evaluate(&rows[l])` —
    /// values, outputs, and firing counts. See the [module docs](self) for
    /// why widening the planes pays: one CSR traversal feeds `W` word-columns.
    pub fn evaluate_batch_wide<const W: usize>(
        &self,
        batch: &BatchWide<W>,
    ) -> Result<WideEvaluation> {
        if batch.num_inputs != self.num_inputs {
            return Err(CircuitError::InputLengthMismatch {
                expected: self.num_inputs,
                actual: batch.num_inputs,
            });
        }
        let lanes = batch.lanes;
        let slots = self.len_slots();
        if lanes == 0 {
            return Ok(WideEvaluation {
                lanes: 0,
                words: W,
                num_inputs: self.num_inputs,
                vals: vec![0u64; slots * W],
                output_slots: self.outputs.clone(),
                perm: self.perm.clone(),
                firing_counts: Vec::new(),
            });
        }

        let mut vals = vec![[0u64; W]; slots];
        vals[0] = [!0u64; W];
        vals[1..=self.num_inputs].copy_from_slice(&batch.masks);
        let mut firing_counts = Vec::with_capacity(lanes);
        self.run_pass::<W>(&mut vals, lanes, ShardOptions::SINGLE, &mut firing_counts);

        // Hand the flat slot array to the evaluation; dead lanes are never
        // exposed (every accessor bounds-checks against `lanes`).
        let mut flat = Vec::with_capacity(slots * W);
        for slot in &vals {
            flat.extend_from_slice(slot);
        }
        Ok(WideEvaluation {
            lanes,
            words: W,
            num_inputs: self.num_inputs,
            vals: flat,
            output_slots: self.outputs.clone(),
            perm: self.perm.clone(),
            firing_counts,
        })
    }
}

/// The result of a width-generic batch evaluation.
///
/// Stores the kernel's flat slot array (constant-one wire, inputs, gates —
/// `words` lane words per slot) rather than copying per-gate masks out; all
/// accessors bounds-check the lane against the batch's assignment count, so
/// garbage in dead tail lanes is never observable.
#[derive(Debug, Clone)]
pub struct WideEvaluation {
    lanes: usize,
    words: usize,
    num_inputs: usize,
    /// Slot-major lane words: slot `s` occupies `vals[s*words..(s+1)*words]`.
    vals: Vec<u64>,
    /// Slot index of each designated output.
    output_slots: Vec<u32>,
    /// Original gate id → internal slot offset (shared with the compiled
    /// circuit, so no per-evaluation allocation): gate `g` lives in slot
    /// `1 + num_inputs + perm[g]`.
    perm: std::sync::Arc<[u32]>,
    firing_counts: Vec<u32>,
}

impl WideEvaluation {
    /// Number of valid lanes (the batch's assignment count).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lane words per slot (the batch width `W`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
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
            .output_slots
            .get(i)
            .ok_or(CircuitError::OutputIndexOutOfRange {
                index: i,
                len: self.output_slots.len(),
            })?;
        Ok(self.slot_bit(slot as usize, lane))
    }

    /// All designated output values for assignment `lane`.
    pub fn outputs(&self, lane: usize) -> Result<Vec<bool>> {
        self.check_lane(lane)?;
        Ok(self
            .output_slots
            .iter()
            .map(|&s| self.slot_bit(s as usize, lane))
            .collect())
    }

    /// Every gate's value for assignment `lane`, in ORIGINAL gate order.
    pub fn gate_values(&self, lane: usize) -> Result<Vec<bool>> {
        self.check_lane(lane)?;
        Ok(self
            .perm
            .iter()
            .map(|&i| self.slot_bit(1 + self.num_inputs + i as usize, lane))
            .collect())
    }

    /// Number of gates that fired for assignment `lane`.
    pub fn firing_count(&self, lane: usize) -> Result<u32> {
        self.check_lane(lane)?;
        Ok(self.firing_counts[lane])
    }

    /// Expands one lane into a full [`Evaluation`], identical to what the
    /// scalar evaluator returns for that assignment.
    pub fn evaluation(&self, lane: usize) -> Result<Evaluation> {
        Ok(Evaluation::from_parts(
            self.gate_values(lane)?,
            self.outputs(lane)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, Wire};

    fn adder_circuit() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(3);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let z = Wire::input(2);
        let carry = b.add_gate([(x, 1), (y, 1), (z, 1)], 2).unwrap();
        let sum = b
            .add_gate([(x, 1), (y, 1), (z, 1), (carry, -2)], 1)
            .unwrap();
        let veto = b.add_gate([(Wire::One, 3), (sum, -3)], 3).unwrap();
        b.mark_output(sum);
        b.mark_output(carry);
        b.mark_output(veto);
        b.build().compile().unwrap()
    }

    fn exhaustive_rows(bits: usize) -> Vec<Vec<bool>> {
        (0..1u32 << bits)
            .map(|v| (0..bits).map(|b| (v >> b) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn wide_lanes_match_scalar_for_all_widths() {
        let cc = adder_circuit();
        // Exhaustive rows cycled to 130 lanes — a ragged count spanning
        // three words of a Batch256.
        let rows: Vec<Vec<bool>> = exhaustive_rows(3).into_iter().cycle().take(130).collect();
        let batch = Batch256::pack(3, &rows).unwrap();
        let wev = cc.evaluate_batch_wide(&batch).unwrap();
        assert_eq!(wev.lanes(), 130);
        for (lane, row) in rows.iter().enumerate() {
            let scalar = cc.evaluate(row).unwrap();
            assert_eq!(scalar, wev.evaluation(lane).unwrap(), "lane {lane}");
            assert_eq!(
                scalar.firing_count(),
                wev.firing_count(lane).unwrap() as usize,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn empty_batches_are_representable() {
        let cc = adder_circuit();
        let empty: &[Vec<bool>] = &[];
        let batch = Batch128::pack(3, empty).unwrap();
        let wev = cc.evaluate_batch_wide(&batch).unwrap();
        assert_eq!(wev.lanes(), 0);
        assert!(matches!(
            wev.output(0, 0),
            Err(CircuitError::LaneOutOfRange { .. })
        ));
    }

    #[test]
    fn over_wide_batches_are_rejected() {
        let rows: Vec<[bool; 1]> = (0..129).map(|_| [false]).collect();
        assert!(matches!(
            Batch128::pack(1, &rows),
            Err(CircuitError::BatchTooWide { rows: 129 })
        ));
    }

    #[test]
    fn mismatched_input_width_is_rejected() {
        let cc = adder_circuit();
        let batch = Batch128::pack(2, &[[true, false]]).unwrap();
        assert!(matches!(
            cc.evaluate_batch_wide(&batch),
            Err(CircuitError::InputLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn extreme_weights_take_the_wide_fallback() {
        let mut b = CircuitBuilder::new(2);
        let g = b
            .add_gate([(Wire::input(0), i64::MAX), (Wire::input(1), i64::MAX)], 1)
            .unwrap();
        let h = b.add_gate([(Wire::input(0), i64::MIN), (g, 1)], 0).unwrap();
        b.mark_outputs([g, h]);
        let cc = b.build().compile().unwrap();
        let rows: Vec<Vec<bool>> = (0..100u32).map(|v| vec![v & 1 != 0, v & 2 != 0]).collect();
        let batch = Batch128::pack(2, &rows).unwrap();
        let wev = cc.evaluate_batch_wide(&batch).unwrap();
        for (lane, row) in rows.iter().enumerate() {
            assert_eq!(
                cc.evaluate(row).unwrap(),
                wev.evaluation(lane).unwrap(),
                "lane {lane}"
            );
        }
    }
}
