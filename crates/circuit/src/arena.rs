//! Reusable plane scratch for the batch kernels: allocation-free
//! steady-state serving.
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
