//! The compiled execution engine: CSR-lowered circuits with scalar,
//! layer-parallel, and bit-sliced batch evaluators.
//!
//! [`Circuit`] is builder-friendly: every gate owns a `Vec<(Wire, i64)>`, so
//! evaluating it chases pointers and re-resolves wires through an enum on
//! every edge. [`CompiledCircuit`] lowers that form once into flat
//! compressed-sparse-row (CSR) arrays:
//!
//! * one contiguous *slot* space — slot `0` is the constant-one wire, slots
//!   `1..=I` the primary inputs, slots `I+1..` the gates — so every evaluator
//!   reads values from a single flat array with `u32` indices;
//! * per-gate fan-in offsets into contiguous `wires` / `weights` arrays;
//! * an internal gate numbering sorted by `(depth, gate class)` so each depth
//!   layer occupies a contiguous slot range and the batch kernel runs
//!   straight-line loops per [`GateClass`] segment (public accessors keep
//!   speaking original gate ids; the permutation is invisible outside);
//! * per-gate *bit-edges* — each weight decomposed into its set bits — for
//!   [`GateClass::Pow2`] and [`GateClass::General`] gates only;
//!   [`GateClass::Unit`] gates (all weights ±1, the majority-style gates that
//!   dominate the paper's constructions) are evaluated straight off the raw
//!   CSR edges with their positive edges ordered first.
//!
//! All evaluators — scalar, layer-parallel, and the width-generic bit-sliced
//! kernel behind [`CompiledCircuit::evaluate_batch64`] /
//! [`CompiledCircuit::evaluate_batch_wide`] (see `kernel.rs`) — produce
//! bit-identical [`Evaluation`]s (and firing counts) for the same inputs;
//! the differential proptest suites in `tests/proptest_compiled.rs` and
//! `tests/proptest_classes.rs` assert this gate-for-gate.
//!
//! ## Compile once, evaluate many
//!
//! ```
//! use tc_circuit::{Batch64, CircuitBuilder, Wire};
//!
//! let mut b = CircuitBuilder::new(2);
//! let g = b.add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 2).unwrap();
//! b.mark_output(g);
//! let compiled = b.build().compile().unwrap();
//!
//! // 4 assignments ride in one 64-lane batch.
//! let rows = [[false, false], [false, true], [true, false], [true, true]];
//! let batch = Batch64::pack(2, &rows).unwrap();
//! let ev = compiled.evaluate_batch64(&batch).unwrap();
//! assert_eq!((0..4).map(|l| ev.output(l, 0).unwrap() as u32).sum::<u32>(), 1);
//! ```

use crate::canon;
use crate::eval::{EvalOptions, Evaluation};
use crate::kernel::ShardOptions;
use crate::stats::CircuitStats;
use crate::{Circuit, CircuitError, Result, Wire};

/// Bit-sliced batch width: one `u64` lane per input assignment.
pub const BATCH_LANES: usize = 64;

/// Planes of the bit-sliced firing counter (supports circuits of up to
/// `2^FIRING_PLANES` gates).
pub(crate) const FIRING_PLANES: usize = 40;

/// Sentinel in `batch_planes` marking a gate that needs the wide (per-lane
/// `i128`) fallback instead of the carry-save plane kernel.
pub(crate) const WIDE_GATE: u8 = u8::MAX;

/// Kernel dispatch class of a compiled gate.
///
/// Classification is decided once at compile time from the gate's weights
/// (and its plane budget) and drives which straight-line loop of the batch
/// kernel evaluates the gate:
///
/// * [`GateClass::Unit`] — every weight is `+1` or `-1` (the majority-style
///   gates that dominate the paper's Lemma 3.1 dot-product blocks and MAJ
///   reductions). Evaluated by popcount-style carry-save addition over the
///   raw CSR lane words: no bit-edge expansion, no per-edge shift decode.
/// * [`GateClass::Pow2`] — every weight magnitude has a single set bit, so
///   each edge is exactly one shift-indexed plane addition.
/// * [`GateClass::General`] — everything else: weights decompose into
///   multiple bit-edges (or the gate's weight reach exceeds the plane budget
///   and it takes the per-lane `i128` fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateClass {
    /// All weights ±1: raw-lane carry-save addition, no bit-edges.
    Unit,
    /// All weight magnitudes are powers of two: one bit-edge per edge.
    Pow2,
    /// Arbitrary weights: full bit-edge decomposition (or wide fallback).
    General,
}

impl GateClass {
    /// Classifies a gate from its weights and plane budget. `planes` is the
    /// gate's `batch_planes` entry ([`WIDE_GATE`] demotes to `General`).
    pub(crate) fn classify<I: Iterator<Item = i64> + Clone>(weights: I, planes: u8) -> Self {
        if planes == WIDE_GATE {
            return GateClass::General;
        }
        if weights.clone().all(|w| w == 1 || w == -1) {
            GateClass::Unit
        } else if weights
            .clone()
            .all(|w| w != 0 && w.unsigned_abs().is_power_of_two())
        {
            GateClass::Pow2
        } else {
            GateClass::General
        }
    }

    /// Index into per-class arrays (`[Unit, Pow2, General]`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            GateClass::Unit => 0,
            GateClass::Pow2 => 1,
            GateClass::General => 2,
        }
    }
}

/// A [`Circuit`] lowered to flat CSR arrays with a precomputed layer
/// schedule, hosting the scalar, layer-parallel and bit-sliced batch
/// evaluators behind one API.
///
/// Internally gates are renumbered so that each depth layer is a contiguous
/// slot range and, inside a layer, gates of the same [`GateClass`] are
/// adjacent. Every public accessor and every returned [`Evaluation`] speaks
/// *original* gate ids; `perm`/`inv` translate at the boundary.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    pub(crate) num_inputs: usize,
    /// Gate fan-in offsets (internal order): edges of internal gate `g` are
    /// `offsets[g]..offsets[g+1]`.
    pub(crate) offsets: Vec<u32>,
    /// Slot-encoded fan-in wires, contiguous across gates. Within each gate
    /// the non-negative-weight edges come first (see `pos_counts`).
    pub(crate) wires: Vec<u32>,
    /// Fan-in weights, parallel to `wires`.
    pub(crate) weights: Vec<i64>,
    /// Per-gate count of leading non-negative-weight edges (internal order);
    /// the `Unit` kernel splits its pos/neg accumulation at this point.
    pub(crate) pos_counts: Vec<u32>,
    /// Per-gate firing thresholds (internal order).
    pub(crate) thresholds: Vec<i64>,
    /// Per-gate depth (1-based), in ORIGINAL gate order.
    pub(crate) depths: Vec<u32>,
    /// ORIGINAL gate ids grouped by depth layer; `layer_ranges[d]` indexes
    /// into it (the public [`CompiledCircuit::layer`] view).
    pub(crate) schedule: Vec<u32>,
    /// Half-open ranges, one per depth layer. Because the internal numbering
    /// is depth-major, `layer_ranges[d]` is *also* the internal gate-id range
    /// of layer `d`.
    pub(crate) layer_ranges: Vec<(u32, u32)>,
    /// Slot-encoded designated outputs.
    pub(crate) outputs: Vec<u32>,
    /// Per-gate flag (internal order): the weighted sum provably fits `i64`.
    pub(crate) narrow: Vec<bool>,
    /// Bit-edge offsets (internal order; `Unit` gates span zero bit-edges).
    pub(crate) bit_offsets: Vec<u32>,
    /// Slot of each bit-edge.
    pub(crate) bit_slots: Vec<u32>,
    /// Packed bit-edge descriptor: low 6 bits = shift, bit 7 = negative sign.
    pub(crate) bit_shifts: Vec<u8>,
    /// Planes needed by the batch kernel per gate, or [`WIDE_GATE`].
    pub(crate) batch_planes: Vec<u8>,
    /// Per-gate class (internal order).
    pub(crate) classes: Vec<GateClass>,
    /// Maximal runs of equal class in internal order: `(class, lo, hi)`.
    pub(crate) segments: Vec<(GateClass, u32, u32)>,
    /// Gates per class (`[Unit, Pow2, General]`), post-canonicalization —
    /// the mix the kernel actually runs.
    pub(crate) class_counts: [usize; 3],
    /// Gates per class as classified from the *raw* builder weights, before
    /// the canonicalization pass rewrote them (see `canon.rs`).
    pub(crate) class_counts_pre: [usize; 3],
    /// Gates whose compiled form differs from their raw form (GCD-factored
    /// weights and/or a shorter signed-digit bit-edge decomposition).
    pub(crate) canon_gates: usize,
    /// Plane-addition operations one batch pass performs per class:
    /// raw edges for `Unit`, bit-edges for `Pow2`/`General`.
    pub(crate) class_plane_ops: [u64; 3],
    /// ORIGINAL gate id → internal gate id. Shared (`Arc`) so evaluations
    /// that must translate slots back to original ids borrow it for free.
    pub(crate) perm: std::sync::Arc<[u32]>,
    /// Internal gate id → ORIGINAL gate id.
    pub(crate) inv: Vec<u32>,
}

#[inline]
fn slot_of(wire: Wire, num_inputs: usize, perm: &[u32]) -> usize {
    match wire {
        Wire::One => 0,
        Wire::Input(i) => 1 + i as usize,
        Wire::Gate(g) => 1 + num_inputs + perm[g as usize] as usize,
    }
}

impl CompiledCircuit {
    /// Lowers a circuit into its compiled form.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::DanglingWire`] if the circuit violates the
    ///   topological invariant (possible for hand-assembled or deserialised
    ///   circuits; builder output always lowers cleanly);
    /// * [`CircuitError::CircuitTooLarge`] if inputs + gates exceed the
    ///   `u32` slot space.
    pub fn new(circuit: &Circuit) -> Result<Self> {
        let num_inputs = circuit.num_inputs();
        let num_gates = circuit.num_gates();
        let slots = 1usize + num_inputs + num_gates;
        if slots > u32::MAX as usize {
            return Err(CircuitError::CircuitTooLarge {
                inputs: num_inputs,
                gates: num_gates,
            });
        }

        // Planes so that POS, NEG and POS - NEG - t all fit a signed
        // `planes`-bit two's-complement integer, given the reach (sum of all
        // accumulated digit magnitudes plus |t|).
        let planes_for = |reach: i128| -> u8 {
            let needed = 128 - (reach + 1).leading_zeros() + 2;
            if (needed as usize) < BATCH_LANES {
                // lint:allow(narrowing-cast): guarded below BATCH_LANES = 64
                needed as u8
            } else {
                WIDE_GATE
            }
        };

        // ── Pass 1 (original order): validate fan-in wires, recompute
        // depths from the fan-ins (authoritative even for hand-assembled
        // circuits), canonicalize weights (GCD factoring + CSD bit-edge
        // recoding; see `canon.rs`), and classify every gate before and
        // after the rewrite.
        let mut depths = vec![0u32; num_gates];
        let mut per_gate_planes = Vec::with_capacity(num_gates);
        let mut per_gate_narrow = Vec::with_capacity(num_gates);
        let mut per_gate_class = Vec::with_capacity(num_gates);
        let mut per_gate_csd = Vec::with_capacity(num_gates);
        let mut rewrites: Vec<Option<(Vec<i64>, i64)>> = Vec::with_capacity(num_gates);
        let mut class_counts_pre = [0usize; 3];
        let mut canon_gates = 0usize;
        let mut wbuf: Vec<i64> = Vec::new();
        let mut dbuf: Vec<canon::Digit> = Vec::new();
        for (idx, gate) in circuit.gates().iter().enumerate() {
            let mut pos_sum: i128 = 0;
            let mut neg_sum: i128 = 0;
            let mut depth_in = 0u32;
            wbuf.clear();
            for &(wire, weight) in gate.inputs() {
                let valid = match wire {
                    Wire::Input(i) => (i as usize) < num_inputs,
                    Wire::Gate(g) => (g as usize) < idx,
                    Wire::One => true,
                };
                if !valid {
                    return Err(CircuitError::DanglingWire {
                        wire,
                        num_inputs,
                        num_gates: idx,
                    });
                }
                if let Wire::Gate(g) = wire {
                    depth_in = depth_in.max(depths[g as usize]);
                }
                wbuf.push(weight);
                if weight >= 0 {
                    pos_sum += weight as i128;
                } else {
                    neg_sum += -(weight as i128);
                }
            }
            depths[idx] = depth_in + 1;
            let t = gate.threshold();

            // Pre-canonicalization class: what the kernel would have run
            // without the rewrite (observable via `class_counts_pre`).
            let planes_pre = planes_for(pos_sum + neg_sum + (t.unsigned_abs() as i128));
            let class_pre = GateClass::classify(wbuf.iter().copied(), planes_pre);
            class_counts_pre[class_pre.index()] += 1;

            // GCD factoring; `None` leaves the gate's weights untouched.
            let rewrite = canon::canonical_gate(&wbuf, t);
            let (cw, ct): (&[i64], i64) = match &rewrite {
                Some((w, t)) => (w, *t),
                None => (&wbuf, t),
            };

            // Recompute the sums from the canonical weights: these drive the
            // scalar evaluator's narrow flag and the binary-emission reach.
            let (mut pos_sum, mut neg_sum) = (0i128, 0i128);
            // CSD digit-magnitude sums: what the kernel's pos/neg plane
            // accumulators actually see under signed-digit emission (a
            // positive weight's negative digit lands in the NEG planes).
            let (mut pos_csd, mut neg_csd) = (0i128, 0i128);
            let mut csd_shorter = false;
            for &w in cw {
                if w >= 0 {
                    pos_sum += w as i128;
                } else {
                    neg_sum += -(w as i128);
                }
                let mag = w.unsigned_abs();
                dbuf.clear();
                canon::weight_digits(mag, &mut dbuf);
                // lint:allow(narrowing-cast): a u64 magnitude has ≤ 64 digits
                csd_shorter |= (dbuf.len() as u32) < mag.count_ones();
                for &(shift, dneg) in &dbuf {
                    if (w < 0) ^ dneg {
                        neg_csd += 1i128 << shift;
                    } else {
                        pos_csd += 1i128 << shift;
                    }
                }
            }
            per_gate_narrow.push(pos_sum <= i64::MAX as i128 && neg_sum <= i64::MAX as i128);
            let planes_bin = planes_for(pos_sum + neg_sum + (ct.unsigned_abs() as i128));
            let planes_csd = planes_for(pos_csd + neg_csd + (ct.unsigned_abs() as i128));
            // Signed-digit recoding trades fewer bit-edges for a (possibly)
            // larger digit-magnitude reach; fall back to plain binary for
            // the whole gate if that trade would push it onto the wide path.
            let use_csd = planes_csd != WIDE_GATE;
            let planes = if use_csd { planes_csd } else { planes_bin };
            per_gate_csd.push(use_csd);
            per_gate_planes.push(planes);
            per_gate_class.push(GateClass::classify(cw.iter().copied(), planes));
            if rewrite.is_some() || (use_csd && csd_shorter) {
                canon_gates += 1;
            }
            rewrites.push(rewrite);
        }

        // ── Layer schedule: ORIGINAL gate ids grouped by depth, ascending
        // inside each layer (counting sort over depths).
        let depth = depths.iter().copied().max().unwrap_or(0) as usize;
        let mut layer_sizes = vec![0u32; depth];
        for &d in &depths {
            layer_sizes[(d - 1) as usize] += 1;
        }
        let mut layer_ranges = Vec::with_capacity(depth);
        let mut start = 0u32;
        for &sz in &layer_sizes {
            layer_ranges.push((start, start + sz));
            start += sz;
        }
        let mut cursor: Vec<u32> = layer_ranges.iter().map(|&(lo, _)| lo).collect();
        let mut schedule = vec![0u32; num_gates];
        for (g, &d) in depths.iter().enumerate() {
            let c = &mut cursor[(d - 1) as usize];
            // lint:allow(narrowing-cast): gate ids fit the u32 slot space checked at entry
            schedule[*c as usize] = g as u32;
            *c += 1;
        }

        // ── Internal numbering: depth-major (so every layer is a contiguous
        // internal range — `layer_ranges` doubles as the internal ranges),
        // class-sorted inside each layer so the batch kernel's class
        // segments are maximal straight-line runs. Topological soundness
        // holds because a fan-in gate always has strictly smaller depth.
        let mut inv = schedule.clone();
        for &(lo, hi) in &layer_ranges {
            inv[lo as usize..hi as usize].sort_by_key(|&g| (per_gate_class[g as usize].index(), g));
        }
        let mut perm = vec![0u32; num_gates];
        for (internal, &orig) in inv.iter().enumerate() {
            // lint:allow(narrowing-cast): internal ids fit the u32 slot space checked at entry
            perm[orig as usize] = internal as u32;
        }

        // ── Pass 2 (internal order): build the CSR arrays. Edges are
        // reordered non-negative-weight first (the sum is order-invariant;
        // the `Unit` kernel needs the split point), and bit-edges are only
        // emitted for `Pow2`/`General` gates — `Unit` gates are evaluated
        // straight off the raw edges.
        let num_edges = circuit.num_edges();
        let mut offsets = Vec::with_capacity(num_gates + 1);
        let mut wires = Vec::with_capacity(num_edges);
        let mut weights = Vec::with_capacity(num_edges);
        let mut pos_counts = Vec::with_capacity(num_gates);
        let mut thresholds = Vec::with_capacity(num_gates);
        let mut narrow = Vec::with_capacity(num_gates);
        let mut bit_offsets = Vec::with_capacity(num_gates + 1);
        let mut bit_slots = Vec::new();
        let mut bit_shifts = Vec::new();
        let mut batch_planes = Vec::with_capacity(num_gates);
        let mut classes = Vec::with_capacity(num_gates);
        let mut class_counts = [0usize; 3];
        let mut class_plane_ops = [0u64; 3];

        offsets.push(0u32);
        bit_offsets.push(0u32);
        for &orig in &inv {
            let gate = &circuit.gates()[orig as usize];
            let class = per_gate_class[orig as usize];
            let rewrite = &rewrites[orig as usize];
            let use_csd = per_gate_csd[orig as usize];
            let threshold = match rewrite {
                Some((_, t)) => *t,
                None => gate.threshold(),
            };
            let mut emit = |sign: bool| {
                let mut count = 0u32;
                for (e, &(wire, raw)) in gate.inputs().iter().enumerate() {
                    // Canonical weight (GCD-factored signs match the raw ones,
                    // so the pos-first edge split is unchanged).
                    let weight = match rewrite {
                        Some((w, _)) => w[e],
                        None => raw,
                    };
                    if (weight < 0) != sign {
                        continue;
                    }
                    count += 1;
                    // lint:allow(narrowing-cast): slots fit the u32 space checked at entry
                    let slot = slot_of(wire, num_inputs, &perm) as u32;
                    wires.push(slot);
                    weights.push(weight);
                    if class == GateClass::Unit {
                        continue;
                    }
                    // Decompose |weight| into bit-edges for the batch kernel:
                    // signed digits (NAF) where strictly shorter, else one
                    // edge per set bit. A digit's plane sign is the weight
                    // sign flipped by the digit sign.
                    dbuf.clear();
                    if use_csd {
                        canon::weight_digits(weight.unsigned_abs(), &mut dbuf);
                    } else {
                        canon::binary_digits(weight.unsigned_abs(), &mut dbuf);
                    }
                    for &(k, dneg) in &dbuf {
                        let sign_bit = if (weight < 0) ^ dneg { 0x80u8 } else { 0 };
                        bit_slots.push(slot);
                        bit_shifts.push(k | sign_bit);
                    }
                }
                count
            };
            let pos = emit(false);
            emit(true);
            pos_counts.push(pos);
            thresholds.push(threshold);
            narrow.push(per_gate_narrow[orig as usize]);
            batch_planes.push(per_gate_planes[orig as usize]);
            classes.push(class);
            class_counts[class.index()] += 1;
            class_plane_ops[class.index()] += match class {
                // lint:allow(narrowing-cast): usize → u64 never truncates on supported targets
                GateClass::Unit => gate.fan_in() as u64,
                // lint:allow(narrowing-cast): bit-edge counts share the u32 CSR index space; the difference widens to u64
                _ => (bit_slots.len() as u32 - *bit_offsets.last().unwrap()) as u64,
            };
            // lint:allow(narrowing-cast): edge counts share the u32 CSR index space
            offsets.push(wires.len() as u32);
            // lint:allow(narrowing-cast): bit-edge counts share the u32 CSR index space
            bit_offsets.push(bit_slots.len() as u32);
        }

        // Maximal same-class runs in internal order.
        let mut segments: Vec<(GateClass, u32, u32)> = Vec::new();
        for (i, &class) in classes.iter().enumerate() {
            match segments.last_mut() {
                // lint:allow(narrowing-cast): segment ends are gate counts within the u32 slot space
                Some((c, _, hi)) if *c == class => *hi = (i + 1) as u32,
                // lint:allow(narrowing-cast): segment ends are gate counts within the u32 slot space
                _ => segments.push((class, i as u32, (i + 1) as u32)),
            }
        }

        let mut outputs = Vec::with_capacity(circuit.outputs().len());
        for &wire in circuit.outputs() {
            let valid = match wire {
                Wire::Input(i) => (i as usize) < num_inputs,
                Wire::Gate(g) => (g as usize) < num_gates,
                Wire::One => true,
            };
            if !valid {
                return Err(CircuitError::DanglingWire {
                    wire,
                    num_inputs,
                    num_gates,
                });
            }
            // lint:allow(narrowing-cast): slots fit the u32 space checked at entry
            outputs.push(slot_of(wire, num_inputs, &perm) as u32);
        }

        Ok(CompiledCircuit {
            num_inputs,
            offsets,
            wires,
            weights,
            pos_counts,
            thresholds,
            depths,
            schedule,
            layer_ranges,
            outputs,
            narrow,
            bit_offsets,
            bit_slots,
            bit_shifts,
            batch_planes,
            classes,
            segments,
            class_counts,
            class_counts_pre,
            canon_gates,
            class_plane_ops,
            perm: perm.into(),
            inv,
        })
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.thresholds.len()
    }

    /// Total number of edges (sum of all fan-ins).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.wires.len()
    }

    /// Total number of *bit-edges* — weights decomposed into set bits — held
    /// for the [`GateClass::Pow2`] and [`GateClass::General`] gates.
    /// [`GateClass::Unit`] gates are evaluated straight off the raw CSR
    /// edges and emit none; see [`CompiledCircuit::class_plane_ops`] for the
    /// full per-pass work accounting.
    #[inline]
    pub fn num_bit_edges(&self) -> usize {
        self.bit_slots.len()
    }

    /// The kernel dispatch class of gate `gate_index` (original gate id).
    #[inline]
    pub fn gate_class(&self, gate_index: usize) -> GateClass {
        self.classes[self.perm[gate_index] as usize]
    }

    /// Gates per class, as `[Unit, Pow2, General]` counts — the
    /// post-canonicalization mix the batch kernel dispatches on.
    #[inline]
    pub fn class_counts(&self) -> [usize; 3] {
        self.class_counts
    }

    /// Gates per class as the *raw* builder weights would have classified,
    /// before canonicalization (`[Unit, Pow2, General]`). Comparing against
    /// [`CompiledCircuit::class_counts`] shows how many gates the rewrite
    /// moved onto faster kernel segments.
    #[inline]
    pub fn class_counts_pre(&self) -> [usize; 3] {
        self.class_counts_pre
    }

    /// Number of gates whose compiled form was changed by canonicalization
    /// (GCD-factored weights and/or a strictly shorter signed-digit
    /// bit-edge decomposition).
    #[inline]
    pub fn canonicalized_gates(&self) -> usize {
        self.canon_gates
    }

    /// Plane-addition operations one bit-sliced batch pass performs per
    /// class (`[Unit, Pow2, General]`): raw edges for `Unit` gates,
    /// bit-edges for the rest. The unit of work of the batch kernels — cost
    /// models weight these instead of guessing from `num_bit_edges`.
    #[inline]
    pub fn class_plane_ops(&self) -> [u64; 3] {
        self.class_plane_ops
    }

    /// The ORIGINAL gate id occupying `slot`, or `None` for the constant-one
    /// wire and the primary inputs. The inverse of the internal `(depth,
    /// class)`-sorted slot numbering.
    #[inline]
    pub fn gate_of_slot(&self, slot: usize) -> Option<usize> {
        slot.checked_sub(1 + self.num_inputs)
            .map(|internal| self.inv[internal] as usize)
    }

    /// The slot holding gate `gate_index`'s value (original gate id).
    #[inline]
    pub(crate) fn slot_of_gate(&self, gate_index: usize) -> usize {
        1 + self.num_inputs + self.perm[gate_index] as usize
    }

    /// The maximum fan-in over all gates.
    pub fn max_fan_in(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Circuit depth in gate layers.
    #[inline]
    pub fn depth(&self) -> u32 {
        // lint:allow(narrowing-cast): depth ≤ gate count, which fits the u32 slot space
        self.layer_ranges.len() as u32
    }

    /// The depth of gate `gate_index` (1-based from the inputs).
    #[inline]
    pub fn gate_depth(&self, gate_index: usize) -> u32 {
        self.depths[gate_index]
    }

    /// Per-gate fan-in `(slot-encoded wires, weights)` of gate `g` (original
    /// gate id). Edges are stored non-negative-weight first; the weighted
    /// sum is order-invariant. Weights are the *canonical* (GCD-factored)
    /// ones the evaluators actually use — pair with
    /// [`CompiledCircuit::threshold`], which is factored consistently.
    #[inline]
    pub fn fan_in(&self, g: usize) -> (&[u32], &[i64]) {
        let i = self.perm[g] as usize;
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (&self.wires[lo..hi], &self.weights[lo..hi])
    }

    /// Per-gate threshold (original gate id), in canonical (GCD-factored)
    /// form — fires on exactly the same inputs as the builder gate.
    #[inline]
    pub fn threshold(&self, g: usize) -> i64 {
        self.thresholds[self.perm[g] as usize]
    }

    /// Number of designated outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Slot index of designated output `i` (slot 0 is the constant-one wire,
    /// slots `1..=num_inputs` the primary inputs, then the gates in order).
    #[inline]
    pub fn output_slot(&self, i: usize) -> usize {
        self.outputs[i] as usize
    }

    /// Gate ids of depth layer `d` (0-based layer index).
    pub fn layer(&self, d: usize) -> &[u32] {
        let (lo, hi) = self.layer_ranges[d];
        &self.schedule[lo as usize..hi as usize]
    }

    /// The largest absolute weight used anywhere in the compiled circuit
    /// (after canonicalization — never larger than the builder's).
    pub fn max_abs_weight(&self) -> u64 {
        self.weights
            .iter()
            .map(|w| w.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Complexity statistics, computed from the CSR arrays.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::from_compiled(self)
    }

    fn check_inputs(&self, inputs: &[bool]) -> Result<()> {
        if inputs.len() != self.num_inputs {
            return Err(CircuitError::InputLengthMismatch {
                expected: self.num_inputs,
                actual: inputs.len(),
            });
        }
        Ok(())
    }

    /// Evaluates one INTERNAL gate from the flat value array (scalar
    /// fast/wide path).
    #[inline]
    fn fire_scalar(&self, g: usize, vals: &[bool]) -> bool {
        debug_assert_eq!(vals.len(), self.len_slots());
        // SAFETY: compilation guarantees every fan-in slot of gate `g` is
        // below `len_slots()`, and `vals` spans exactly that many slots.
        unsafe { self.fire_scalar_raw(g, vals.as_ptr()) }
    }

    /// Raw-pointer core of [`CompiledCircuit::fire_scalar`], shared with the
    /// parallel evaluator (whose workers must not materialize a `&[bool]`
    /// over memory that sibling threads are concurrently writing).
    ///
    /// # Safety
    ///
    /// `vals` must point to at least [`CompiledCircuit::len_slots`] initialised
    /// `bool`s, and no other thread may concurrently write any slot that gate
    /// `g` reads (its fan-in slots, which compilation bounds to earlier
    /// layers).
    #[inline]
    // SAFETY: `unsafe fn` per the contract above; every dereference below
    // restates its own in-bounds argument.
    unsafe fn fire_scalar_raw(&self, g: usize, vals: *const bool) -> bool {
        let lo = self.offsets[g] as usize;
        let hi = self.offsets[g + 1] as usize;
        if self.narrow[g] {
            let mut acc: i64 = 0;
            for e in lo..hi {
                // Branchless: mask the weight by the input bit.
                // SAFETY: `wires[e] < len_slots()` by compilation, and the
                // caller promises `vals` spans `len_slots()` slots.
                // lint:allow(narrowing-cast): a bool is exactly 0 or 1
                acc += self.weights[e] & -(unsafe { *vals.add(self.wires[e] as usize) } as i64);
            }
            acc >= self.thresholds[g]
        } else {
            let mut acc: i128 = 0;
            for e in lo..hi {
                // SAFETY: same bound as the narrow arm — `wires[e]` is below
                // `len_slots()` and `vals` covers that range.
                if unsafe { *vals.add(self.wires[e] as usize) } {
                    acc += self.weights[e] as i128;
                }
            }
            acc >= self.thresholds[g] as i128
        }
    }

    fn finish(&self, vals: Vec<bool>) -> Evaluation {
        // The slot array is in internal (depth, class) order; the exposed
        // evaluation speaks original gate ids.
        let gate_values = self
            .perm
            .iter()
            .map(|&i| vals[1 + self.num_inputs + i as usize])
            .collect();
        let outputs = self.outputs.iter().map(|&s| vals[s as usize]).collect();
        Evaluation::from_parts(gate_values, outputs)
    }

    /// Evaluates the circuit sequentially on one input assignment.
    ///
    /// Produces exactly the same [`Evaluation`] as [`Circuit::evaluate`].
    pub fn evaluate(&self, inputs: &[bool]) -> Result<Evaluation> {
        self.check_inputs(inputs)?;
        let mut vals = vec![false; 1 + self.num_inputs + self.num_gates()];
        vals[0] = true;
        vals[1..=self.num_inputs].copy_from_slice(inputs);
        for g in 0..self.num_gates() {
            vals[1 + self.num_inputs + g] = self.fire_scalar(g, &vals);
        }
        Ok(self.finish(vals))
    }

    /// Evaluates the circuit layer by layer, splitting large layers across
    /// OS threads (`std::thread::scope`). Produces exactly the same result
    /// as [`CompiledCircuit::evaluate`].
    pub fn evaluate_parallel(&self, inputs: &[bool], opts: EvalOptions) -> Result<Evaluation> {
        self.check_inputs(inputs)?;
        let mut vals = vec![false; 1 + self.num_inputs + self.num_gates()];
        vals[0] = true;
        vals[1..=self.num_inputs].copy_from_slice(inputs);
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for &(lo, hi) in &self.layer_ranges {
            // Internal numbering is depth-major, so layer `d` is exactly the
            // contiguous internal gate range `lo..hi` (cache-local writes).
            let (lo, hi) = (lo as usize, hi as usize);
            let len = hi - lo;
            if threads < 2 || len < opts.parallel_threshold.max(2) {
                for g in lo..hi {
                    vals[1 + self.num_inputs + g] = self.fire_scalar(g, &vals);
                }
            } else {
                // Gates within one depth layer never reference each other, so
                // each thread reads only slots settled in earlier layers and
                // writes a slot no other thread touches. All access goes
                // through raw pointers — materializing a `&[bool]` over the
                // buffer while siblings write disjoint slots would still be
                // undefined behaviour.
                let cell = SharedVals(vals.as_mut_ptr());
                let chunk = len.div_ceil(threads);
                std::thread::scope(|scope| {
                    let mut start = lo;
                    while start < hi {
                        let end = (start + chunk).min(hi);
                        let cell = &cell;
                        scope.spawn(move || {
                            for g in start..end {
                                // SAFETY: gate `g` reads only earlier-layer
                                // slots (no concurrent writers) and writes its
                                // own slot, unique within this layer.
                                unsafe {
                                    let fired = self.fire_scalar_raw(g, cell.0);
                                    *cell.0.add(1 + self.num_inputs + g) = fired;
                                }
                            }
                        });
                        start = end;
                    }
                });
            }
        }
        Ok(self.finish(vals))
    }

    #[inline]
    pub(crate) fn len_slots(&self) -> usize {
        1 + self.num_inputs + self.num_gates()
    }

    /// Evaluates up to 64 independent input assignments in one pass of the
    /// unified width-generic kernel (`W = 1`; see `kernel.rs`).
    ///
    /// Gate values are carried as `u64` lane masks (bit `l` = assignment `l`)
    /// and each gate's weighted sums are accumulated for all lanes at once
    /// with carry-save plane arithmetic, dispatched per [`GateClass`]
    /// segment. Lane `l` of the result is bit-identical to
    /// `evaluate(&rows[l])` — values and firing counts.
    pub fn evaluate_batch64(&self, batch: &Batch64) -> Result<BatchEvaluation> {
        if batch.num_inputs != self.num_inputs {
            return Err(CircuitError::InputLengthMismatch {
                expected: self.num_inputs,
                actual: batch.num_inputs,
            });
        }
        let lanes = batch.lanes as usize;
        let lane_mask = if lanes == BATCH_LANES {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };
        let mut vals = vec![[0u64; 1]; self.len_slots()];
        vals[0] = [!0u64];
        for (v, &m) in vals[1..=self.num_inputs].iter_mut().zip(&batch.masks) {
            *v = [m];
        }
        let mut counts = Vec::with_capacity(lanes);
        self.run_pass::<1>(&mut vals, lanes, ShardOptions::SINGLE, &mut counts);

        // The slot array is internal-order; expose original gate order.
        // Lanes beyond the batch width carry whatever the kernel computed
        // for them; mask them off so the exposed masks are consistent.
        let gate_masks = self
            .perm
            .iter()
            .map(|&i| vals[1 + self.num_inputs + i as usize][0] & lane_mask)
            .collect();
        let mut firing_counts = [0u32; BATCH_LANES];
        firing_counts[..lanes].copy_from_slice(&counts);

        let output_masks = self
            .outputs
            .iter()
            .map(|&s| vals[s as usize][0] & lane_mask)
            .collect();
        Ok(BatchEvaluation {
            lanes: batch.lanes,
            gate_masks,
            output_masks,
            firing_counts,
        })
    }

    /// Evaluates any number of independent input assignments, riding the
    /// bit-sliced 64-lane kernel in full lane groups with a single ragged-tail
    /// path for the final partial group.
    ///
    /// Callers no longer hand-chunk batches of exactly 64: any batch size
    /// (including empty) is accepted, and the returned [`ManyEvaluation`]
    /// addresses results by request index. Request `i`'s outputs and firing
    /// count are bit-identical to `evaluate(&rows[i])`. All per-gate state
    /// lives in one [`crate::PlaneArena`] reused across lane groups — the
    /// input masks are packed straight into the arena once per group (not
    /// repacked through an intermediate [`Batch64`]), so the whole call
    /// performs a constant number of allocations regardless of batch size.
    pub fn evaluate_many<R: AsRef<[bool]>>(&self, rows: &[R]) -> Result<ManyEvaluation> {
        let num_outputs = self.outputs.len();
        let mut output_masks = Vec::with_capacity(rows.len().div_ceil(BATCH_LANES) * num_outputs);
        let mut firing_counts = Vec::with_capacity(rows.len());
        let mut arena = crate::PlaneArena::new();
        let mut refs: Vec<&[bool]> = Vec::with_capacity(BATCH_LANES);
        for chunk in rows.chunks(BATCH_LANES) {
            refs.clear();
            refs.extend(chunk.iter().map(|r| r.as_ref()));
            let ev = self.evaluate_rows_arena::<1>(&refs, &mut arena)?;
            for i in 0..num_outputs {
                output_masks.push(ev.output_lane_mask(i, 0));
            }
            firing_counts.extend_from_slice(ev.firing_counts());
        }
        Ok(ManyEvaluation {
            requests: rows.len(),
            num_outputs,
            output_masks,
            firing_counts,
        })
    }
}

/// Raw-pointer cell sharing the flat value array across a layer's threads.
struct SharedVals(*mut bool);
// SAFETY: threads write pairwise-disjoint slots of the array (each gate id
// appears exactly once in a layer schedule) and only read slots written
// before the scope began.
unsafe impl Send for SharedVals {}
// SAFETY: same disjoint-writes argument as `Send` above — concurrent `&self`
// access never races because no two threads touch the same slot.
unsafe impl Sync for SharedVals {}

/// Up to 64 input assignments packed column-wise: one `u64` lane mask per
/// primary input, bit `l` carrying assignment `l`'s value.
#[derive(Debug, Clone)]
pub struct Batch64 {
    num_inputs: usize,
    lanes: u32,
    masks: Vec<u64>,
}

impl Batch64 {
    /// Packs up to [`BATCH_LANES`] assignments (each of `num_inputs` bits).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::BatchTooWide`] for more than 64 assignments;
    /// * [`CircuitError::InputLengthMismatch`] if any row has the wrong
    ///   length (also reported for an empty batch).
    pub fn pack<R: AsRef<[bool]>>(num_inputs: usize, rows: &[R]) -> Result<Self> {
        if rows.len() > BATCH_LANES {
            return Err(CircuitError::BatchTooWide { rows: rows.len() });
        }
        if rows.is_empty() {
            return Err(CircuitError::InputLengthMismatch {
                expected: num_inputs,
                actual: 0,
            });
        }
        let mut masks = vec![0u64; num_inputs];
        for (lane, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            if row.len() != num_inputs {
                return Err(CircuitError::InputLengthMismatch {
                    expected: num_inputs,
                    actual: row.len(),
                });
            }
            for (i, &bit) in row.iter().enumerate() {
                // lint:allow(narrowing-cast): a bool is exactly 0 or 1
                masks[i] |= (bit as u64) << lane;
            }
        }
        Ok(Batch64 {
            num_inputs,
            // lint:allow(narrowing-cast): guarded above by BATCH_LANES = 64
            lanes: rows.len() as u32,
            masks,
        })
    }

    /// Number of packed assignments (1..=64).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// Number of primary inputs per assignment.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }
}

/// The result of a 64-lane batch evaluation: per-gate and per-output lane
/// masks plus per-lane firing counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEvaluation {
    lanes: u32,
    gate_masks: Vec<u64>,
    output_masks: Vec<u64>,
    firing_counts: [u32; BATCH_LANES],
}

impl BatchEvaluation {
    /// Number of valid lanes (the batch's assignment count).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    fn check_lane(&self, lane: usize) -> Result<()> {
        if lane >= self.lanes as usize {
            return Err(CircuitError::LaneOutOfRange {
                lane,
                lanes: self.lanes as usize,
            });
        }
        Ok(())
    }

    /// The value of output `i` for assignment `lane`.
    pub fn output(&self, lane: usize, i: usize) -> Result<bool> {
        self.check_lane(lane)?;
        let mask = self
            .output_masks
            .get(i)
            .ok_or(CircuitError::OutputIndexOutOfRange {
                index: i,
                len: self.output_masks.len(),
            })?;
        Ok((mask >> lane) & 1 == 1)
    }

    /// All designated output values for assignment `lane`.
    pub fn outputs(&self, lane: usize) -> Result<Vec<bool>> {
        self.check_lane(lane)?;
        Ok(self
            .output_masks
            .iter()
            .map(|m| (m >> lane) & 1 == 1)
            .collect())
    }

    /// Every gate's value for assignment `lane`, in gate order.
    pub fn gate_values(&self, lane: usize) -> Result<Vec<bool>> {
        self.check_lane(lane)?;
        Ok(self
            .gate_masks
            .iter()
            .map(|m| (m >> lane) & 1 == 1)
            .collect())
    }

    /// Number of gates that fired for assignment `lane` (the evaluation's
    /// *energy* in the Uchizawa–Douglas–Maass model).
    pub fn firing_count(&self, lane: usize) -> Result<u32> {
        self.check_lane(lane)?;
        Ok(self.firing_counts[lane])
    }

    /// Per-gate lane masks (bit `l` of entry `g` = gate `g`'s value for
    /// assignment `l`).  Bits of lanes beyond [`BatchEvaluation::lanes`] are
    /// always zero.
    #[inline]
    pub fn gate_masks(&self) -> &[u64] {
        &self.gate_masks
    }

    /// Per-output lane masks.  Bits of lanes beyond
    /// [`BatchEvaluation::lanes`] are always zero.
    #[inline]
    pub fn output_masks(&self) -> &[u64] {
        &self.output_masks
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

/// The result of [`CompiledCircuit::evaluate_many`]: any number of requests
/// evaluated through full 64-lane groups plus one ragged tail, addressed by
/// request index.
///
/// Holds only the designated-output lane masks and per-request firing
/// counts — the serving payload — never the per-gate state, so memory is
/// proportional to requests × outputs rather than requests × gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManyEvaluation {
    requests: usize,
    num_outputs: usize,
    /// Group-major output lane masks: group `g`'s masks occupy
    /// `output_masks[g*num_outputs..(g+1)*num_outputs]`.
    output_masks: Vec<u64>,
    firing_counts: Vec<u32>,
}

impl ManyEvaluation {
    /// Number of requests evaluated.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests
    }

    /// `true` when the batch held no requests at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests == 0
    }

    fn check_request(&self, request: usize) -> Result<()> {
        if request >= self.requests {
            return Err(CircuitError::LaneOutOfRange {
                lane: request,
                lanes: self.requests,
            });
        }
        Ok(())
    }

    #[inline]
    fn mask_bit(&self, request: usize, i: usize) -> bool {
        let mask = self.output_masks[(request / BATCH_LANES) * self.num_outputs + i];
        (mask >> (request % BATCH_LANES)) & 1 == 1
    }

    /// The value of output `i` for request `request`.
    pub fn output(&self, request: usize, i: usize) -> Result<bool> {
        self.check_request(request)?;
        if i >= self.num_outputs {
            return Err(CircuitError::OutputIndexOutOfRange {
                index: i,
                len: self.num_outputs,
            });
        }
        Ok(self.mask_bit(request, i))
    }

    /// All designated output values for request `request`.
    pub fn outputs(&self, request: usize) -> Result<Vec<bool>> {
        self.check_request(request)?;
        Ok((0..self.num_outputs)
            .map(|i| self.mask_bit(request, i))
            .collect())
    }

    /// Number of gates that fired for request `request`.
    pub fn firing_count(&self, request: usize) -> Result<u32> {
        self.check_request(request)?;
        Ok(self.firing_counts[request])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    fn mixed_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(3);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let z = Wire::input(2);
        let carry = b.add_gate([(x, 1), (y, 1), (z, 1)], 2).unwrap();
        let sum = b
            .add_gate([(x, 1), (y, 1), (z, 1), (carry, -2)], 1)
            .unwrap();
        let not = b.add_gate([(sum, -3)], 0).unwrap();
        let constish = b.add_gate([(Wire::One, 5), (not, -5)], 5).unwrap();
        b.mark_output(sum);
        b.mark_output(carry);
        b.mark_output(constish);
        b.mark_output(Wire::One);
        b.mark_output(Wire::input(2));
        b.build()
    }

    #[test]
    fn compiled_matches_legacy_layout() {
        let c = mixed_circuit();
        let cc = c.compile().unwrap();
        assert_eq!(cc.num_inputs(), 3);
        assert_eq!(cc.num_gates(), 4);
        assert_eq!(cc.num_edges(), c.num_edges());
        assert_eq!(cc.depth(), c.depth());
        assert_eq!(cc.max_fan_in(), c.max_fan_in());
        assert_eq!(cc.num_outputs(), 5);
    }

    #[test]
    fn scalar_parallel_and_batch_agree_exhaustively() {
        let c = mixed_circuit();
        let cc = c.compile().unwrap();
        let rows: Vec<[bool; 3]> = (0..8u32)
            .map(|bits| [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0])
            .collect();
        let batch = Batch64::pack(3, &rows).unwrap();
        let bev = cc.evaluate_batch64(&batch).unwrap();
        for (lane, row) in rows.iter().enumerate() {
            let scalar = cc.evaluate(row).unwrap();
            let par = cc
                .evaluate_parallel(
                    row,
                    EvalOptions {
                        parallel_threshold: 1,
                    },
                )
                .unwrap();
            assert_eq!(scalar, par, "lane {lane}");
            assert_eq!(scalar, bev.evaluation(lane).unwrap(), "lane {lane}");
            assert_eq!(
                scalar.firing_count(),
                bev.firing_count(lane).unwrap() as usize,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn extreme_weights_take_the_wide_path() {
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
        let c = b.build();
        let cc = c.compile().unwrap();
        assert_eq!(cc.gate_class(0), GateClass::General);
        // NAF would shorten MAX's 63 bit-edges but its digit reach exceeds
        // the plane budget just like binary: the gate stays wide, unrecoded.
        assert_eq!(cc.canonicalized_gates(), 0);
        let rows = [[false, false], [false, true], [true, false], [true, true]];
        let batch = Batch64::pack(2, &rows).unwrap();
        let bev = cc.evaluate_batch64(&batch).unwrap();
        for (lane, row) in rows.iter().enumerate() {
            let scalar = cc.evaluate(row).unwrap();
            assert_eq!(scalar, bev.evaluation(lane).unwrap(), "lane {lane}");
        }
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
        let rows = [[false, false], [false, true], [true, false], [true, true]];
        let batch = Batch64::pack(2, &rows).unwrap();
        let bev = cc.evaluate_batch64(&batch).unwrap();
        for (lane, row) in rows.iter().enumerate() {
            let direct = c.evaluate(row).unwrap();
            assert_eq!(direct, bev.evaluation(lane).unwrap(), "lane {lane}");
            assert_eq!(direct, cc.evaluate(row).unwrap(), "lane {lane}");
            assert_eq!(
                direct.firing_count(),
                bev.firing_count(lane).unwrap() as usize,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn batch_rejects_bad_shapes() {
        let c = mixed_circuit();
        let cc = c.compile().unwrap();
        let too_many: Vec<[bool; 3]> = (0..65).map(|_| [false; 3]).collect();
        assert!(matches!(
            Batch64::pack(3, &too_many),
            Err(CircuitError::BatchTooWide { rows: 65 })
        ));
        let wrong_width = Batch64::pack(2, &[[false, true]]).unwrap();
        assert!(matches!(
            cc.evaluate_batch64(&wrong_width),
            Err(CircuitError::InputLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        let empty: &[[bool; 3]] = &[];
        assert!(Batch64::pack(3, empty).is_err());
    }

    #[test]
    fn lane_accessors_are_bounds_checked() {
        let c = mixed_circuit();
        let cc = c.compile().unwrap();
        let batch = Batch64::pack(3, &[[true, false, true]]).unwrap();
        let bev = cc.evaluate_batch64(&batch).unwrap();
        assert!(bev.output(0, 0).is_ok());
        assert!(matches!(
            bev.output(1, 0),
            Err(CircuitError::LaneOutOfRange { lane: 1, lanes: 1 })
        ));
        assert!(matches!(
            bev.output(0, 99),
            Err(CircuitError::OutputIndexOutOfRange { index: 99, .. })
        ));
    }

    #[test]
    fn dangling_wire_fails_compilation() {
        // Assemble an invalid circuit directly through serde-style surgery:
        // builder forbids this, so synthesise via Circuit::from_parts.
        let mut b = CircuitBuilder::new(1);
        let g = b.add_gate([(Wire::input(0), 1)], 1).unwrap();
        b.mark_output(g);
        let mut c = b.build();
        // Point the output at a gate that does not exist.
        c = Circuit::from_parts(
            c.num_inputs(),
            c.gates().to_vec(),
            vec![Wire::gate(7)],
            (0..c.num_gates()).map(|g| c.gate_depth(g)).collect(),
        );
        assert!(matches!(
            c.compile(),
            Err(CircuitError::DanglingWire { .. })
        ));
    }

    #[test]
    fn negative_thresholds_and_constant_one_lanes() {
        let mut b = CircuitBuilder::new(1);
        let always = b.add_gate([(Wire::input(0), 1)], i64::MIN + 1).unwrap();
        let negate = b.add_gate([(Wire::One, -4), (always, 2)], -2).unwrap();
        b.mark_outputs([always, negate]);
        let cc = b.build().compile().unwrap();
        let rows = [[false], [true]];
        let batch = Batch64::pack(1, &rows).unwrap();
        let bev = cc.evaluate_batch64(&batch).unwrap();
        for (lane, row) in rows.iter().enumerate() {
            assert_eq!(
                cc.evaluate(row).unwrap(),
                bev.evaluation(lane).unwrap(),
                "lane {lane}"
            );
        }
    }
}
