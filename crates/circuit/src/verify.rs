//! Independent static verification of circuits and their compiled CSR form.
//!
//! The compile pipeline (`compiled.rs`) classifies, canonicalizes, renumbers
//! and lowers a [`Circuit`] in one tightly-coupled pass. Its correctness was
//! previously backed by sampled differential tests alone; this module adds a
//! *translation-validation* layer in the tradition of Pnueli/Necula: instead
//! of proving the compiler correct once, every compiled artifact is checked
//! against a set of machine-verifiable rules after the fact.
//!
//! Three families of rules live here:
//!
//! 1. **Structural invariants** ([`verify_compiled`]) — CSR well-formedness
//!    (monotone row offsets, in-bounds slot ids, no self or forward edges
//!    violating the layer schedule), the (depth, class)-contiguous internal
//!    renumbering with a bijective `perm`/`inv` pair, per-class segment
//!    tables exactly matching what the batch kernel dispatches, sum-reuse
//!    marks that hold exactly where a gate's edge list repeats its
//!    predecessor's, and plane-budget accounting reconciling the performed
//!    edge and bit-edge counts against the cost model's `class_plane_ops`.
//! 2. **Canonicalization certificates** ([`verify_against`]) — for every
//!    gate, the GCD factor and signed-digit recoding applied by `canon.rs`
//!    are re-derived *algebraically* in `i128` from the raw gate: the factor
//!    must reproduce every raw weight exactly, the factored weights must be
//!    coprime (maximality), the threshold must be the ceiling quotient, and
//!    each bit-edge run must sum back to its canonical weight. Together
//!    these prove output equivalence per gate — `Σwᵢyᵢ ≥ t` iff
//!    `Σ(wᵢ/g)yᵢ ≥ ⌈t/g⌉` for every 0/1 assignment `y`, because the weighted
//!    sums are integers — rather than equivalence on sampled inputs only.
//! 3. **Paper-bound certification** ([`PaperBound`]) — constructors attach
//!    closed-form depth/size bounds from the source paper's theorems, and
//!    [`PaperBound::certify`] asserts them against the measured artifact.
//!
//! Everything is reported through one typed [`VerifyReport`] shared with the
//! pre-compile checks of [`Circuit::validate`], so pre- and post-compile
//! findings speak the same [`FindingKind`]/[`Severity`] vocabulary.

use crate::canon;
use crate::compiled::{CompiledCircuit, GateClass, BATCH_LANES, WIDE_GATE};
use crate::{Circuit, Wire};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A violated invariant: the artifact must not be evaluated.
    Error,
    /// A quality observation (dead or constant gates); the circuit is valid.
    Advice,
}

/// The typed vocabulary of everything the verifier can report.
///
/// Each variant corresponds to exactly one rule; the mutation harness in the
/// test module proves each rule fires on a correspondingly corrupted IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A wire references a nonexistent input or a not-yet-defined gate.
    DanglingWire,
    /// A gate with no fan-in edges at all.
    EmptyFanIn,
    /// A CSR array has the wrong length or a wrong terminal value.
    CsrShape,
    /// Row offsets (`offsets` or `bit_offsets`) are not monotone.
    OffsetMonotonicity,
    /// A fan-in or bit-edge slot id is outside the slot space.
    WireBounds,
    /// A fan-in edge reads a gate in the same or a later layer (self or
    /// forward edge): the layer schedule would evaluate it too early.
    EdgeOrder,
    /// The non-negative-first edge split disagrees with `pos_counts`.
    PosCountSplit,
    /// `perm`/`inv` are not inverse bijections over the gate ids.
    Renumbering,
    /// Layer ranges do not partition the gates, or the depth-grouped
    /// schedule disagrees with the recorded per-gate depths.
    LayerSchedule,
    /// Gates inside a layer are not sorted by (class, original id), so the
    /// class segments the kernel dispatches would not be maximal runs.
    InternalOrder,
    /// The per-class segment table does not match the recomputed maximal
    /// same-class runs.
    SegmentTable,
    /// A gate's stored [`GateClass`] disagrees with reclassification from
    /// its compiled weights and plane budget.
    ClassLabel,
    /// A per-class census (`class_counts` or `class_counts_pre`) is wrong.
    ClassCensus,
    /// A gate's `batch_planes` entry disagrees with the plane requirement
    /// recomputed from its bit-edge reach and threshold.
    PlaneBudget,
    /// `class_plane_ops` or the per-gate `op_offsets` do not reconcile with
    /// the plane-ops a pass performs: the edge and bit-edge counts of every
    /// gate that does not reuse its predecessor's sum.
    PlaneOps,
    /// A gate's sum-reuse mark disagrees with the compile condition: same
    /// layer and class as the gate before it, neither on the wide path, and
    /// an identical edge list. A forged mark makes the kernel answer with
    /// another gate's sum.
    SumReuse,
    /// A gate's narrow (i64-safe) flag disagrees with its weight sums.
    NarrowFlag,
    /// An output slot is out of bounds or does not match the source wire.
    OutputSlot,
    /// The GCD rewrite certificate failed: no single integer factor maps
    /// the canonical weights back onto the raw weights, or the canonical
    /// weights are not coprime (the factoring was not maximal).
    GcdCertificate,
    /// The canonical threshold is not the ceiling quotient `⌈t/g⌉` of the
    /// raw threshold by the certified GCD factor.
    ThresholdCertificate,
    /// A bit-edge run does not reproduce the signed-digit decomposition of
    /// its canonical weight, or its digits do not sum back to the weight.
    BitEdgeCertificate,
    /// The canonicalized-gate counter disagrees with the recount.
    CanonCount,
    /// A compiled artifact disagrees with its source circuit (gate/input/
    /// edge counts, recomputed depths, or fan-in wiring).
    SourceMismatch,
    /// Measured depth violates the constructor's paper bound.
    DepthBound,
    /// Measured gate count violates the constructor's paper bound.
    GateBound,
    /// Measured edge count violates the constructor's paper bound.
    EdgeBound,
    /// A gate whose output is provably constant (advice).
    ConstantGate,
    /// A gate not reachable backwards from any designated output (advice).
    DeadGate,
}

impl FindingKind {
    /// Stable lowercase name used in rendered reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingKind::DanglingWire => "dangling-wire",
            FindingKind::EmptyFanIn => "empty-fan-in",
            FindingKind::CsrShape => "csr-shape",
            FindingKind::OffsetMonotonicity => "offset-monotonicity",
            FindingKind::WireBounds => "wire-bounds",
            FindingKind::EdgeOrder => "edge-order",
            FindingKind::PosCountSplit => "pos-count-split",
            FindingKind::Renumbering => "renumbering",
            FindingKind::LayerSchedule => "layer-schedule",
            FindingKind::InternalOrder => "internal-order",
            FindingKind::SegmentTable => "segment-table",
            FindingKind::ClassLabel => "class-label",
            FindingKind::ClassCensus => "class-census",
            FindingKind::PlaneBudget => "plane-budget",
            FindingKind::PlaneOps => "plane-ops",
            FindingKind::SumReuse => "sum-reuse",
            FindingKind::NarrowFlag => "narrow-flag",
            FindingKind::OutputSlot => "output-slot",
            FindingKind::GcdCertificate => "gcd-certificate",
            FindingKind::ThresholdCertificate => "threshold-certificate",
            FindingKind::BitEdgeCertificate => "bit-edge-certificate",
            FindingKind::CanonCount => "canon-count",
            FindingKind::SourceMismatch => "source-mismatch",
            FindingKind::DepthBound => "depth-bound",
            FindingKind::GateBound => "gate-bound",
            FindingKind::EdgeBound => "edge-bound",
            FindingKind::ConstantGate => "constant-gate",
            FindingKind::DeadGate => "dead-gate",
        }
    }
}

/// One verification finding: a rule, its severity, the gate it concerns
/// (original gate id, when applicable) and a human-readable message.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub kind: FindingKind,
    /// Whether this invalidates the artifact or is advisory.
    pub severity: Severity,
    /// Original gate id the finding concerns, if gate-specific.
    pub gate: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Advice => "advice",
        };
        match self.gate {
            Some(g) => write!(
                f,
                "{sev}[{}] gate {g}: {}",
                self.kind.as_str(),
                self.message
            ),
            None => write!(f, "{sev}[{}]: {}", self.kind.as_str(), self.message),
        }
    }
}

/// The result of verifying a circuit and/or its compiled form.
///
/// This is the shared report type of [`Circuit::validate`] (pre-compile),
/// [`verify_compiled`]/[`verify_against`] (post-compile) and
/// [`PaperBound::certify`]; all speak the same [`FindingKind`] vocabulary.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Every finding, in rule order.
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    fn error(&mut self, kind: FindingKind, gate: Option<usize>, message: String) {
        self.findings.push(Finding {
            kind,
            severity: Severity::Error,
            gate,
            message,
        });
    }

    fn advice(&mut self, kind: FindingKind, gate: Option<usize>, message: String) {
        self.findings.push(Finding {
            kind,
            severity: Severity::Advice,
            gate,
            message,
        });
    }

    /// `true` when no [`Severity::Error`] finding was recorded (advisory
    /// findings — constant or dead gates — do not make a circuit invalid).
    pub fn is_valid(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// `true` if any finding of `kind` was recorded.
    pub fn has(&self, kind: FindingKind) -> bool {
        self.findings.iter().any(|f| f.kind == kind)
    }

    /// Original ids of gates whose output is provably constant.
    pub fn constant_gates(&self) -> Vec<usize> {
        self.gates_of(FindingKind::ConstantGate)
    }

    /// Original ids of gates unreachable from every designated output.
    pub fn dead_gates(&self) -> Vec<usize> {
        self.gates_of(FindingKind::DeadGate)
    }

    fn gates_of(&self, kind: FindingKind) -> Vec<usize> {
        self.findings
            .iter()
            .filter(|f| f.kind == kind)
            .filter_map(|f| f.gate)
            .collect()
    }

    /// Appends every finding of `other` to this report.
    pub fn merge(&mut self, other: VerifyReport) {
        self.findings.extend(other.findings);
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "verified: no findings");
        }
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "{} finding(s), {} error(s)",
            self.findings.len(),
            self.error_count()
        )
    }
}

/// Planes so that POS, NEG and POS − NEG − t all fit a signed `planes`-bit
/// two's-complement integer, given the reach. Independent re-statement of
/// the compile-time budget (`compiled.rs` keeps its own copy on purpose:
/// the verifier must not share the code it checks).
fn planes_for(reach: i128) -> u8 {
    let needed = 128 - (reach + 1).leading_zeros() + 2;
    if (needed as usize) < BATCH_LANES {
        needed as u8
    } else {
        WIDE_GATE
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Whether internal gates `a` and `b` (offsets already validated) add the
/// identical edge list: `wires` + `pos_counts` for `Unit` gates, `bit_slots`
/// + `bit_shifts` otherwise.
fn same_edges(c: &CompiledCircuit, a: usize, b: usize) -> bool {
    let edges = |g: usize| c.offsets[g] as usize..c.offsets[g + 1] as usize;
    let bits = |g: usize| c.bit_offsets[g] as usize..c.bit_offsets[g + 1] as usize;
    match c.classes[b] {
        GateClass::Unit => {
            c.pos_counts[a] == c.pos_counts[b] && c.wires[edges(a)] == c.wires[edges(b)]
        }
        GateClass::Pow2 | GateClass::General => {
            c.bit_slots[bits(a)] == c.bit_slots[bits(b)]
                && c.bit_shifts[bits(a)] == c.bit_shifts[bits(b)]
        }
    }
}

fn slot_of(wire: Wire, num_inputs: usize, perm: &[u32]) -> Option<usize> {
    match wire {
        Wire::One => Some(0),
        Wire::Input(i) => Some(1 + i as usize),
        Wire::Gate(g) => perm.get(g as usize).map(|&p| 1 + num_inputs + p as usize),
    }
}

/// Verifies every structural invariant of a compiled circuit on its own —
/// no source [`Circuit`] required. See the module docs for the rule list.
///
/// The verifier never panics on corrupt input: shape violations are
/// recorded and dependent checks are skipped.
pub fn verify_compiled(c: &CompiledCircuit) -> VerifyReport {
    let mut r = VerifyReport::default();
    verify_compiled_into(c, &mut r);
    r
}

/// Returns `false` when the artifact is too structurally broken for the
/// per-gate cross-checks of [`verify_against`] to chase its indices.
fn verify_compiled_into(c: &CompiledCircuit, r: &mut VerifyReport) -> bool {
    let g_count = c.classes.len();
    let slots = 1 + c.num_inputs + g_count;

    // ── Array shapes. Everything after this section may index freely up to
    // `g_count`, but offset *values* are still validated before use.
    let shape_checks = [
        (c.offsets.len() == g_count + 1, "offsets length"),
        (c.bit_offsets.len() == g_count + 1, "bit_offsets length"),
        (c.wires.len() == c.weights.len(), "wires/weights parallel"),
        (
            c.bit_slots.len() == c.bit_shifts.len(),
            "bit_slots/bit_shifts parallel",
        ),
        (c.pos_counts.len() == g_count, "pos_counts length"),
        (c.thresholds.len() == g_count, "thresholds length"),
        (c.narrow.len() == g_count, "narrow length"),
        (c.batch_planes.len() == g_count, "batch_planes length"),
        (c.reuses_sum.len() == g_count, "reuses_sum length"),
        (c.op_offsets.len() == g_count + 1, "op_offsets length"),
        (c.depths.len() == g_count, "depths length"),
        (c.schedule.len() == g_count, "schedule length"),
        (c.perm.len() == g_count, "perm length"),
        (c.inv.len() == g_count, "inv length"),
    ];
    let mut shapes_ok = true;
    for (ok, what) in shape_checks {
        if !ok {
            r.error(FindingKind::CsrShape, None, format!("bad {what}"));
            shapes_ok = false;
        }
    }
    if !shapes_ok {
        return false;
    }
    if c.offsets.first() != Some(&0) || *c.offsets.last().unwrap() as usize != c.wires.len() {
        r.error(
            FindingKind::CsrShape,
            None,
            format!("offsets must run from 0 to wires.len()={}", c.wires.len()),
        );
        return false;
    }
    if c.bit_offsets.first() != Some(&0)
        || *c.bit_offsets.last().unwrap() as usize != c.bit_slots.len()
    {
        r.error(
            FindingKind::CsrShape,
            None,
            format!(
                "bit_offsets must run from 0 to bit_slots.len()={}",
                c.bit_slots.len()
            ),
        );
        return false;
    }

    // ── perm/inv bijection.
    let mut perm_ok = true;
    let mut seen = vec![false; g_count];
    for (internal, &orig) in c.inv.iter().enumerate() {
        let o = orig as usize;
        if o >= g_count || seen[o] {
            r.error(
                FindingKind::Renumbering,
                Some(o.min(g_count.saturating_sub(1))),
                format!("inv[{internal}]={o} is out of range or repeated"),
            );
            perm_ok = false;
            continue;
        }
        seen[o] = true;
        if c.perm[o] as usize != internal {
            r.error(
                FindingKind::Renumbering,
                Some(o),
                format!(
                    "perm[{o}]={} does not invert inv[{internal}]={o}",
                    c.perm[o]
                ),
            );
            perm_ok = false;
        }
    }

    // ── Layer ranges partition [0, g_count) and the schedule groups the
    // ORIGINAL ids by recorded depth, ascending inside each layer.
    let mut layers_ok = true;
    let mut cursor = 0u32;
    for (d, &(lo, hi)) in c.layer_ranges.iter().enumerate() {
        if lo != cursor || hi <= lo || hi as usize > g_count {
            r.error(
                FindingKind::LayerSchedule,
                None,
                format!("layer {d} range {lo}..{hi} does not continue the partition"),
            );
            layers_ok = false;
            break;
        }
        cursor = hi;
    }
    if layers_ok && cursor as usize != g_count {
        r.error(
            FindingKind::LayerSchedule,
            None,
            format!("layer ranges cover {cursor} of {g_count} gates"),
        );
        layers_ok = false;
    }
    if layers_ok {
        let mut sched_seen = vec![false; g_count];
        for (d, &(lo, hi)) in c.layer_ranges.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &orig in &c.schedule[lo as usize..hi as usize] {
                let o = orig as usize;
                if o >= g_count || sched_seen[o] {
                    r.error(
                        FindingKind::LayerSchedule,
                        None,
                        format!("schedule entry {o} out of range or repeated in layer {d}"),
                    );
                    layers_ok = false;
                    continue;
                }
                sched_seen[o] = true;
                if c.depths[o] as usize != d + 1 {
                    r.error(
                        FindingKind::LayerSchedule,
                        Some(o),
                        format!(
                            "scheduled in layer {d} but recorded depth is {}",
                            c.depths[o]
                        ),
                    );
                    layers_ok = false;
                }
                if let Some(p) = prev {
                    if orig <= p {
                        r.error(
                            FindingKind::LayerSchedule,
                            Some(o),
                            format!("layer {d} schedule not ascending ({p} then {orig})"),
                        );
                        layers_ok = false;
                    }
                }
                prev = Some(orig);
            }
        }
    }
    if !(perm_ok && layers_ok) {
        return false;
    }

    // Layer of each internal id, and the depth-major cross-check: internal
    // gate g in layer d must be an original gate of depth d + 1.
    let mut internal_layer = vec![0u32; g_count];
    for (d, &(lo, hi)) in c.layer_ranges.iter().enumerate() {
        // The index addresses two arrays (`internal_layer`, `c.inv`); a
        // range loop reads better than a zipped iterator chain here.
        #[allow(clippy::needless_range_loop)]
        for g in lo as usize..hi as usize {
            internal_layer[g] = d as u32;
            let orig = c.inv[g] as usize;
            if c.depths[orig] as usize != d + 1 {
                r.error(
                    FindingKind::LayerSchedule,
                    Some(orig),
                    format!(
                        "internal id {g} sits in layer {d} but has depth {}",
                        c.depths[orig]
                    ),
                );
            }
        }
        // Within a layer the internal order must be (class, original id)
        // ascending: that is what makes the class segments maximal runs.
        for g in lo as usize + 1..hi as usize {
            let a = (c.classes[g - 1].index(), c.inv[g - 1]);
            let b = (c.classes[g].index(), c.inv[g]);
            if a >= b {
                r.error(
                    FindingKind::InternalOrder,
                    Some(c.inv[g] as usize),
                    format!("layer {d} not sorted by (class, original id) at internal id {g}"),
                );
            }
        }
    }

    // ── Per-gate pass: offsets, edge bounds and ordering, pos split,
    // class label, plane budget, bit-edge reproduction, narrow flag.
    let mut class_counts = [0usize; 3];
    // Plane-ops each gate adds when it does not reuse a sum (`None` where
    // its offsets are broken).
    let mut gate_ops: Vec<Option<u64>> = vec![None; g_count];
    let mut dbuf: Vec<canon::Digit> = Vec::new();
    for g in 0..g_count {
        let orig = c.inv[g] as usize;
        let (lo, hi) = (c.offsets[g] as usize, c.offsets[g + 1] as usize);
        if lo > hi || hi > c.wires.len() {
            r.error(
                FindingKind::OffsetMonotonicity,
                Some(orig),
                format!("edge range {lo}..{hi} is not monotone/in-bounds"),
            );
            continue;
        }
        let (blo, bhi) = (c.bit_offsets[g] as usize, c.bit_offsets[g + 1] as usize);
        if blo > bhi || bhi > c.bit_slots.len() {
            r.error(
                FindingKind::OffsetMonotonicity,
                Some(orig),
                format!("bit-edge range {blo}..{bhi} is not monotone/in-bounds"),
            );
            continue;
        }
        let class = c.classes[g];
        class_counts[class.index()] += 1;
        gate_ops[g] = Some(match class {
            GateClass::Unit => hi - lo,
            GateClass::Pow2 | GateClass::General => bhi - blo,
        } as u64);

        let pos = c.pos_counts[g] as usize;
        if pos > hi - lo {
            r.error(
                FindingKind::PosCountSplit,
                Some(orig),
                format!("pos_counts={pos} exceeds fan-in {}", hi - lo),
            );
        }
        let (mut pos_sum, mut neg_sum) = (0i128, 0i128);
        let mut edges_ok = true;
        for e in lo..hi {
            let slot = c.wires[e] as usize;
            if slot >= slots {
                r.error(
                    FindingKind::WireBounds,
                    Some(orig),
                    format!("fan-in slot {slot} outside slot space {slots}"),
                );
                edges_ok = false;
                continue;
            }
            if slot > c.num_inputs {
                let p = slot - 1 - c.num_inputs;
                if internal_layer[p] >= internal_layer[g] {
                    r.error(
                        FindingKind::EdgeOrder,
                        Some(orig),
                        format!(
                            "reads internal gate {p} (layer {}) from layer {}",
                            internal_layer[p], internal_layer[g]
                        ),
                    );
                    edges_ok = false;
                }
            }
            let w = c.weights[e];
            if (e - lo < pos) != (w >= 0) {
                r.error(
                    FindingKind::PosCountSplit,
                    Some(orig),
                    format!(
                        "edge {} (weight {w}) on the wrong side of the split",
                        e - lo
                    ),
                );
            }
            if w >= 0 {
                pos_sum += w as i128;
            } else {
                neg_sum += -(w as i128);
            }
        }
        let narrow = pos_sum <= i64::MAX as i128 && neg_sum <= i64::MAX as i128;
        if c.narrow[g] != narrow {
            r.error(
                FindingKind::NarrowFlag,
                Some(orig),
                format!("narrow flag {} but weight sums say {narrow}", c.narrow[g]),
            );
        }

        // Reclassify from the compiled weights and the stored plane budget.
        let weights = &c.weights[lo..hi];
        if GateClass::classify(weights.iter().copied(), c.batch_planes[g]) != class {
            r.error(
                FindingKind::ClassLabel,
                Some(orig),
                format!("stored class {class:?} disagrees with reclassification"),
            );
        }

        // Reconstruct the expected bit-edge run: per weight, the CSD digits
        // where the whole gate stays on the narrow path, else plain binary —
        // mirroring the compile-time decision, but decided here from the
        // recomputed reach. Unit gates must span zero bit-edges.
        if !edges_ok {
            continue;
        }
        let t_abs = c.thresholds[g].unsigned_abs() as i128;
        let mut expected_csd: Vec<(u32, u8)> = Vec::new();
        let mut expected_bin: Vec<(u32, u8)> = Vec::new();
        let (mut csd_reach, mut bin_reach) = (0i128, 0i128);
        for e in lo..hi {
            let w = c.weights[e];
            let slot = c.wires[e];
            dbuf.clear();
            canon::weight_digits(w.unsigned_abs(), &mut dbuf);
            for &(k, dneg) in &dbuf {
                csd_reach += 1i128 << k;
                let sign = if (w < 0) ^ dneg { 0x80u8 } else { 0 };
                expected_csd.push((slot, k | sign));
            }
            dbuf.clear();
            canon::binary_digits(w.unsigned_abs(), &mut dbuf);
            for &(k, dneg) in &dbuf {
                bin_reach += 1i128 << k;
                let sign = if (w < 0) ^ dneg { 0x80u8 } else { 0 };
                expected_bin.push((slot, k | sign));
            }
        }
        let use_csd = planes_for(csd_reach + t_abs) != WIDE_GATE;
        let (expected, reach) = if use_csd {
            (&expected_csd, csd_reach)
        } else {
            (&expected_bin, bin_reach)
        };
        let planes = planes_for(reach + t_abs);
        if c.batch_planes[g] != planes {
            r.error(
                FindingKind::PlaneBudget,
                Some(orig),
                format!(
                    "batch_planes={} but recomputed reach needs {planes}",
                    c.batch_planes[g]
                ),
            );
        }

        if class == GateClass::Unit {
            if bhi != blo {
                r.error(
                    FindingKind::BitEdgeCertificate,
                    Some(orig),
                    format!("Unit gate spans {} bit-edges (must be 0)", bhi - blo),
                );
            }
        } else {
            let stored: Vec<(u32, u8)> = c.bit_slots[blo..bhi]
                .iter()
                .copied()
                .zip(c.bit_shifts[blo..bhi].iter().copied())
                .collect();
            if stored != *expected {
                r.error(
                    FindingKind::BitEdgeCertificate,
                    Some(orig),
                    format!(
                        "bit-edge run ({} edges) does not reproduce the {} decomposition",
                        stored.len(),
                        if use_csd { "signed-digit" } else { "binary" }
                    ),
                );
            } else {
                // Algebraic certificate, independent of how the digits were
                // produced: each edge's signed digits must sum back to its
                // canonical weight in i128.
                let mut cursor = blo;
                for e in lo..hi {
                    dbuf.clear();
                    let w = c.weights[e];
                    if use_csd {
                        canon::weight_digits(w.unsigned_abs(), &mut dbuf);
                    } else {
                        canon::binary_digits(w.unsigned_abs(), &mut dbuf);
                    }
                    let mut sum = 0i128;
                    for _ in 0..dbuf.len() {
                        let packed = c.bit_shifts[cursor];
                        let mag = 1i128 << (packed & 0x3f);
                        sum += if packed & 0x80 != 0 { -mag } else { mag };
                        cursor += 1;
                    }
                    if sum != w as i128 {
                        r.error(
                            FindingKind::BitEdgeCertificate,
                            Some(orig),
                            format!("bit-edge digits sum to {sum}, weight is {w}"),
                        );
                    }
                }
            }
        }
    }

    // ── Sum reuse and performed plane-ops. A gate may skip accumulation
    // only where the gate before it, in the same layer and class and off
    // the wide path, adds the identical edge list; the performed counts
    // leave exactly those gates out.
    let mut plane_ops = [0u64; 3];
    let mut op_offsets_ok = c.op_offsets[0] == 0;
    for g in 0..g_count {
        let Some(ops) = gate_ops[g] else { continue };
        let reuse = g > 0
            && gate_ops[g - 1].is_some()
            && internal_layer[g - 1] == internal_layer[g]
            && c.classes[g - 1] == c.classes[g]
            && c.batch_planes[g - 1] != WIDE_GATE
            && c.batch_planes[g] != WIDE_GATE
            && same_edges(c, g - 1, g);
        if c.reuses_sum[g] != reuse {
            r.error(
                FindingKind::SumReuse,
                Some(c.inv[g] as usize),
                format!(
                    "sum-reuse mark {} but the reuse condition says {reuse} (internal id {g})",
                    c.reuses_sum[g]
                ),
            );
        }
        let performed = if reuse { 0 } else { ops };
        plane_ops[c.classes[g].index()] += performed;
        op_offsets_ok &= c.op_offsets[g + 1]
            .checked_sub(c.op_offsets[g])
            .map(u64::from)
            == Some(performed);
    }
    if !op_offsets_ok {
        r.error(
            FindingKind::PlaneOps,
            None,
            "op_offsets do not step by each gate's performed plane-ops".to_string(),
        );
    }

    // ── Per-class census, plane-op reconciliation, segment table.
    if class_counts != c.class_counts {
        r.error(
            FindingKind::ClassCensus,
            None,
            format!(
                "class_counts {:?} != recount {class_counts:?}",
                c.class_counts
            ),
        );
    }
    if plane_ops != c.class_plane_ops {
        r.error(
            FindingKind::PlaneOps,
            None,
            format!(
                "class_plane_ops {:?} does not reconcile with performed edge/bit-edge counts {plane_ops:?}",
                c.class_plane_ops
            ),
        );
    }
    let mut segments: Vec<(GateClass, u32, u32)> = Vec::new();
    for (i, &class) in c.classes.iter().enumerate() {
        match segments.last_mut() {
            Some((cl, _, hi)) if *cl == class => *hi = (i + 1) as u32,
            _ => segments.push((class, i as u32, (i + 1) as u32)),
        }
    }
    if segments != c.segments {
        r.error(
            FindingKind::SegmentTable,
            None,
            format!(
                "segment table {:?} != recomputed maximal runs {segments:?}",
                c.segments
            ),
        );
    }

    // ── Outputs stay inside the slot space.
    for (i, &slot) in c.outputs.iter().enumerate() {
        if slot as usize >= slots {
            r.error(
                FindingKind::OutputSlot,
                None,
                format!("output {i} slot {slot} outside slot space {slots}"),
            );
        }
    }

    true
}

/// Verifies a compiled circuit *against its source*: all of
/// [`verify_compiled`] plus the canonicalization certificates (GCD factor,
/// ceiling-quotient threshold, signed-digit sums), the recomputed depth
/// schedule, the fan-in wiring and the pre-canonicalization class census.
pub fn verify_against(circuit: &Circuit, c: &CompiledCircuit) -> VerifyReport {
    let mut r = VerifyReport::default();
    let structural = verify_compiled_into(c, &mut r);

    let num_inputs = circuit.num_inputs();
    let g_count = circuit.num_gates();
    if c.num_inputs != num_inputs || c.classes.len() != g_count {
        r.error(
            FindingKind::SourceMismatch,
            None,
            format!(
                "compiled shape ({} inputs, {} gates) != source ({num_inputs} inputs, {g_count} gates)",
                c.num_inputs,
                c.classes.len()
            ),
        );
        return r;
    }
    if !structural {
        // Structural wreckage: the per-gate cross-checks below would chase
        // broken indices.
        return r;
    }

    // Recompute depths from the raw fan-ins, independently of `compiled.rs`.
    let mut depths = vec![0u32; g_count];
    for (idx, gate) in circuit.gates().iter().enumerate() {
        let mut d = 0u32;
        for &(wire, _) in gate.inputs() {
            if let Wire::Gate(p) = wire {
                if (p as usize) < idx {
                    d = d.max(depths[p as usize]);
                }
            }
        }
        depths[idx] = d + 1;
        if c.depths[idx] != depths[idx] {
            r.error(
                FindingKind::SourceMismatch,
                Some(idx),
                format!(
                    "recorded depth {} != depth {} recomputed from the source",
                    c.depths[idx], depths[idx]
                ),
            );
        }
    }
    if c.wires.len() != circuit.num_edges() {
        r.error(
            FindingKind::SourceMismatch,
            None,
            format!(
                "{} compiled edges != {} source edges",
                c.wires.len(),
                circuit.num_edges()
            ),
        );
        return r;
    }

    // ── Per-gate canonicalization certificates.
    let mut class_counts_pre = [0usize; 3];
    let mut canon_recount = 0usize;
    let mut dbuf: Vec<canon::Digit> = Vec::new();
    for (idx, gate) in circuit.gates().iter().enumerate() {
        let g = c.perm[idx] as usize;
        let (lo, hi) = (c.offsets[g] as usize, c.offsets[g + 1] as usize);
        if hi - lo != gate.fan_in() {
            r.error(
                FindingKind::SourceMismatch,
                Some(idx),
                format!(
                    "compiled fan-in {} != source fan-in {}",
                    hi - lo,
                    gate.fan_in()
                ),
            );
            continue;
        }

        // Pre-canonicalization census: classified from the raw weights with
        // the raw reach.
        let (mut raw_pos, mut raw_neg) = (0i128, 0i128);
        for &(_, w) in gate.inputs() {
            if w >= 0 {
                raw_pos += w as i128;
            } else {
                raw_neg += -(w as i128);
            }
        }
        let planes_pre = planes_for(raw_pos + raw_neg + gate.threshold().unsigned_abs() as i128);
        let class_pre = GateClass::classify(gate.inputs().iter().map(|&(_, w)| w), planes_pre);
        class_counts_pre[class_pre.index()] += 1;

        // The compiled edge order is the raw order with non-negative
        // weights first (a stable partition; GCD factoring preserves
        // signs). Pair each compiled edge with its raw edge.
        let ordered: Vec<(Wire, i64)> = gate
            .inputs()
            .iter()
            .filter(|&&(_, w)| w >= 0)
            .chain(gate.inputs().iter().filter(|&&(_, w)| w < 0))
            .copied()
            .collect();

        // Certified GCD factor: a single integer f ≥ 1 with raw = f·canon
        // on every edge, canonical weights coprime (maximality), threshold
        // the ceiling quotient. Output equivalence follows because for 0/1
        // inputs y, Σ raw·y = f·Σ canon·y ≥ t  ⟺  Σ canon·y ≥ ⌈t/f⌉ over
        // the integers.
        let mut factor: Option<i128> = None;
        let mut cert_ok = true;
        for (e, &(wire, raw_w)) in ordered.iter().enumerate() {
            let cw = c.weights[lo + e];
            let slot = slot_of(wire, num_inputs, &c.perm);
            if slot != Some(c.wires[lo + e] as usize) {
                r.error(
                    FindingKind::SourceMismatch,
                    Some(idx),
                    format!(
                        "edge {e} wired to slot {} instead of {wire:?}",
                        c.wires[lo + e]
                    ),
                );
                cert_ok = false;
                continue;
            }
            match (cw, raw_w) {
                (0, 0) => {}
                (0, _) | (_, 0) => {
                    r.error(
                        FindingKind::GcdCertificate,
                        Some(idx),
                        format!("edge {e}: raw weight {raw_w} vs canonical {cw} (zero mismatch)"),
                    );
                    cert_ok = false;
                }
                (cw, raw_w) => {
                    let (cw, raw_w) = (cw as i128, raw_w as i128);
                    if raw_w % cw != 0 || raw_w / cw < 1 {
                        r.error(
                            FindingKind::GcdCertificate,
                            Some(idx),
                            format!("edge {e}: no positive integer factor maps {cw} to {raw_w}"),
                        );
                        cert_ok = false;
                    } else {
                        let f = raw_w / cw;
                        if *factor.get_or_insert(f) != f {
                            r.error(
                                FindingKind::GcdCertificate,
                                Some(idx),
                                format!(
                                    "edge {e}: factor {f} disagrees with the gate factor {}",
                                    factor.unwrap()
                                ),
                            );
                            cert_ok = false;
                        }
                    }
                }
            }
        }
        let f = factor.unwrap_or(1);
        if cert_ok {
            let canon_gcd = c.weights[lo..hi]
                .iter()
                .fold(0u64, |acc, &w| gcd(acc, w.unsigned_abs()));
            if canon_gcd > 1 {
                r.error(
                    FindingKind::GcdCertificate,
                    Some(idx),
                    format!("canonical weights share a factor {canon_gcd}: factoring not maximal"),
                );
            }
            let rt = gate.threshold() as i128;
            let expect_ct = if f > 1 {
                rt.div_euclid(f) + i128::from(rt.rem_euclid(f) != 0)
            } else {
                rt
            };
            if c.thresholds[g] as i128 != expect_ct {
                r.error(
                    FindingKind::ThresholdCertificate,
                    Some(idx),
                    format!("threshold {} != ⌈{rt}/{f}⌉ = {expect_ct}", c.thresholds[g]),
                );
            }
        }

        // Recount canonicalized gates: a GCD rewrite happened, or the gate
        // is on the signed-digit path with at least one weight whose CSD
        // form is strictly shorter than its binary form.
        let t_abs = c.thresholds[g].unsigned_abs() as i128;
        let mut csd_reach = 0i128;
        let mut csd_shorter = false;
        for &w in &c.weights[lo..hi] {
            dbuf.clear();
            canon::weight_digits(w.unsigned_abs(), &mut dbuf);
            csd_shorter |= (dbuf.len() as u32) < w.unsigned_abs().count_ones();
            for &(k, _) in &dbuf {
                csd_reach += 1i128 << k;
            }
        }
        let use_csd = planes_for(csd_reach + t_abs) != WIDE_GATE;
        if f > 1 || (use_csd && csd_shorter) {
            canon_recount += 1;
        }
    }
    if class_counts_pre != c.class_counts_pre {
        r.error(
            FindingKind::ClassCensus,
            None,
            format!(
                "class_counts_pre {:?} != reclassified raw census {class_counts_pre:?}",
                c.class_counts_pre
            ),
        );
    }
    if canon_recount != c.canon_gates {
        r.error(
            FindingKind::CanonCount,
            None,
            format!(
                "canonicalized-gate counter {} != recount {canon_recount}",
                c.canon_gates
            ),
        );
    }

    // ── Outputs map back to the source output wires.
    if c.outputs.len() != circuit.outputs().len() {
        r.error(
            FindingKind::OutputSlot,
            None,
            format!(
                "{} compiled outputs != {} source outputs",
                c.outputs.len(),
                circuit.outputs().len()
            ),
        );
    } else {
        for (i, &wire) in circuit.outputs().iter().enumerate() {
            if slot_of(wire, num_inputs, &c.perm) != Some(c.outputs[i] as usize) {
                r.error(
                    FindingKind::OutputSlot,
                    None,
                    format!("output {i} slot {} does not encode {wire:?}", c.outputs[i]),
                );
            }
        }
    }

    r
}

/// The pre-compile checks behind [`Circuit::validate`]: raw-gate-list
/// structural errors, then — whenever the circuit lowers cleanly — the full
/// compiled verification plus the constant/dead-gate analyses.
pub(crate) fn validate_circuit(circuit: &Circuit) -> VerifyReport {
    let mut r = VerifyReport::default();
    let num_inputs = circuit.num_inputs();
    let num_gates = circuit.num_gates();

    for (idx, gate) in circuit.gates().iter().enumerate() {
        if gate.fan_in() == 0 {
            r.error(
                FindingKind::EmptyFanIn,
                Some(idx),
                "gate has no fan-in edges".to_string(),
            );
        }
        for &(wire, _) in gate.inputs() {
            let ok = match wire {
                Wire::Input(i) => (i as usize) < num_inputs,
                Wire::Gate(g) => (g as usize) < idx,
                Wire::One => true,
            };
            if !ok {
                r.error(
                    FindingKind::DanglingWire,
                    Some(idx),
                    format!("fan-in wire {wire:?} does not exist yet"),
                );
            }
        }
    }
    for &out in circuit.outputs() {
        let ok = match out {
            Wire::Input(i) => (i as usize) < num_inputs,
            Wire::Gate(g) => (g as usize) < num_gates,
            Wire::One => true,
        };
        if !ok {
            r.error(
                FindingKind::DanglingWire,
                None,
                format!("output wire {out:?} does not exist"),
            );
        }
    }

    match circuit.compile() {
        Ok(compiled) => {
            r.merge(verify_against(circuit, &compiled));
            for g in constant_gates_csr(&compiled) {
                r.advice(
                    FindingKind::ConstantGate,
                    Some(g),
                    "output is provably constant".to_string(),
                );
            }
            for g in dead_gates_csr(&compiled) {
                r.advice(
                    FindingKind::DeadGate,
                    Some(g),
                    "not reachable from any designated output".to_string(),
                );
            }
        }
        Err(_) => {
            // Invalid circuits keep the (slower) gate-list analyses so the
            // report stays complete.
            for (idx, gate) in circuit.gates().iter().enumerate() {
                if gate.is_constant() {
                    r.advice(
                        FindingKind::ConstantGate,
                        Some(idx),
                        "output is provably constant".to_string(),
                    );
                }
            }
            for g in dead_gates_list(circuit) {
                r.advice(
                    FindingKind::DeadGate,
                    Some(g),
                    "not reachable from any designated output".to_string(),
                );
            }
        }
    }
    r
}

/// Gates whose output is provably constant, computed from the CSR weights:
/// a gate is constant when even the most favourable input assignment cannot
/// cross (or avoid crossing) the threshold.
fn constant_gates_csr(compiled: &CompiledCircuit) -> Vec<usize> {
    (0..compiled.num_gates())
        .filter(|&g| {
            let (_, weights) = compiled.fan_in(g);
            let max_sum: i128 = weights.iter().filter(|&&w| w > 0).map(|&w| w as i128).sum();
            let min_sum: i128 = weights.iter().filter(|&&w| w < 0).map(|&w| w as i128).sum();
            let t = compiled.threshold(g) as i128;
            min_sum >= t || max_sum < t
        })
        .collect()
}

/// Gates not reachable (backwards) from any designated output, traversing
/// the compiled CSR adjacency. Slots are internally (depth, class)-sorted,
/// so every slot met during the walk is translated back to its ORIGINAL
/// gate id through [`CompiledCircuit::gate_of_slot`] before indexing.
fn dead_gates_csr(compiled: &CompiledCircuit) -> Vec<usize> {
    let n = compiled.num_gates();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = (0..compiled.num_outputs())
        .filter_map(|i| compiled.gate_of_slot(compiled.output_slot(i)))
        .collect();
    while let Some(g) = stack.pop() {
        if live[g] {
            continue;
        }
        live[g] = true;
        let (wires, _) = compiled.fan_in(g);
        for &slot in wires {
            if let Some(p) = compiled.gate_of_slot(slot as usize) {
                if !live[p] {
                    stack.push(p);
                }
            }
        }
    }
    (0..n).filter(|&g| !live[g]).collect()
}

/// Gates not reachable (backwards) from any designated output, on the raw
/// gate list (fallback for circuits the compiled engine rejects).
fn dead_gates_list(circuit: &Circuit) -> Vec<usize> {
    let n = circuit.num_gates();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = circuit
        .outputs()
        .iter()
        .filter_map(|w| w.as_gate())
        .filter(|&g| g < n)
        .collect();
    while let Some(g) = stack.pop() {
        if live[g] {
            continue;
        }
        live[g] = true;
        for &(wire, _) in circuit.gates()[g].inputs() {
            if let Some(p) = wire.as_gate() {
                if p < n && !live[p] {
                    stack.push(p);
                }
            }
        }
    }
    (0..n).filter(|&g| !live[g]).collect()
}

/// A closed-form bound on one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The measurement must equal this value exactly.
    Exact(u128),
    /// The measurement must not exceed this value.
    AtMost(u128),
}

impl Bound {
    /// Whether `measured` satisfies the bound.
    pub fn admits(self, measured: u128) -> bool {
        match self {
            Bound::Exact(v) => measured == v,
            Bound::AtMost(v) => measured <= v,
        }
    }

    /// The bound's numeric value (the target of `=` or `≤`).
    pub fn value(self) -> u128 {
        match self {
            Bound::Exact(v) | Bound::AtMost(v) => v,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Exact(v) => write!(f, "= {v}"),
            Bound::AtMost(v) => write!(f, "<= {v}"),
        }
    }
}

/// A constructor's closed-form paper bound: depth and gate count (and,
/// where the construction admits a clean formula, edge count), tied to the
/// theorem it instantiates.
///
/// Constructors in `tcmm-core` (and its dependents) expose `paper_bound()`
/// methods returning one of these; [`PaperBound::certify`] asserts the
/// bounds against the compiled artifact and reports violations with the
/// [`FindingKind::DepthBound`]/[`GateBound`](FindingKind::GateBound)/
/// [`EdgeBound`](FindingKind::EdgeBound) kinds.
#[derive(Debug, Clone)]
pub struct PaperBound {
    /// The constructor the bound describes (e.g. `TraceCircuit`).
    pub constructor: &'static str,
    /// The paper theorem the formula comes from (e.g. `Theorem 4.5`).
    pub theorem: &'static str,
    /// Human-readable geometry, e.g. `n=8, b=2, t=2`.
    pub geometry: String,
    /// Bound on circuit depth (layers of gates on the longest path).
    pub depth: Bound,
    /// Bound on gate count (the paper's *size*).
    pub gates: Bound,
    /// Bound on edge count (wiring cost), where a clean formula exists.
    pub edges: Option<Bound>,
}

impl PaperBound {
    /// Asserts the bound against a compiled artifact.
    pub fn certify(&self, compiled: &CompiledCircuit) -> VerifyReport {
        let mut r = VerifyReport::default();
        let ctx = format!("{} ({}, {})", self.constructor, self.theorem, self.geometry);
        let depth = compiled.depth() as u128;
        if !self.depth.admits(depth) {
            r.error(
                FindingKind::DepthBound,
                None,
                format!(
                    "{ctx}: measured depth {depth} violates bound {}",
                    self.depth
                ),
            );
        }
        let gates = compiled.num_gates() as u128;
        if !self.gates.admits(gates) {
            r.error(
                FindingKind::GateBound,
                None,
                format!(
                    "{ctx}: measured {gates} gates violates bound {}",
                    self.gates
                ),
            );
        }
        if let Some(edges) = self.edges {
            let measured = compiled.num_edges() as u128;
            if !edges.admits(measured) {
                r.error(
                    FindingKind::EdgeBound,
                    None,
                    format!("{ctx}: measured {measured} edges violates bound {edges}"),
                );
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, Wire};

    fn mixed_circuit() -> Circuit {
        // Unit, Pow2 and General gates across three layers, with a gate that
        // canonicalizes (GCD factor 3) and a multi-digit weight.
        let mut b = CircuitBuilder::new(3);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let z = Wire::input(2);
        let unit = b.add_gate([(x, 1), (y, -1), (z, 1)], 1).unwrap();
        let pow2 = b.add_gate([(x, 4), (y, -2)], 2).unwrap();
        let canon = b.add_gate([(x, 6), (y, 9), (unit, -3)], 7).unwrap();
        let gen = b.add_gate([(unit, 7), (pow2, -5), (canon, 1)], 3).unwrap();
        let top = b.add_gate([(gen, 1), (canon, 1)], 1).unwrap();
        b.mark_output(top);
        b.mark_output(Wire::input(2));
        b.build()
    }

    fn compiled() -> (Circuit, CompiledCircuit) {
        let c = mixed_circuit();
        let compiled = c.compile().unwrap();
        (c, compiled)
    }

    #[test]
    fn clean_compile_verifies() {
        let (c, compiled) = compiled();
        let r = verify_against(&c, &compiled);
        assert!(r.is_valid(), "{r}");
        assert!(verify_compiled(&compiled).is_valid());
    }

    #[test]
    fn wide_and_extreme_weight_circuits_verify() {
        // Coprime near-extreme weights survive GCD factoring, so the gate
        // genuinely exceeds the plane budget and takes the wide path.
        let mut b = CircuitBuilder::new(2);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let wide = b.add_gate([(x, i64::MAX), (y, i64::MAX - 2)], 1).unwrap();
        let top = b.add_gate([(wide, 1), (x, 1)], 1).unwrap();
        b.mark_output(top);
        let c = b.build();
        let compiled = c.compile().unwrap();
        assert_eq!(compiled.gate_class(0), GateClass::General);
        let r = verify_against(&c, &compiled);
        assert!(r.is_valid(), "{r}");
    }

    // ── Mutation harness: every corruption shape must be rejected with its
    // typed finding kind. The corruptions below poke pub(crate) fields the
    // way a miscompilation would.

    #[test]
    fn mutation_nonmonotone_offsets_are_caught() {
        let (_, mut m) = compiled();
        m.offsets[1] = m.offsets[2] + 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::OffsetMonotonicity), "{r}");
    }

    #[test]
    fn mutation_truncated_offsets_are_caught() {
        let (_, mut m) = compiled();
        m.offsets.pop();
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::CsrShape), "{r}");
    }

    #[test]
    fn mutation_out_of_bounds_wire_is_caught() {
        let (_, mut m) = compiled();
        let slots = 1 + m.num_inputs + m.classes.len();
        m.wires[0] = slots as u32 + 7;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::WireBounds), "{r}");
    }

    #[test]
    fn mutation_forward_edge_is_caught() {
        let (_, mut m) = compiled();
        // Rewire the first gate's first edge to the last gate's slot: a
        // forward reference the layer schedule would evaluate too early.
        let last_slot = (1 + m.num_inputs + m.classes.len() - 1) as u32;
        m.wires[0] = last_slot;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::EdgeOrder), "{r}");
    }

    #[test]
    fn mutation_swapped_permutation_is_caught() {
        let (_, mut m) = compiled();
        let mut perm = m.perm.to_vec();
        perm.swap(0, 1);
        m.perm = perm.into();
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::Renumbering), "{r}");
    }

    #[test]
    fn mutation_flipped_class_label_is_caught() {
        let (_, mut m) = compiled();
        let g = m
            .classes
            .iter()
            .position(|&c| c == GateClass::Unit)
            .unwrap();
        m.classes[g] = GateClass::General;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::ClassLabel), "{r}");
    }

    #[test]
    fn mutation_tampered_segment_table_is_caught() {
        let (_, mut m) = compiled();
        assert!(m.segments.len() >= 2, "fixture needs multiple segments");
        let (_, lo, _) = m.segments[0];
        let (cl1, _, hi1) = m.segments[1];
        m.segments[0] = (cl1, lo, hi1);
        m.segments.remove(1);
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::SegmentTable), "{r}");
    }

    #[test]
    fn mutation_wrong_plane_ops_are_caught() {
        let (_, mut m) = compiled();
        m.class_plane_ops[0] += 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::PlaneOps), "{r}");
    }

    /// One layer over inputs x, y, z: a Unit run `[x + y + z >= t]` for
    /// t = 1, 2, 3 (Lemma 3.1's threshold family), a Unit gate with other
    /// edges, a Pow2 run `[x + 2y >= t]` for t = 1, 3, and a wide gate
    /// whose twin right after it must not reuse its (plane-less) sum.
    fn reuse_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(3);
        let (x, y, z) = (Wire::input(0), Wire::input(1), Wire::input(2));
        let mut gates = Vec::new();
        for t in 1..=3 {
            gates.push(b.add_gate([(x, 1), (y, 1), (z, 1)], t).unwrap());
        }
        gates.push(b.add_gate([(x, 1), (y, 1)], 1).unwrap());
        for t in [1, 3] {
            gates.push(b.add_gate([(x, 1), (y, 2)], t).unwrap());
        }
        for t in [1, 2] {
            let wide = [(x, i64::MAX), (y, i64::MAX - 2)];
            gates.push(b.add_gate(wide, t).unwrap());
        }
        b.mark_outputs(gates);
        b.build()
    }

    /// Internal ids of the gates marked to reuse their predecessor's sum.
    fn marked(m: &CompiledCircuit) -> Vec<usize> {
        (0..m.reuses_sum.len())
            .filter(|&g| m.reuses_sum[g])
            .collect()
    }

    #[test]
    fn sum_reuse_marks_verify_and_count_performed_plane_ops() {
        let c = reuse_circuit();
        let m = c.compile().unwrap();
        let r = verify_against(&c, &m);
        assert!(r.is_valid(), "{r}");
        // Two repeats in the Unit run, one in the Pow2 run; the wide twins
        // keep no planes to share.
        assert_eq!(m.reused_sum_gates(), 3);
        assert_eq!(marked(&m), vec![1, 2, 5]);
        // Unit: 3 + 2 edges performed (the run's sum once); Pow2: 2.
        assert_eq!(m.class_plane_ops(), [5, 2, m.num_bit_edges() as u64 - 4]);
    }

    #[test]
    fn mutation_forged_sum_reuse_mark_is_caught() {
        let c = reuse_circuit();
        let mut m = c.compile().unwrap();
        // Internal gate 3 is the Unit gate over (x, y): its fan-in differs
        // from the run before it, so a mark would answer with x + y + z.
        assert!(!m.reuses_sum[3]);
        m.reuses_sum[3] = true;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::SumReuse), "{r}");
        // The same forgery on the wide twin.
        let mut m = c.compile().unwrap();
        let last = m.reuses_sum.len() - 1;
        m.reuses_sum[last] = true;
        assert!(verify_compiled(&m).has(FindingKind::SumReuse));
    }

    #[test]
    fn mutation_corrupted_edge_inside_a_reuse_run_is_caught() {
        let c = reuse_circuit();
        let mut m = c.compile().unwrap();
        // Internal gate 1 reuses gate 0's sum; the kernel never reads its
        // edges, so only the verifier can notice they no longer match.
        assert!(m.reuses_sum[1]);
        let e = m.offsets[1] as usize;
        m.wires[e] = 0;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::SumReuse), "{r}");
        // The same on a bit-edge of the Pow2 run.
        let mut m = c.compile().unwrap();
        assert!(m.reuses_sum[5]);
        let b = m.bit_offsets[5] as usize;
        m.bit_shifts[b] ^= 1;
        assert!(verify_compiled(&m).has(FindingKind::SumReuse));
    }

    #[test]
    fn mutation_plane_ops_counting_reused_sums_are_caught() {
        let c = reuse_circuit();
        let mut m = c.compile().unwrap();
        // Counting every gate's edges, as if no sum were reused, is the
        // pre-reuse accounting: it no longer reconciles.
        m.class_plane_ops[0] = m.offsets[4] as u64 - m.offsets[0] as u64;
        let r = verify_compiled(&m);
        assert!(r.has(FindingKind::PlaneOps), "{r}");
        assert!(!r.has(FindingKind::SumReuse), "{r}");
        let mut m = c.compile().unwrap();
        m.op_offsets[2] += 1;
        assert!(verify_compiled(&m).has(FindingKind::PlaneOps));
    }

    #[test]
    fn mutation_forged_threshold_certificate_is_caught() {
        let (c, mut m) = compiled();
        // Gate 2 GCD-factors [6, 9, -3]/3 with t: 7 -> ceil(7/3) = 3.
        // Forging the canonical threshold breaks the ceiling-quotient
        // certificate even though the structural invariants still hold.
        let g = m.perm[2] as usize;
        assert_eq!(m.thresholds[g], 3);
        m.thresholds[g] = 2;
        let r = verify_against(&c, &m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::ThresholdCertificate), "{r}");
    }

    #[test]
    fn mutation_forged_gcd_factor_is_caught() {
        let (c, mut m) = compiled();
        // Doubling one canonical weight of the factored gate makes the
        // per-edge factor inconsistent.
        let g = m.perm[2] as usize;
        let lo = m.offsets[g] as usize;
        m.weights[lo] *= 2;
        let r = verify_against(&c, &m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::GcdCertificate), "{r}");
    }

    #[test]
    fn mutation_corrupted_bit_digit_is_caught() {
        let (_, mut m) = compiled();
        assert!(!m.bit_shifts.is_empty());
        m.bit_shifts[0] ^= 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::BitEdgeCertificate), "{r}");
    }

    #[test]
    fn mutation_wrong_pos_split_is_caught() {
        let (_, mut m) = compiled();
        // The Unit gate [1, -1, 1] compiles with pos_counts = 2.
        let g = m
            .classes
            .iter()
            .position(|&c| c == GateClass::Unit)
            .unwrap();
        m.pos_counts[g] = 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::PosCountSplit), "{r}");
    }

    #[test]
    fn mutation_wrong_plane_budget_is_caught() {
        let (_, mut m) = compiled();
        m.batch_planes[0] += 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::PlaneBudget), "{r}");
    }

    #[test]
    fn mutation_flipped_narrow_flag_is_caught() {
        let (_, mut m) = compiled();
        m.narrow[0] = !m.narrow[0];
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::NarrowFlag), "{r}");
    }

    #[test]
    fn mutation_out_of_bounds_output_is_caught() {
        let (_, mut m) = compiled();
        m.outputs[0] = u32::MAX;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::OutputSlot), "{r}");
    }

    #[test]
    fn mutation_wrong_depth_record_is_caught() {
        let (c, mut m) = compiled();
        m.depths[4] += 1;
        // The layer schedule no longer matches the recorded depth...
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::LayerSchedule), "{r}");
        // ...and the source cross-check rejects the record as well.
        let r = verify_against(&c, &m);
        assert!(!r.is_valid());
    }

    // ── Paper-bound certification plumbing.

    #[test]
    fn paper_bounds_certify_and_reject() {
        let (_, m) = compiled();
        let good = PaperBound {
            constructor: "mixed_circuit",
            theorem: "fixture",
            geometry: "n=3".to_string(),
            depth: Bound::Exact(m.depth() as u128),
            gates: Bound::AtMost(m.num_gates() as u128),
            edges: Some(Bound::Exact(m.num_edges() as u128)),
        };
        assert!(good.certify(&m).is_valid());

        let bad = PaperBound {
            depth: Bound::Exact(m.depth() as u128 + 1),
            gates: Bound::AtMost(m.num_gates() as u128 - 1),
            edges: Some(Bound::AtMost(0)),
            ..good
        };
        let r = bad.certify(&m);
        assert!(r.has(FindingKind::DepthBound));
        assert!(r.has(FindingKind::GateBound));
        assert!(r.has(FindingKind::EdgeBound));
        assert_eq!(r.error_count(), 3);
    }

    // ── Migrated `Circuit::validate` behaviour (the old ValidationReport).

    #[test]
    fn builder_output_is_valid() {
        let mut b = CircuitBuilder::new(2);
        let g = b
            .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 1)
            .unwrap();
        b.mark_output(g);
        let report = b.build().validate();
        assert!(report.is_valid());
        assert!(report.dead_gates().is_empty());
        assert!(report.constant_gates().is_empty());
    }

    #[test]
    fn detects_dead_gates() {
        let mut b = CircuitBuilder::new(2);
        let used = b.add_gate([(Wire::input(0), 1)], 1).unwrap();
        let _unused = b.add_gate([(Wire::input(1), 1)], 1).unwrap();
        b.mark_output(used);
        let report = b.build().validate();
        assert!(report.is_valid());
        assert_eq!(report.dead_gates(), vec![1]);
    }

    #[test]
    fn detects_constant_gates() {
        let mut b = CircuitBuilder::new(1);
        let g = b.add_gate([(Wire::input(0), 1)], 5).unwrap(); // never fires
        b.mark_output(g);
        let report = b.build().validate();
        assert!(report.is_valid());
        assert_eq!(report.constant_gates(), vec![0]);
    }

    #[test]
    fn dead_gate_analysis_survives_class_renumbering() {
        // Gate 0 is General-class (multi-bit weight) and the designated
        // output; gate 1 is Unit-class and dead. The internal (depth, class)
        // sort orders gate 1 before gate 0, so any id-space mixup between
        // internal slots and original ids would report gate 0 dead and
        // gate 1 live.
        let mut b = CircuitBuilder::new(2);
        let live = b.add_gate([(Wire::input(0), 3)], 2).unwrap();
        let _dead = b.add_gate([(Wire::input(1), 1)], 1).unwrap();
        b.mark_output(live);
        let report = b.build().validate();
        assert!(report.is_valid());
        assert_eq!(report.dead_gates(), vec![1]);

        // Same shape one layer deeper: liveness must flow through the
        // permuted fan-in slots, not raw slot arithmetic.
        let mut b = CircuitBuilder::new(2);
        let keep = b.add_gate([(Wire::input(0), 3)], 2).unwrap();
        let drop = b.add_gate([(Wire::input(1), 1)], 1).unwrap();
        let top = b.add_gate([(keep, 5), (Wire::input(1), 1)], 2).unwrap();
        let _ = drop;
        b.mark_output(top);
        let report = b.build().validate();
        assert_eq!(report.dead_gates(), vec![1]);
    }

    #[test]
    fn transitive_liveness_through_intermediate_gates() {
        let mut b = CircuitBuilder::new(1);
        let g0 = b.add_gate([(Wire::input(0), 1)], 1).unwrap();
        let g1 = b.add_gate([(g0, 1)], 1).unwrap();
        let g2 = b.add_gate([(g1, 1)], 1).unwrap();
        b.mark_output(g2);
        let report = b.build().validate();
        assert!(report.dead_gates().is_empty());
    }

    #[test]
    fn output_referencing_input_is_valid() {
        let mut b = CircuitBuilder::new(1);
        b.mark_output(Wire::input(0));
        assert!(b.build().validate().is_valid());
    }

    #[test]
    fn report_renders_findings() {
        let (_, mut m) = compiled();
        m.class_plane_ops[1] += 3;
        let r = verify_compiled(&m);
        let rendered = format!("{r}");
        assert!(rendered.contains("error[plane-ops]"), "{rendered}");
        assert!(rendered.contains("error(s)"), "{rendered}");
    }
}
