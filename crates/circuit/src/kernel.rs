//! The unified width-generic bit-sliced kernel.
//!
//! One carry-save plane kernel serves every lane width: `W = 1` is the
//! classic 64-lane path behind [`CompiledCircuit::evaluate_batch64`], and
//! `W ∈ {2, 4, 8}` are the 128/256/512-lane wide paths behind
//! [`CompiledCircuit::evaluate_batch_wide`] (the duplicated per-width
//! implementations this module replaced lived in `compiled.rs` and
//! `wide.rs`). Every word-column of a plane is an independent instance of
//! the 64-lane kernel — carries never propagate between words — so lane `l`
//! of any width is bit-identical to the scalar evaluator on assignment `l`.
//!
//! The kernel body ([`CompiledCircuit::run_range_core`]) is generic over a
//! [`WordVec`]: the `W` word-columns of one plane are the lanes of one
//! vector value, so the same source compiles to portable `[u64; W]` loops
//! *and* to explicit SSE2/AVX2/AVX-512/NEON code. [`CompiledCircuit::run_range`]
//! dispatches per width on runtime CPU-feature detection (see `simd.rs`);
//! the portable instantiation is the fallback and the differential oracle.
//! Vector ripple loops run while *any* word-column still carries — finished
//! columns see no-op lane operations — so every arm is bit-identical.
//!
//! The kernel walks the compiled circuit's class *segments* (maximal runs of
//! equal [`GateClass`] in the internal `(depth, class)`-sorted gate order)
//! and dispatches once per segment instead of once per gate:
//!
//! * [`GateClass::Unit`] — all weights ±1: the gate's raw lane words are
//!   carry-save-added from plane 0, positives then negatives (the compiled
//!   edge order), with no bit-edge indirection at all;
//! * [`GateClass::Pow2`] — single-set-bit weights: exactly one shift-indexed
//!   plane addition per edge;
//! * [`GateClass::General`] — bit-edge decomposition (canonical signed-digit
//!   form where that is shorter; see `canon.rs`), with the cold per-lane
//!   `i128` fallback for gates whose weight reach exceeds the plane budget.
//!
//! ## Layer sharding
//!
//! Gates of one depth layer never read each other, so a pass may split a
//! layer across threads ([`CompiledCircuit::run_pass`]). Each layer big
//! enough to pay for a barrier (see [`ShardOptions`]) is cut into
//! plane-op-balanced chunks, a few per thread, which the threads claim in
//! order; each run of smaller layers is one chunk. A chunk starts only once
//! every chunk of the earlier phases has finished — the layer barrier — so
//! every slot a phase reads was written before it began, and every slot is
//! written by exactly one thread. Claiming chunks instead of owning a fixed
//! share keeps a thread the host deschedules from holding up the layer:
//! the others take its remaining chunks. Each thread counts firings in its
//! own stack planes; the pass sums them into per-lane counts at the end.
//! One thread is the plain single-thread pass — there is no second kernel
//! body.

use crate::compiled::{CompiledCircuit, GateClass, FIRING_PLANES, WIDE_GATE};
use crate::simd::{self, WordVec, Words};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How one bit-sliced batch pass is split across threads (see
/// [`CompiledCircuit::evaluate_rows_sharded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Threads the pass runs on, the calling thread included (`0` counts as
    /// `1`). With one thread the pass never spawns.
    pub threads: usize,
    /// Layers with fewer plane-ops than this run whole on the calling
    /// thread: splitting them saves less than the barrier costs.
    pub min_layer_plane_ops: u64,
}

impl ShardOptions {
    /// Default [`ShardOptions::min_layer_plane_ops`]: a layer barrier costs
    /// tens of microseconds, a few thousand plane-ops of kernel work, so a
    /// layer must be several times that before splitting it pays.
    pub const DEFAULT_MIN_LAYER_PLANE_OPS: u64 = 16_384;

    /// The single-thread pass.
    pub const SINGLE: ShardOptions = ShardOptions {
        threads: 1,
        min_layer_plane_ops: ShardOptions::DEFAULT_MIN_LAYER_PLANE_OPS,
    };

    /// A pass on `threads` threads with the default layer threshold.
    pub fn new(threads: usize) -> Self {
        ShardOptions {
            threads,
            ..ShardOptions::SINGLE
        }
    }
}

/// Chunks per thread a sharded layer is cut into: enough that a thread
/// descheduled mid-layer delays the layer by about one small chunk.
const CHUNKS_PER_THREAD: usize = 8;

/// One phase of a pass: a sharded layer cut into `chunks` chunks, or a run
/// of unsharded layers as a single chunk.
#[derive(Clone, Copy)]
struct Phase {
    /// Internal gate range.
    lo: usize,
    hi: usize,
    chunks: usize,
    sharded: bool,
}

/// The chunks of one pass, numbered in phase order: threads claim them from
/// `next`, and `done` counts the finished ones.
#[derive(Default)]
struct ChunkQueue {
    next: AtomicUsize,
    done: AtomicUsize,
}

impl ChunkQueue {
    /// Waits until `count` chunks have finished. Chunks are claimed in
    /// order and none starts before its phase's predecessors finish, so
    /// `done >= count` means exactly the first `count` chunks are done —
    /// and the `Acquire` load makes their slot writes visible.
    fn wait_done(&self, count: usize) {
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) < count {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Valid-lane mask for word `word` of a batch carrying `lanes` assignments.
#[inline]
pub(crate) fn word_mask(lanes: usize, word: usize) -> u64 {
    let lo = word * 64;
    if lanes >= lo + 64 {
        !0u64
    } else if lanes <= lo {
        0u64
    } else {
        (1u64 << (lanes - lo)) - 1
    }
}

/// The slot planes of one pass, shared by every thread through a raw
/// pointer.
///
/// Module invariant: a `SlotPlanes` is created only by
/// [`CompiledCircuit::run_pass`] from an exclusive borrow, and threads
/// touch it only while running a chunk: reads go below `readable`, which a
/// sharded layer's chunks set to the layer's first slot (every slot below
/// was written by a chunk that finished before this phase began, and no
/// chunk writes it during the phase), and writes go to the slots of the
/// chunk's own gates, which no other chunk reads or writes during the
/// phase. A run of unsharded layers is one chunk and its phase runs no
/// other. So no slot is ever accessed by two threads at once unless both
/// only read it — whatever the CSR arrays hold, since the bound is checked
/// on every read.
#[derive(Clone, Copy)]
struct SlotPlanes<'a, const W: usize> {
    ptr: *mut [u64; W],
    len: usize,
    /// Reads must stay below this slot (at most `len`).
    readable: usize,
    _borrow: PhantomData<&'a mut [[u64; W]]>,
}

// SAFETY: threads only touch the planes under the module invariant above —
// concurrent accesses to one slot are reads, and a phase's writes are
// ordered before the next phase's reads by the chunk queue's
// Release/Acquire `done` counter (or the scope join).
unsafe impl<const W: usize> Send for SlotPlanes<'_, W> {}
// SAFETY: same disjoint-writes argument as `Send` above.
unsafe impl<const W: usize> Sync for SlotPlanes<'_, W> {}

impl<'a, const W: usize> SlotPlanes<'a, W> {
    fn new(vals: &'a mut [[u64; W]]) -> Self {
        SlotPlanes {
            ptr: vals.as_mut_ptr(),
            len: vals.len(),
            readable: vals.len(),
            _borrow: PhantomData,
        }
    }

    /// The same planes with reads confined below slot `end`.
    fn readable_below(self, end: usize) -> Self {
        SlotPlanes {
            readable: end.min(self.len),
            ..self
        }
    }

    /// The same planes at width `B`, once `W == B` is established — the
    /// bridge between the const-generic `W` of the pass and the concrete
    /// widths the SIMD dispatch arms are written for.
    #[inline(always)]
    fn cast<const B: usize>(self) -> SlotPlanes<'a, B> {
        assert_eq!(W, B);
        SlotPlanes {
            ptr: self.ptr.cast(),
            len: self.len,
            readable: self.readable,
            _borrow: PhantomData,
        }
    }

    #[inline(always)]
    fn load<V: WordVec<W>>(self, slot: usize) -> V {
        assert!(slot < self.readable);
        // SAFETY: below `readable <= len` (checked above), so in bounds
        // and, by the module invariant, written by no thread this phase.
        V::load(unsafe { &*self.ptr.add(slot) })
    }

    #[inline(always)]
    fn word(self, slot: usize, word: usize) -> u64 {
        assert!(slot < self.readable);
        // SAFETY: as in `load`.
        unsafe { (*self.ptr.add(slot))[word] }
    }

    #[inline(always)]
    fn store<V: WordVec<W>>(self, slot: usize, value: V) {
        assert!(slot < self.len);
        // SAFETY: in bounds (checked above); by the module invariant this
        // slot belongs to the calling chunk's gates, which no other thread
        // reads or writes during the phase.
        value.store(unsafe { &mut *self.ptr.add(slot) });
    }
}

/// Ripple-adds `carry` into a bit-sliced counter starting at plane `i`:
/// all `W` word-columns advance together, looping while *any* still
/// carries (word-columns whose carry already died see no-op lane ops, so
/// the result is bit-identical to per-word ripple); amortised O(1) planes
/// touched per call.
#[inline(always)]
fn ripple_add<const W: usize, V: WordVec<W>>(
    planes: &mut [[u64; W]; 64],
    mut i: usize,
    mut carry: V,
) {
    while carry.any() {
        let a = V::load(&planes[i]);
        a.xor(carry).store(&mut planes[i]);
        carry = carry.and(a);
        i += 1;
    }
}

/// `S = POS - NEG - t` per lane over `p` planes, bit-sliced across all `W`
/// word-columns at once; the returned value has bit `l` of word `w` set iff
/// `S >= 0` for lane `64·w + l`.
#[inline(always)]
fn fired_planes<const W: usize, V: WordVec<W>>(
    pos: &[[u64; W]; 64],
    neg: &[[u64; W]; 64],
    p: usize,
    t: i64,
) -> V {
    let mut carry = V::ones(); // first +1 of the two two's-complement negations
    let mut carry2 = V::ones(); // second +1
    let mut sign = V::zero();
    for i in 0..p {
        let a = V::load(&pos[i]);
        let b = V::load(&neg[i]).not();
        let s1 = a.xor3(b, carry);
        carry = a.maj(b, carry);
        // Subtract the matching plane of the constant threshold.
        let tb = if (t >> i.min(63)) & 1 == 1 {
            V::zero()
        } else {
            V::ones()
        };
        sign = s1.xor3(tb, carry2);
        carry2 = s1.maj(tb, carry2);
    }
    sign.not()
}

/// Ripple-adds `carry` (already masked to valid lanes) into the bit-sliced
/// firing counter.
#[inline(always)]
fn count_firing<const W: usize, V: WordVec<W>>(firing: &mut [[u64; W]], mut carry: V) {
    let mut i = 0;
    while carry.any() {
        let a = V::load(&firing[i]);
        a.xor(carry).store(&mut firing[i]);
        carry = carry.and(a);
        i += 1;
    }
}

/// Reinterprets `&mut [[u64; A]]` as `&mut [[u64; B]]` once a width match
/// (`A == B`) has been established at runtime.
#[inline(always)]
fn cast_width<const A: usize, const B: usize>(v: &mut [[u64; A]]) -> &mut [[u64; B]] {
    assert_eq!(A, B);
    // SAFETY: A == B (checked above), so the element layouts are identical.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut [u64; B], v.len()) }
}

impl CompiledCircuit {
    /// Plane-ops one batch pass performs on internal gates `lo..hi`: raw
    /// edges of `Unit` gates, bit-edges of the rest.
    fn range_plane_ops(&self, lo: usize, hi: usize) -> usize {
        let first = self
            .segments
            .partition_point(|&(_, _, end)| end as usize <= lo);
        let mut ops = 0;
        for &(class, seg_lo, seg_hi) in &self.segments[first..] {
            let (a, b) = (lo.max(seg_lo as usize), hi.min(seg_hi as usize));
            if a >= b {
                break;
            }
            ops += match class {
                GateClass::Unit => self.offsets[b] - self.offsets[a],
                GateClass::Pow2 | GateClass::General => self.bit_offsets[b] - self.bit_offsets[a],
            } as usize;
        }
        ops
    }

    /// Plane-addition operations one bit-sliced batch pass performs on
    /// depth layer `d` (0-based) — the per-layer split of
    /// [`CompiledCircuit::class_plane_ops`], which decides whether a
    /// sharded pass splits the layer (see [`ShardOptions`]).
    pub fn layer_plane_ops(&self, d: usize) -> u64 {
        let (lo, hi) = self.layer_ranges[d];
        // lint:allow(narrowing-cast): usize → u64 never truncates on supported targets
        self.range_plane_ops(lo as usize, hi as usize) as u64
    }

    /// Whether a pass under `opts` splits depth layer `d` (0-based) across
    /// threads: it runs on more than one thread, and the layer has at least
    /// two gates and [`ShardOptions::min_layer_plane_ops`] plane-ops.
    pub fn shards_layer(&self, d: usize, opts: ShardOptions) -> bool {
        let (lo, hi) = self.layer_ranges[d];
        opts.threads > 1 && hi - lo >= 2 && self.layer_plane_ops(d) >= opts.min_layer_plane_ops
    }

    /// First gate of chunk `k` when the layer `lo..hi` is cut into
    /// `chunks` chunks of near-equal work (plane-ops plus one per gate, so
    /// edge-less gates still count). Chunks follow the internal order, so
    /// they are clipped against class segments only where the kernel
    /// already switches segment.
    fn shard_cut(&self, lo: usize, hi: usize, k: usize, chunks: usize) -> usize {
        if k == 0 {
            return lo;
        }
        if k >= chunks {
            return hi;
        }
        let cost = |g: usize| self.range_plane_ops(lo, g) + (g - lo);
        let target = cost(hi) * k / chunks;
        let (mut a, mut b) = (lo, hi);
        while a < b {
            let mid = a + (b - a) / 2;
            if cost(mid) < target {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        a
    }

    /// The phase starting at depth layer `d`, and the layer after it: the
    /// layer alone, cut into chunks, if `opts` shards it; else the run of
    /// unsharded layers from `d`, as one chunk.
    fn phase_from(&self, d: usize, opts: ShardOptions) -> (Phase, usize) {
        let lo = self.layer_ranges[d].0 as usize;
        if self.shards_layer(d, opts) {
            let hi = self.layer_ranges[d].1 as usize;
            let chunks = (opts.threads * CHUNKS_PER_THREAD).min(hi - lo);
            let phase = Phase {
                lo,
                hi,
                chunks,
                sharded: true,
            };
            return (phase, d + 1);
        }
        let mut end = d + 1;
        while end < self.layer_ranges.len() && !self.shards_layer(end, opts) {
            end += 1;
        }
        let phase = Phase {
            lo,
            hi: self.layer_ranges[end - 1].1 as usize,
            chunks: 1,
            sharded: false,
        };
        (phase, end)
    }

    /// One batch pass over `vals` (slot-indexed `[u64; W]` lane words,
    /// constant-one and inputs already packed), split across threads as
    /// `opts` says. Writes every gate slot (internal `(depth, class)` order —
    /// callers translate to original gate ids through the compiled
    /// permutation) and leaves exactly `lanes` per-lane firing counts in
    /// `counts`. Lanes at and beyond `lanes` hold unspecified values.
    ///
    /// Every thread, the calling one included, enters the kernel through
    /// the SIMD dispatch of [`CompiledCircuit::run_range`]: a spawned
    /// closure does not inherit a caller's `#[target_feature]`.
    pub(crate) fn run_pass<const W: usize>(
        &self,
        vals: &mut [[u64; W]],
        lanes: usize,
        opts: ShardOptions,
        counts: &mut Vec<u32>,
    ) {
        assert!(vals.len() >= self.len_slots());
        debug_assert!(lanes <= 64 * W);
        counts.clear();
        counts.resize(lanes, 0);
        let slots = SlotPlanes::new(vals);
        let queue = ChunkQueue::default();
        if !(0..self.layer_ranges.len()).any(|d| self.shards_layer(d, opts)) {
            let firing = self.run_chunks(slots, lanes, ShardOptions::SINGLE, &queue);
            add_firing_counts(&firing, lanes, counts);
            return;
        }
        std::thread::scope(|scope| {
            let queue = &queue;
            let workers: Vec<_> = (1..opts.threads)
                .map(|_| scope.spawn(move || self.run_chunks(slots, lanes, opts, queue)))
                .collect();
            let firing = self.run_chunks(slots, lanes, opts, queue);
            add_firing_counts(&firing, lanes, counts);
            for worker in workers {
                match worker.join() {
                    Ok(firing) => add_firing_counts(&firing, lanes, counts),
                    Err(panic) => resume_unwind(panic),
                }
            }
        });
    }

    /// One thread's share of a pass: claims chunks from `queue` in order
    /// until none is left, waiting before each until every chunk of the
    /// earlier phases is done. Returns the thread's firing planes.
    ///
    /// A panicking chunk still counts as done and the thread keeps claiming
    /// (skipping the work), so no sibling waits forever; the panic is
    /// re-raised once the queue is drained.
    fn run_chunks<const W: usize>(
        &self,
        slots: SlotPlanes<'_, W>,
        lanes: usize,
        opts: ShardOptions,
        queue: &ChunkQueue,
    ) -> [[u64; W]; FIRING_PLANES] {
        let mut firing = [[0u64; W]; FIRING_PLANES];
        let mut panic = None;
        // The phase holding the latest claim, its first chunk's number,
        // and the layer the next phase starts at; claims only grow, so the
        // cursor only moves forward.
        let mut phase: Option<Phase> = None;
        let mut first = 0;
        let mut next_layer = 0;
        'claim: loop {
            let chunk = queue.next.fetch_add(1, Ordering::Relaxed);
            let current = loop {
                if let Some(p) = phase {
                    if chunk < first + p.chunks {
                        break p;
                    }
                    first += p.chunks;
                }
                if next_layer == self.layer_ranges.len() {
                    break 'claim;
                }
                let (p, after) = self.phase_from(next_layer, opts);
                phase = Some(p);
                next_layer = after;
            };
            queue.wait_done(first);
            if panic.is_none() {
                let (lo, hi, readable) = if current.sharded {
                    let k = chunk - first;
                    (
                        self.shard_cut(current.lo, current.hi, k, current.chunks),
                        self.shard_cut(current.lo, current.hi, k + 1, current.chunks),
                        slots.readable_below(1 + self.num_inputs + current.lo),
                    )
                } else {
                    (current.lo, current.hi, slots)
                };
                if lo < hi {
                    let run = || self.run_range(readable, &mut firing, lanes, lo, hi);
                    panic = catch_unwind(AssertUnwindSafe(run)).err();
                }
            }
            queue.done.fetch_add(1, Ordering::Release);
        }
        if let Some(panic) = panic {
            resume_unwind(panic);
        }
        firing
    }

    /// The width-generic kernel entry: evaluates internal gates `lo..hi`
    /// over `slots` and accumulates per-lane firing counts into `firing`
    /// (`FIRING_PLANES` planes). Only valid for a chunk of
    /// [`CompiledCircuit::run_pass`] (see the [`SlotPlanes`] invariant).
    ///
    /// Dispatches on [`simd::active_level`]: the widths a detected vector
    /// ISA covers run the explicitly vectorized instantiations of
    /// [`CompiledCircuit::run_range_core`]; everything else (and the
    /// force-portable arm) runs the portable `[u64; W]` instantiation.
    /// All arms are bit-identical.
    fn run_range<const W: usize>(
        &self,
        slots: SlotPlanes<'_, W>,
        firing: &mut [[u64; W]],
        lanes: usize,
        lo: usize,
        hi: usize,
    ) {
        debug_assert!(firing.len() >= FIRING_PLANES);
        debug_assert!(lanes <= 64 * W);

        #[cfg(target_arch = "x86_64")]
        {
            let level = simd::active_level();
            use simd::SimdLevel;
            match (W, level) {
                (2, SimdLevel::Sse2 | SimdLevel::Avx2 | SimdLevel::Avx512) => {
                    // SSE2 is part of the x86_64 baseline: no runtime gate
                    // beyond the force-portable switch.
                    return self.run_range_core::<2, simd::Sse2>(
                        slots.cast(),
                        cast_width(firing),
                        lanes,
                        lo,
                        hi,
                    );
                }
                (4, SimdLevel::Avx2 | SimdLevel::Avx512) => {
                    // SAFETY: AVX2 presence established by `active_level`.
                    return unsafe {
                        self.run_range_avx2_w4(slots.cast(), cast_width(firing), lanes, lo, hi)
                    };
                }
                (4, SimdLevel::Sse2) => {
                    return self.run_range_core::<4, simd::Pair4<simd::Sse2>>(
                        slots.cast(),
                        cast_width(firing),
                        lanes,
                        lo,
                        hi,
                    );
                }
                (8, SimdLevel::Avx512) => {
                    // SAFETY: AVX-512F presence established by `active_level`.
                    return unsafe {
                        self.run_range_avx512_w8(slots.cast(), cast_width(firing), lanes, lo, hi)
                    };
                }
                (8, SimdLevel::Avx2) => {
                    // SAFETY: AVX2 presence established by `active_level`.
                    return unsafe {
                        self.run_range_avx2_w8(slots.cast(), cast_width(firing), lanes, lo, hi)
                    };
                }
                (8, SimdLevel::Sse2) => {
                    return self.run_range_core::<8, simd::Pair8<simd::Pair4<simd::Sse2>>>(
                        slots.cast(),
                        cast_width(firing),
                        lanes,
                        lo,
                        hi,
                    );
                }
                _ => {}
            }
        }

        #[cfg(target_arch = "aarch64")]
        {
            if simd::active_level() == simd::SimdLevel::Neon {
                // NEON is part of the aarch64 baseline.
                match W {
                    2 => {
                        return self.run_range_core::<2, simd::Neon>(
                            slots.cast(),
                            cast_width(firing),
                            lanes,
                            lo,
                            hi,
                        );
                    }
                    4 => {
                        return self.run_range_core::<4, simd::Pair4<simd::Neon>>(
                            slots.cast(),
                            cast_width(firing),
                            lanes,
                            lo,
                            hi,
                        );
                    }
                    8 => {
                        return self.run_range_core::<8, simd::Pair8<simd::Pair4<simd::Neon>>>(
                            slots.cast(),
                            cast_width(firing),
                            lanes,
                            lo,
                            hi,
                        );
                    }
                    _ => {}
                }
            }
        }

        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let _ = simd::active_level(); // keep detection warm off-ISA too

        self.run_range_core::<W, Words<W>>(slots, firing, lanes, lo, hi)
    }

    /// AVX2 instantiation for `W = 4` (256-lane passes).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers dispatch behind
    /// `is_x86_feature_detected!`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: `unsafe` here comes only from `#[target_feature]` — the body
    // performs no unsafe operation itself; callers dispatch behind the
    // runtime feature check documented above.
    unsafe fn run_range_avx2_w4(
        &self,
        slots: SlotPlanes<'_, 4>,
        firing: &mut [[u64; 4]],
        lanes: usize,
        lo: usize,
        hi: usize,
    ) {
        self.run_range_core::<4, simd::Avx2>(slots, firing, lanes, lo, hi)
    }

    /// AVX2-pair instantiation for `W = 8` (512-lane passes on AVX2-only
    /// hardware).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: `unsafe` here comes only from `#[target_feature]` — the body
    // performs no unsafe operation itself; callers dispatch behind the
    // runtime feature check documented above.
    unsafe fn run_range_avx2_w8(
        &self,
        slots: SlotPlanes<'_, 8>,
        firing: &mut [[u64; 8]],
        lanes: usize,
        lo: usize,
        hi: usize,
    ) {
        self.run_range_core::<8, simd::Pair8<simd::Avx2>>(slots, firing, lanes, lo, hi)
    }

    /// AVX-512F instantiation for `W = 8` (512-lane passes; `xor3`/`maj`
    /// collapse to `vpternlogq`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    // SAFETY: `unsafe` here comes only from `#[target_feature]` — the body
    // performs no unsafe operation itself; callers dispatch behind the
    // runtime feature check documented above.
    unsafe fn run_range_avx512_w8(
        &self,
        slots: SlotPlanes<'_, 8>,
        firing: &mut [[u64; 8]],
        lanes: usize,
        lo: usize,
        hi: usize,
    ) {
        self.run_range_core::<8, simd::Avx512>(slots, firing, lanes, lo, hi)
    }

    /// The kernel body, generic over the vector type carrying one plane's
    /// `W` word-columns, over the class segments clipped to gates `lo..hi`.
    /// `#[inline(always)]` so each `#[target_feature]` wrapper compiles its
    /// own fully vectorized copy.
    #[inline(always)]
    fn run_range_core<const W: usize, V: WordVec<W>>(
        &self,
        slots: SlotPlanes<'_, W>,
        firing: &mut [[u64; W]],
        lanes: usize,
        lo: usize,
        hi: usize,
    ) {
        let gate_base = 1 + self.num_inputs;
        let mut wmask = [0u64; W];
        for (w, m) in wmask.iter_mut().enumerate() {
            *m = word_mask(lanes, w);
        }
        let wmask = V::load(&wmask);
        // Per-gate carry-save accumulators for positive and negative weight
        // magnitudes, shared across every class arm.
        let mut pos = [[0u64; W]; 64];
        let mut neg = [[0u64; W]; 64];

        let first = self
            .segments
            .partition_point(|&(_, _, end)| end as usize <= lo);
        for &(class, seg_lo, seg_hi) in &self.segments[first..] {
            let (seg_lo, seg_hi) = (lo.max(seg_lo as usize), hi.min(seg_hi as usize));
            if seg_lo >= seg_hi {
                break;
            }
            match class {
                GateClass::Unit => {
                    for g in seg_lo..seg_hi {
                        let p = self.batch_planes[g] as usize;
                        pos[..p].fill([0u64; W]);
                        neg[..p].fill([0u64; W]);
                        let lo = self.offsets[g] as usize;
                        let hi = self.offsets[g + 1] as usize;
                        let split = lo + self.pos_counts[g] as usize;
                        // ±1 weights: each edge is one carry-save addition of
                        // the raw lane words from plane 0 — no bit-edges, no
                        // shift decode, no sign branch.
                        for e in lo..split {
                            ripple_add(&mut pos, 0, slots.load::<V>(self.wires[e] as usize));
                        }
                        for e in split..hi {
                            ripple_add(&mut neg, 0, slots.load::<V>(self.wires[e] as usize));
                        }
                        let t = self.thresholds[g];
                        let fired = fired_planes::<W, V>(&pos, &neg, p, t);
                        slots.store(gate_base + g, fired);
                        count_firing(firing, fired.and(wmask));
                    }
                }
                GateClass::Pow2 => {
                    for g in seg_lo..seg_hi {
                        // Single-set-bit weights: exactly one shift-indexed
                        // plane addition per edge.
                        let fired = self.fire_bit_edges::<W, V>(g, slots, &mut pos, &mut neg);
                        slots.store(gate_base + g, fired);
                        count_firing(firing, fired.and(wmask));
                    }
                }
                GateClass::General => {
                    for g in seg_lo..seg_hi {
                        let fired = if self.batch_planes[g] == WIDE_GATE {
                            V::load(&self.fire_wide_lanes(g, slots, lanes))
                        } else {
                            self.fire_bit_edges::<W, V>(g, slots, &mut pos, &mut neg)
                        };
                        slots.store(gate_base + g, fired);
                        count_firing(firing, fired.and(wmask));
                    }
                }
            }
        }
    }

    /// Accumulates one bit-edge gate (`Pow2`/`General`, plane budget holds):
    /// ripple-adds every bit-edge's lane words at its shift, then compares
    /// against the threshold.
    #[inline(always)]
    fn fire_bit_edges<const W: usize, V: WordVec<W>>(
        &self,
        g: usize,
        slots: SlotPlanes<'_, W>,
        pos: &mut [[u64; W]; 64],
        neg: &mut [[u64; W]; 64],
    ) -> V {
        let p = self.batch_planes[g] as usize;
        pos[..p].fill([0u64; W]);
        neg[..p].fill([0u64; W]);
        let lo = self.bit_offsets[g] as usize;
        let hi = self.bit_offsets[g + 1] as usize;
        for e in lo..hi {
            let mask = slots.load::<V>(self.bit_slots[e] as usize);
            let desc = self.bit_shifts[e];
            let planes_arr = if desc & 0x80 != 0 {
                &mut *neg
            } else {
                &mut *pos
            };
            let base = (desc & 0x3F) as usize;
            ripple_add(planes_arr, base, mask);
        }
        let t = self.thresholds[g];
        fired_planes::<W, V>(pos, neg, p, t)
    }

    /// Wide-gate fallback: evaluates each lane with an `i128` accumulator.
    /// Only reached when a gate's weight reach exceeds the plane budget
    /// (~2^61), which no paper construction does.
    #[cold]
    fn fire_wide_lanes<const W: usize>(
        &self,
        g: usize,
        slots: SlotPlanes<'_, W>,
        lanes: usize,
    ) -> [u64; W] {
        let lo = self.offsets[g] as usize;
        let hi = self.offsets[g + 1] as usize;
        let t = self.thresholds[g] as i128;
        let mut fired = [0u64; W];
        for l in 0..lanes {
            let (word, bit) = (l / 64, l % 64);
            let mut acc: i128 = 0;
            for e in lo..hi {
                if (slots.word(self.wires[e] as usize, word) >> bit) & 1 == 1 {
                    acc += self.weights[e] as i128;
                }
            }
            // lint:allow(narrowing-cast): a bool is exactly 0 or 1
            fired[word] |= ((acc >= t) as u64) << bit;
        }
        fired
    }
}

/// Adds the per-lane counts held in bit-sliced firing planes to `counts`
/// (one entry per valid lane).
fn add_firing_counts<const W: usize>(firing: &[[u64; W]], lanes: usize, counts: &mut [u32]) {
    for (k, plane) in firing.iter().enumerate().take(FIRING_PLANES) {
        for (w, &word) in plane.iter().enumerate() {
            let mut m = word & word_mask(lanes, w);
            while m != 0 {
                let l = w * 64 + m.trailing_zeros() as usize;
                counts[l] += 1 << k;
                m &= m - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, PlaneArena, Wire};

    /// Two 3-gate layers of ±1 majorities over 3 inputs.
    fn two_wide_layers() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(3);
        let inputs = [Wire::input(0), Wire::input(1), Wire::input(2)];
        let first: Vec<Wire> = (0..3)
            .map(|g| {
                b.add_gate([(inputs[g], 1), (inputs[(g + 1) % 3], 1)], 1)
                    .unwrap()
            })
            .collect();
        let second: Vec<Wire> = (0..3)
            .map(|g| {
                b.add_gate([(first[g], 1), (first[(g + 2) % 3], -1)], 0)
                    .unwrap()
            })
            .collect();
        b.mark_outputs(second);
        b.build().compile().unwrap()
    }

    #[test]
    fn shard_cuts_cover_each_layer_in_order() {
        let cc = two_wide_layers();
        for threads in 1..6 {
            for &(lo, hi) in &cc.layer_ranges {
                let (lo, hi) = (lo as usize, hi as usize);
                let cuts: Vec<usize> = (0..=threads)
                    .map(|k| cc.shard_cut(lo, hi, k, threads))
                    .collect();
                assert_eq!((cuts[0], cuts[threads]), (lo, hi));
                assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
            }
        }
    }

    #[test]
    fn kernel_sharded_pass_rejects_a_same_layer_read() {
        // A corrupted edge from one second-layer gate to another would race
        // with the chunk writing it; the sharded pass's read bound turns it
        // into a panic instead, while the serial pass (where the read is
        // merely out of order) still runs.
        let mut cc = two_wide_layers();
        let (lo, _) = cc.layer_ranges[1];
        let e = cc.offsets[lo as usize] as usize;
        cc.wires[e] = (1 + cc.num_inputs + lo as usize + 2) as u32;
        let rows = [[true, true, false]];
        let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut arena = PlaneArena::new();
        assert!(cc
            .evaluate_rows_sharded::<1>(&refs, &mut arena, ShardOptions::SINGLE)
            .is_ok());
        let sharded = ShardOptions {
            threads: 2,
            min_layer_plane_ops: 0,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cc.evaluate_rows_sharded::<1>(&refs, &mut arena, sharded)
                .map(|ev| ev.lanes())
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn kernel_shard_panic_propagates_without_deadlock() {
        // Point each gate in turn at a slot past the end: the panicking
        // thread must keep its siblings' chunks flowing and the
        // pass must re-raise the panic instead of hanging.
        let rows = [[true, false, true]; 5];
        let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
        let opts = ShardOptions {
            threads: 3,
            min_layer_plane_ops: 0,
        };
        for g in 0..two_wide_layers().num_gates() {
            let mut cc = two_wide_layers();
            let e = cc.offsets[g] as usize;
            cc.wires[e] = u32::MAX;
            let mut arena = PlaneArena::new();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cc.evaluate_rows_sharded::<1>(&refs, &mut arena, opts)
                    .map(|ev| ev.lanes())
            }));
            assert!(outcome.is_err(), "gate {g}: corrupt wire went unnoticed");
        }
    }
}
