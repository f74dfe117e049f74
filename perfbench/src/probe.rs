//! Layer probes run from outside the program on a workload's own rows:
//! one lane group per standard backend (`backend` layer, and the tuner's
//! regret), and the bit-sliced kernel on its own (`kernel` layer).

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;
use tc_circuit::{CompiledCircuit, PlaneArena};
use tc_runtime::{BackendRegistry, Detail};

/// One backend's measured group time on the workload's rows.
#[derive(Debug, Clone)]
pub struct BackendProbe {
    pub name: &'static str,
    pub lane_group: usize,
    /// Median wall time of one `eval_group` call, in nanoseconds.
    pub group_ns: f64,
    /// `group_ns` times the groups needed for the tuned batch: the time
    /// this backend would spend on one client call.
    pub batch_ns: f64,
}

/// Repeats `f` until at least `min_reps` runs and `min_s` seconds have
/// passed (or `max_reps` runs), returning each run's seconds.
fn time_reps(
    min_s: f64,
    min_reps: usize,
    max_reps: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max_reps
        && (samples.len() < min_reps || start.elapsed().as_secs_f64() < min_s)
    {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(samples)
}

/// How the workload's client has its groups served.
#[derive(Debug, Clone, Copy)]
pub struct Serving {
    /// The response detail the client asks for.
    pub detail: Detail,
    /// Whether every client call runs in a fresh session, whose worker
    /// starts with an empty `PlaneArena` and no recycled responses (the
    /// materialising batch calls); a long-lived session's worker keeps both.
    pub fresh_arena: bool,
}

/// Times one lane group of every standard backend on the first rows of
/// `rows` the way the workload's client has them served, after one
/// untimed warm-up group each.
pub fn backends(
    cc: &CompiledCircuit,
    rows: &[Vec<bool>],
    batch: usize,
    serving: Serving,
    min_s: f64,
) -> Result<Vec<BackendProbe>, String> {
    let registry = BackendRegistry::standard();
    let mut warm = (PlaneArena::new(), Vec::new());
    let mut out = Vec::new();
    for backend in registry.backends() {
        let caps = backend.caps();
        let group = caps.lane_group.min(rows.len()).max(1);
        let refs: Vec<&[bool]> = rows[..group].iter().map(Vec::as_slice).collect();
        let mut eval = || {
            let mut fresh = (PlaneArena::new(), Vec::new());
            let (arena, responses) = if serving.fresh_arena {
                &mut fresh
            } else {
                &mut warm
            };
            backend
                .eval_group(cc, &refs, serving.detail, arena, responses)
                .map_err(|e| format!("{} eval_group: {e}", caps.name))
        };
        eval()?;
        let samples = time_reps(min_s, 1, 10_000, &mut eval)?;
        let group_ns = median(&samples) * 1e9;
        out.push(BackendProbe {
            name: caps.name,
            lane_group: caps.lane_group,
            group_ns,
            batch_ns: group_ns * batch.max(1).div_ceil(caps.lane_group) as f64,
        });
    }
    Ok(out)
}

/// The picked backend's per-call time over the fastest standard backend's
/// (1 = the tuner picked the fastest).
pub fn regret(probes: &[BackendProbe], picked: &str) -> f64 {
    let best = probes
        .iter()
        .map(|p| p.batch_ns)
        .fold(f64::INFINITY, f64::min);
    probes
        .iter()
        .find(|p| p.name == picked)
        .map_or(f64::NAN, |p| p.batch_ns / best)
}

fn kernel_pass<const W: usize>(
    cc: &CompiledCircuit,
    rows: &[Vec<bool>],
    min_s: f64,
) -> Result<(f64, usize), String> {
    let lanes = rows.len().min(64 * W);
    let refs: Vec<&[bool]> = rows[..lanes].iter().map(Vec::as_slice).collect();
    let mut arena = PlaneArena::new();
    let mut pass = || {
        let ev = cc
            .evaluate_rows_arena::<W>(black_box(&refs), &mut arena)
            .map_err(|e| format!("evaluate_rows_arena: {e}"))?;
        black_box(ev.firing_counts());
        Ok(())
    };
    pass()?;
    let samples = time_reps(min_s, 5, 100_000, pass)?;
    Ok((median(&samples) * 1e9, lanes))
}

/// Median nanoseconds of one `evaluate_rows_arena::<W>` pass over the
/// first `64·W` rows (W = `lane_group / 64`, at least 1), and the rows used.
pub fn kernel(
    cc: &CompiledCircuit,
    rows: &[Vec<bool>],
    lane_group: usize,
    min_s: f64,
) -> Result<(f64, usize), String> {
    match lane_group / 64 {
        8 => kernel_pass::<8>(cc, rows, min_s),
        4 => kernel_pass::<4>(cc, rows, min_s),
        2 => kernel_pass::<2>(cc, rows, min_s),
        _ => kernel_pass::<1>(cc, rows, min_s),
    }
}

/// Plane additions one bit-sliced pass performs (`class_plane_ops`
/// summed): a count computed from the compiled form, not measured.
pub fn plane_ops_per_pass(cc: &CompiledCircuit) -> u64 {
    cc.class_plane_ops().iter().sum()
}

/// Bytes one pass of width `W` touches by a traffic model computed from
/// array sizes, not measured: every plane addition reads an `8·W`-byte
/// source plane plus its index (a 4-byte wire for `Unit`, a 4-byte slot
/// and 1-byte shift for bit-edges), every gate reads its threshold and
/// offset (12 bytes) and writes its `8·W`-byte plane, and the constant and
/// input planes are written once.
pub fn computed_bytes_per_pass(cc: &CompiledCircuit, w: usize) -> u64 {
    let [unit, pow2, general] = cc.class_plane_ops();
    let plane = 8 * w as u64;
    unit * (plane + 4)
        + (pow2 + general) * (plane + 5)
        + cc.num_gates() as u64 * (plane + 12)
        + (1 + cc.num_inputs() as u64) * plane
}
