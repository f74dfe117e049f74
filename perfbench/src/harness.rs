//! The workload-independent run: cold starts and closed-loop serving for
//! the end-to-end metrics, and the traced run for the per-layer metrics.

use crate::mem::{self, PeakTracker};
use crate::probe;
use crate::report::{median, quantile, trimmed_mean, Metrics};
use crate::tracer::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};
use tc_circuit::{verify_against, Circuit, CompiledCircuit, PaperBound, Severity};
use tc_runtime::{Runtime, TelemetrySummary};

/// Runtime counters over some serving, from `Runtime::telemetry()` deltas.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub calls: u64,
    pub requests: u64,
    pub groups: u64,
    pub padded_lanes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl Counts {
    /// Adds the counter growth from `before` to `after`.
    pub fn add_delta(&mut self, before: &TelemetrySummary, after: &TelemetrySummary) {
        self.requests += after.requests - before.requests;
        self.groups += after.groups - before.groups;
        self.padded_lanes += after.padded_lanes - before.padded_lanes;
        self.pool_hits += after.pool_hits - before.pool_hits;
        self.pool_misses += after.pool_misses - before.pool_misses;
    }
}

/// Wall time the backends account for in a serve of `span_ns` between two
/// telemetry snapshots (derived): the runtime sums `busy_ns` over its
/// workers, so the sum is divided by the workers that could run at once.
pub fn backend_wall_ns(
    before: &TelemetrySummary,
    after: &TelemetrySummary,
    workers: usize,
    span_ns: u64,
) -> u64 {
    let parallel = (after.groups - before.groups).clamp(1, workers.max(1) as u64);
    ((after.busy_ns - before.busy_ns) / parallel).min(span_ns)
}

/// Wrong answers in one call: every request of a call that errored or
/// answered the wrong number of requests counts.
pub fn mismatches<T: PartialEq>(expected: &[T], got: Option<&[T]>) -> usize {
    match got {
        Some(got) if got.len() == expected.len() => {
            expected.iter().zip(got).filter(|(e, g)| e != g).count()
        }
        _ => expected.len(),
    }
}

/// The runtime's worker count when built with the default options.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// What the client saw.
#[derive(Debug, Default)]
pub struct Tally {
    pub requests: u64,
    pub failed: u64,
    pub call_ns: Vec<u64>,
    /// Counters of the serving the traced calls did (traced runs only).
    pub counts: Counts,
    /// Decode time derived as the public end-to-end call minus encode and
    /// serve on the same rows (matmul; the others report `app.decode`).
    pub decode_derived_ns: Option<u64>,
    /// Requests answered and checked outside the timed calls.
    pub extra_requests: u64,
    pub extra_failed: u64,
}

impl Tally {
    /// Records one call of `n` requests of which `failed` were wrong or
    /// errored.
    pub fn call(&mut self, ns: u64, n: usize, failed: usize) {
        self.call_ns.push(ns);
        self.requests += n as u64;
        self.failed += failed as u64;
    }

    fn attempted(&self) -> u64 {
        self.requests + self.extra_requests
    }

    fn failed(&self) -> u64 {
        self.failed + self.extra_failed
    }

    fn requests_per_s(&self) -> f64 {
        let secs = self.call_ns.iter().sum::<u64>() as f64 / 1e9;
        self.requests as f64 / secs
    }

    fn call_ms(&self, q: f64) -> f64 {
        let ms: Vec<f64> = self.call_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        quantile(&ms, q)
    }
}

/// A workload: its circuit, its generated inputs, and its client.
pub trait Workload {
    type Inst;
    /// Cold starts per untraced run; `setup_s` is their median.
    fn cold_starts(&self) -> usize;
    /// The batch size the client's calls present to the tuner.
    fn tune_batch(&self) -> usize;
    /// The `construct` layer: builds (and, inside, compiles) the circuit.
    fn construct(&self) -> Result<Self::Inst, String>;
    fn source<'a>(&self, inst: &'a Self::Inst) -> &'a Circuit;
    fn compiled<'a>(&self, inst: &'a Self::Inst) -> &'a CompiledCircuit;
    fn bound<'a>(&self, inst: &'a Self::Inst) -> &'a PaperBound;
    fn runtime<'a>(&self, inst: &'a Self::Inst) -> &'a Runtime;
    /// The rows of the client's first call, as the program receives them.
    fn probe_rows(&self, inst: &Self::Inst) -> Result<Vec<Vec<bool>>, String>;
    /// How the client's groups are served (for the backend probe).
    fn serving(&self) -> probe::Serving;
    /// The closed-loop client: one call after another until `budget` has
    /// passed, at least one call. With a tracer each call is split into
    /// layer spans and its runtime counters go to `tally.counts`.
    fn serve(
        &self,
        inst: &Self::Inst,
        budget: Duration,
        tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> Result<(), String>;
}

/// What a run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub verify_errors: usize,
    pub metrics: Metrics,
}

fn verify<W: Workload>(w: &W, inst: &W::Inst) -> usize {
    let cc = w.compiled(inst);
    let report = verify_against(w.source(inst), cc);
    let certified = w.bound(inst).certify(cc);
    for finding in report.findings.iter().chain(&certified.findings) {
        if finding.severity == Severity::Error {
            eprintln!("perfbench: verify: {finding}");
        }
    }
    report.error_count() + certified.error_count()
}

/// The tuner's pick for the client's batch (cached by the warm-up call, so
/// no calibration runs again).
fn tuner_pick<W: Workload>(w: &W, inst: &W::Inst) -> Result<&'static str, String> {
    w.runtime(inst)
        .backend_for(w.compiled(inst), w.tune_batch())
        .map_err(|e| format!("backend_for: {e}"))
}

/// One cold start's set-up, serving and tuner decision.
struct ColdStart {
    setup_s: f64,
    calls: usize,
    requests_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    pick: &'static str,
}

/// The end-to-end run: `cold_starts` times build, verify, warm up (set-up)
/// and serve an equal share of `seconds`. `setup_s` is the median over the
/// cold starts; the serving figures are the mean of the cold starts'
/// figures without the lowest and highest. The tuner's pick of
/// every cold start and its regret (from one backend probe on the last
/// instance) go to standard error and to `log`.
pub fn run_untraced<W: Workload>(w: &W, seconds: f64, log: &Path) -> Result<Outcome, String> {
    let starts = w.cold_starts();
    let slice = Duration::from_secs_f64(seconds / starts as f64);
    let (mut attempted, mut failed) = (0, 0);
    let mut verify_errors = 0;
    let mut cold = Vec::with_capacity(starts);
    let mut probes = Vec::new();
    let mut peak = PeakTracker::default();
    for start in 0..starts {
        let t0 = Instant::now();
        let inst = w.construct()?;
        verify_errors += verify(w, &inst);
        let mut warm = Tally::default();
        w.serve(&inst, Duration::ZERO, None, &mut warm)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let mut served = Tally::default();
        w.serve(&inst, slice, None, &mut served)?;
        attempted += warm.attempted() + served.attempted();
        failed += warm.failed() + served.failed();
        cold.push(ColdStart {
            setup_s,
            calls: served.call_ns.len(),
            requests_per_s: served.requests_per_s(),
            p50_ms: served.call_ms(0.5),
            p90_ms: served.call_ms(0.9),
            pick: tuner_pick(w, &inst)?,
        });
        if start + 1 == starts {
            // The probe is not part of the served load: keep its memory
            // out of the reported peak.
            peak.fold_and_reset();
            probes = probe::backends(
                w.compiled(&inst),
                &w.probe_rows(&inst)?,
                w.tune_batch(),
                w.serving(),
                0.0,
            )?;
            drop(inst);
            mem::reset_peak();
        }
    }

    let mut record = String::new();
    for (i, c) in cold.iter().enumerate() {
        let regret = probe::regret(&probes, c.pick);
        eprintln!(
            "perfbench: cold start {}/{starts}: setup {:.3}s, {} calls, {:.0} requests/s, \
             p50 {:.3}ms, p90 {:.3}ms, tuner picked {}, regret {regret:.3}",
            i + 1,
            c.setup_s,
            c.calls,
            c.requests_per_s,
            c.p50_ms,
            c.p90_ms,
            c.pick,
        );
        record.push_str(&format!(
            "{{\"cold_start\": {i}, \"setup_s\": {:?}, \"calls\": {}, \"requests_per_s\": {:?}, \
             \"call_p50_ms\": {:?}, \"call_p90_ms\": {:?}, \"pick\": \"{}\", \"regret\": {regret:?}}}\n",
            c.setup_s, c.calls, c.requests_per_s, c.p50_ms, c.p90_ms, c.pick
        ));
    }
    if let Err(e) = write_file(log, &record) {
        eprintln!("perfbench: cannot write {}: {e}", log.display());
    }

    let per_start = |f: fn(&ColdStart) -> f64| cold.iter().map(f).collect::<Vec<f64>>();
    let mut m = Metrics::default();
    m.set("setup_s", median(&per_start(|c| c.setup_s)), "s");
    m.set(
        "requests_per_s",
        trimmed_mean(&per_start(|c| c.requests_per_s)),
        "1/s",
    );
    m.set("call_p50_ms", trimmed_mean(&per_start(|c| c.p50_ms)), "ms");
    m.set("call_p90_ms", trimmed_mean(&per_start(|c| c.p90_ms)), "ms");
    m.set("peak_rss_mb", mem::mib(peak.peak_bytes()), "MiB");
    m.set(
        "answered_frac",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        "frac",
    );
    Ok(Outcome {
        attempted,
        failed,
        verify_errors,
        metrics: m,
    })
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Alternations of untraced and traced serving in a traced run.
const TRACE_ROUNDS: usize = 4;

/// The traced run: one cold start with a span and a memory peak per
/// phase, `seconds` of serving split between untraced and traced slices,
/// then the kernel and backend probes; every per-layer metric.
pub fn run_traced<W: Workload>(w: &W, seconds: f64, spans: &Path) -> Result<Outcome, String> {
    let mut m = Metrics::default();

    mem::reset_peak();
    let t = Instant::now();
    let inst = w.construct()?;
    let construct_s = t.elapsed().as_secs_f64();
    m.set("construct.s", construct_s, "s");
    m.set("construct.peak_rss_mb", mem::mib(mem::peak_bytes()), "MiB");
    let cc = w.compiled(&inst);
    let edges = cc.num_edges() as f64;
    m.set("construct.gates", cc.num_gates() as f64, "count");
    m.set("construct.edges", edges, "count");
    m.set("construct.depth", f64::from(cc.depth()), "count");

    mem::reset_peak();
    let rss_before = mem::rss_bytes();
    let t = Instant::now();
    let again = w
        .source(&inst)
        .compile()
        .map_err(|e| format!("compile: {e}"))?;
    let compile_s = t.elapsed().as_secs_f64();
    let compile_peak = mem::peak_bytes();
    m.set("compile.s", compile_s, "s");
    m.set("compile.ns_per_edge", compile_s * 1e9 / edges, "ns");
    m.set("compile.peak_rss_mb", mem::mib(compile_peak), "MiB");
    m.set(
        "compile.bytes_per_edge",
        compile_peak.saturating_sub(rss_before) as f64 / edges,
        "B",
    );
    let [unit, pow2, general] = again.class_counts();
    m.set("compile.bit_edges", again.num_bit_edges() as f64, "count");
    m.set(
        "compile.canonicalized_gates",
        again.canonicalized_gates() as f64,
        "count",
    );
    m.set("compile.unit_gates", unit as f64, "count");
    m.set("compile.pow2_gates", pow2 as f64, "count");
    m.set("compile.general_gates", general as f64, "count");
    drop(again);

    mem::reset_peak();
    let t = Instant::now();
    let verify_errors = verify(w, &inst);
    let verify_s = t.elapsed().as_secs_f64();
    m.set("verify.s", verify_s, "s");
    m.set("verify.ns_per_edge", verify_s * 1e9 / edges, "ns");
    m.set("verify.errors", verify_errors as f64, "count");
    m.set("verify.peak_rss_mb", mem::mib(mem::peak_bytes()), "MiB");

    let t = Instant::now();
    let pick = tuner_pick(w, &inst)?;
    m.set("tuner.calibration_s", t.elapsed().as_secs_f64(), "s");

    let mut warm = Tally::default();
    w.serve(&inst, Duration::ZERO, None, &mut warm)?;
    // Untraced and traced serving alternate, so that drift in the host's
    // speed falls on both halves alike.
    let slice = Duration::from_secs_f64(seconds / (2 * TRACE_ROUNDS) as f64);
    let mut plain = Tally::default();
    let mut tracer = Tracer::default();
    let mut traced = Tally::default();
    mem::reset_peak();
    for _ in 0..TRACE_ROUNDS {
        w.serve(&inst, slice, None, &mut plain)?;
        w.serve(&inst, slice, Some(&mut tracer), &mut traced)?;
    }
    m.set("session.peak_rss_mb", mem::mib(mem::peak_bytes()), "MiB");

    let rows = w.probe_rows(&inst)?;
    let probes = probe::backends(cc, &rows, w.tune_batch(), w.serving(), 0.2)?;
    let picked = probes
        .iter()
        .find(|p| p.name == pick)
        .ok_or_else(|| format!("picked backend {pick} is not a standard backend"))?;
    m.set("tuner.pick_lanes", picked.lane_group as f64, "lanes");
    m.set("tuner.regret", probe::regret(&probes, pick), "ratio");
    eprintln!(
        "perfbench: tuner picked {pick} ({} lanes)",
        picked.lane_group
    );

    let (pass_ns, lanes) = probe::kernel(cc, &rows, picked.lane_group, 0.3)?;
    let w_words = (picked.lane_group / 64).max(1);
    m.set("kernel.pass_us", pass_ns / 1e3, "us");
    m.set(
        "kernel.edge_evals_per_s",
        edges * lanes as f64 / (pass_ns / 1e9),
        "1/s",
    );
    m.set(
        "kernel.plane_ops_per_pass",
        probe::plane_ops_per_pass(cc) as f64,
        "count",
    );
    m.set(
        "kernel.computed_bytes_per_pass",
        probe::computed_bytes_per_pass(cc, w_words) as f64,
        "B",
    );

    for p in &probes {
        m.set(
            format!("backend.{}.group_us", p.name),
            p.group_ns / 1e3,
            "us",
        );
    }
    let c = traced.counts;
    let lanes_evaluated = c.requests + c.padded_lanes;
    m.set(
        "backend.lane_fill",
        c.requests as f64 / lanes_evaluated.max(1) as f64,
        "ratio",
    );

    let self_ns = tracer.self_times();
    let layer_ns = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64;
    let rows_served = traced.requests.max(1) as f64;
    m.set(
        "backend.ns_per_row",
        layer_ns("backend") / rows_served,
        "ns",
    );
    m.set(
        "session.ns_per_row",
        layer_ns("session") / rows_served,
        "ns",
    );
    m.set(
        "session.groups_per_call",
        c.groups as f64 / c.calls.max(1) as f64,
        "count",
    );
    m.set(
        "session.padded_lanes",
        c.padded_lanes as f64 / c.calls.max(1) as f64,
        "lanes/call",
    );
    m.set(
        "session.pool_hit_ratio",
        c.pool_hits as f64 / (c.pool_hits + c.pool_misses).max(1) as f64,
        "ratio",
    );
    m.set(
        "app.encode_us_per_request",
        tracer.total_ns("app.encode") as f64 / 1e3 / rows_served,
        "us",
    );
    let decode_ns = traced
        .decode_derived_ns
        .unwrap_or_else(|| tracer.total_ns("app.decode"));
    m.set(
        "app.decode_us_per_request",
        decode_ns as f64 / 1e3 / rows_served,
        "us",
    );
    m.set(
        "trace.overhead_frac",
        1.0 - traced.requests_per_s() / plain.requests_per_s(),
        "frac",
    );
    let call_ns = tracer.total_ns("call") as f64;
    m.set(
        "trace.unattributed_frac",
        layer_ns("call") / call_ns,
        "frac",
    );

    if let Err(e) = tracer.write(spans) {
        eprintln!("perfbench: cannot write {}: {e}", spans.display());
    }
    drop(inst);

    Ok(Outcome {
        attempted: warm.attempted() + plain.attempted() + traced.attempted(),
        failed: warm.failed() + plain.failed() + traced.failed(),
        verify_errors,
        metrics: m,
    })
}
