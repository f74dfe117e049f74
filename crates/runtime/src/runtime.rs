//! The serving facade: batch, stream, and session submission against any
//! compiled circuit, with auto-tuned backend choice and scheduler sharding.

use crate::backend::{BackendRegistry, Detail, EvalBackend, Response};
use crate::ordered::{LockRank, OrderedMutex};
use crate::scheduler::AdmissionPolicy;
use crate::session::{InlineScratch, SessionOptions, SessionShared, StreamSession};
use crate::telemetry::{Telemetry, TelemetrySummary};
use crate::tuner::{rank_by_model, AutoTuner, TunerPolicy};
use crate::{lock_tolerant, Result, TenantId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;
use tc_circuit::CompiledCircuit;

/// Per-call tunables for the materialising [`Runtime::serve_batch_with`] /
/// [`Runtime::serve_stream_with`] wrappers: the response [`Detail`] level
/// plus the tenant tag and scheduling weight the call's requests are
/// accounted (and queued) under.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// How much of each evaluation every response carries.
    pub detail: Detail,
    /// The tenant this call's requests belong to (telemetry key and
    /// scheduler queue identity).
    pub tenant: TenantId,
    /// The tenant's scheduling weight (clamped to ≥ 1).
    pub weight: u32,
    /// Per-request deadline for this call's rows, measured from
    /// acceptance: rows whose remaining budget no longer covers the eval
    /// estimate when a worker reaches them are shed with
    /// [`crate::RuntimeError::DeadlineExceeded`] (which fails the whole
    /// materialising call — per-row outcomes need
    /// [`Runtime::open_session`]). `None` disables the check.
    pub deadline: Option<Duration>,
    /// What to do when the call's tenant queue is full at submit time
    /// (see [`AdmissionPolicy`]); shed rows fail the materialising call
    /// with [`crate::RuntimeError::Shed`].
    pub admission: AdmissionPolicy,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            detail: Detail::Outputs,
            tenant: TenantId::DEFAULT,
            weight: 1,
            deadline: None,
            admission: AdmissionPolicy::Block,
        }
    }
}

impl ServeOptions {
    /// Sets the [`Detail`] level of every response.
    pub fn detail(mut self, detail: Detail) -> Self {
        self.detail = detail;
        self
    }

    /// Tags the call's requests with `tenant`.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the tenant's scheduling weight (clamped to ≥ 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the per-request deadline (see [`ServeOptions::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the full-queue admission policy (see
    /// [`ServeOptions::admission`]).
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    fn session_options(&self) -> SessionOptions {
        let mut opts = SessionOptions::default()
            .detail(self.detail)
            .tenant(self.tenant)
            .weight(self.weight)
            .admission(self.admission);
        opts.deadline = self.deadline;
        opts
    }
}

/// Tunables of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Worker threads sharding lane groups (0 = one per available core).
    pub workers: usize,
    /// Maximum lane groups in flight in the bounded work queue.
    pub queue_capacity: usize,
    /// Assumed batch size when tuning for an unbounded stream.
    pub stream_batch_hint: usize,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            workers: 0,
            queue_capacity: 0,
            stream_batch_hint: 4096,
        }
    }
}

impl RuntimeOptions {
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        }
    }

    pub(crate) fn effective_queue_capacity(&self, workers: usize) -> usize {
        if self.queue_capacity > 0 {
            self.queue_capacity
        } else {
            2 * workers
        }
    }
}

/// Builder for a configured [`Runtime`].
#[derive(Debug)]
pub struct RuntimeBuilder {
    registry: BackendRegistry,
    opts: RuntimeOptions,
    policy: TunerPolicy,
}

impl RuntimeBuilder {
    /// Worker thread count for group sharding (0 = one per core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.opts.workers = workers;
        self
    }

    /// Bounded queue capacity in lane groups (0 = twice the workers).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.opts.queue_capacity = capacity;
        self
    }

    /// Assumed batch size when tuning for unbounded streams.
    pub fn stream_batch_hint(mut self, hint: usize) -> Self {
        self.opts.stream_batch_hint = hint.max(1);
        self
    }

    /// Replaces the whole backend registry.
    pub fn registry(mut self, registry: BackendRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers an additional backend (may shadow a standard one by name).
    pub fn register(mut self, backend: Box<dyn EvalBackend>) -> Self {
        self.registry.register(backend);
        self
    }

    /// Sets the backend-selection policy.
    pub fn policy(mut self, policy: TunerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for [`TunerPolicy::Fixed`].
    pub fn fixed_backend(self, name: &str) -> Self {
        self.policy(TunerPolicy::Fixed(name.to_string()))
    }

    /// Finishes the builder.
    pub fn build(self) -> Runtime {
        let health = (0..self.registry.backends().len())
            .map(|_| BackendHealth::default())
            .collect();
        Runtime {
            registry: self.registry,
            tuner: AutoTuner::new(),
            policy: self.policy,
            opts: self.opts,
            telemetry: Telemetry::default(),
            health,
            spare_scratch: OrderedMutex::new(
                LockRank::SPARE_SCRATCH,
                "runtime.spare_scratch",
                None,
            ),
        }
    }
}

/// Per-backend quarantine state: consecutive eval failures and the
/// exponential-backoff pick budget that must drain before a re-probe.
/// Lock-free (two relaxed atomics) because [`Runtime::pick_backend`] sits
/// on the session-open path.
#[derive(Debug, Default)]
struct BackendHealth {
    /// Consecutive failed group evals on this backend (0 = healthy).
    strikes: AtomicU32,
    /// Picks to refuse before the next probe is allowed through.
    skip: AtomicU32,
}

/// A circuit-agnostic serving runtime.
///
/// One instance owns a backend registry, an auto-tuner cache, and telemetry;
/// it holds no circuit state, so the same runtime serves any number of
/// compiled circuits concurrently (`&self` everywhere, all state
/// interior-mutable and thread-safe).
#[derive(Debug)]
pub struct Runtime {
    registry: BackendRegistry,
    tuner: AutoTuner,
    policy: TunerPolicy,
    opts: RuntimeOptions,
    telemetry: Telemetry,
    /// One entry per registered backend, indexed like the registry.
    health: Vec<BackendHealth>,
    /// A closed session's inline scratch (plane arena and row-refs table),
    /// lent to the next session so materialising calls skip re-zeroing a
    /// multi-megabyte arena.
    spare_scratch: OrderedMutex<Option<InlineScratch>>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::builder().build()
    }
}

impl Runtime {
    /// A runtime with the standard backend registry, measuring tuner policy,
    /// and one worker per core.
    pub fn new() -> Self {
        Runtime::default()
    }

    /// Starts configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder {
            registry: BackendRegistry::standard(),
            opts: RuntimeOptions::default(),
            policy: TunerPolicy::default(),
        }
    }

    /// The registered backends.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The name of the backend the runtime would use for `batch` requests
    /// against `circuit` (running calibration if that bucket is unseen).
    pub fn backend_for(&self, circuit: &CompiledCircuit, batch: usize) -> Result<&'static str> {
        let idx = self.pick_backend(circuit, batch)?;
        Ok(self.registry.backends()[idx].caps().name)
    }

    /// A snapshot of everything served so far.
    pub fn telemetry(&self) -> TelemetrySummary {
        self.telemetry.snapshot()
    }

    /// The auto-tuner backing [`crate::TunerPolicy::Measure`] (its
    /// calibration cache persists via [`Runtime::save_tuner_cache`]).
    pub fn tuner(&self) -> &AutoTuner {
        &self.tuner
    }

    /// Persists the tuner's (circuit fingerprint × batch bucket → backend)
    /// calibration cache as JSON, so a later process can warm-start with
    /// [`Runtime::load_tuner_cache`] and serve without re-probing.
    pub fn save_tuner_cache<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        self.tuner.save_json(&self.registry, path)
    }

    /// Loads a calibration cache saved by [`Runtime::save_tuner_cache`],
    /// returning how many entries were adopted (entries naming backends not
    /// in this runtime's registry are skipped).
    pub fn load_tuner_cache<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<usize> {
        self.tuner.load_json(&self.registry, path)
    }

    /// Opens a streaming session against `circuit` and runs `f` with it.
    ///
    /// The session outlives nothing: scoped worker threads spawn lazily as
    /// groups are dispatched (none for an empty session, one per group up
    /// to the worker target) and join when `f` returns, so borrows of the
    /// runtime and circuit stay plain references. Submit rows from any
    /// thread inside `f` (spawn your own scoped threads around the
    /// `&StreamSession` if you like) and consume responses incrementally —
    /// see [`StreamSession`] for the flat-memory contract.
    ///
    /// The backend is picked lazily on the first submitted row, so opening
    /// (and closing) a session that never submits costs nothing — in
    /// particular, no calibration probe runs for an empty stream.
    pub fn open_session<T>(
        &self,
        circuit: &CompiledCircuit,
        opts: SessionOptions,
        f: impl FnOnce(&StreamSession<'_, '_>) -> T,
    ) -> T {
        /// Unblocks and drains workers even when `f` unwinds: without this,
        /// a panicking consumer would leave workers parked in the engine
        /// and `thread::scope` would join them forever instead of
        /// propagating the panic.
        struct Shutdown<'a>(&'a SessionShared<'a>);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    // Driver-side panic teardown: emit the flight-recorder
                    // post-mortem (no-op unless TCMM_TRACE is on) before
                    // unblocking the workers.
                    self.0.dump_trace("session panic teardown");
                }
                self.0.shutdown();
            }
        }

        let shared = SessionShared::new(self, circuit, opts);
        let out = std::thread::scope(|scope| {
            let _shutdown = Shutdown(&shared);
            let session = StreamSession {
                shared: &shared,
                scope,
            };
            f(&session)
        });
        shared.flush_telemetry();
        shared.return_scratch();
        out
    }

    /// The spare inline scratch for a new session (empty if none is
    /// parked, e.g. while another session holds it).
    pub(crate) fn take_spare_scratch(&self) -> InlineScratch {
        lock_tolerant(&self.spare_scratch)
            .take()
            .unwrap_or_default()
    }

    /// Parks a closing session's inline scratch for the next session,
    /// keeping the larger arena when one is already parked.
    pub(crate) fn return_spare_scratch(&self, scratch: InlineScratch) {
        let mut spare = lock_tolerant(&self.spare_scratch);
        if spare
            .as_ref()
            .is_none_or(|s| s.capacity_bytes() < scratch.capacity_bytes())
        {
            *spare = Some(scratch);
        }
    }

    /// Serves a batch of requests, returning one [`Response`] per request in
    /// submission order. Any batch size is accepted — requests are packed
    /// into full lane groups with a single ragged tail.
    pub fn serve_batch<R: AsRef<[bool]> + Sync>(
        &self,
        circuit: &CompiledCircuit,
        rows: &[R],
    ) -> Result<Vec<Response>> {
        self.serve_batch_detailed(circuit, rows, Detail::Outputs)
    }

    /// Like [`Runtime::serve_batch`] with an explicit [`Detail`] level.
    pub fn serve_batch_detailed<R: AsRef<[bool]> + Sync>(
        &self,
        circuit: &CompiledCircuit,
        rows: &[R],
        detail: Detail,
    ) -> Result<Vec<Response>> {
        self.serve_batch_with(circuit, rows, ServeOptions::default().detail(detail))
    }

    /// Like [`Runtime::serve_batch`] with explicit [`ServeOptions`]: the
    /// batch's requests are queued and accounted under the options' tenant,
    /// at its scheduling weight.
    ///
    /// A thin wrapper over [`Runtime::open_session`]: rows are submitted
    /// through a session sized by the batch length and the materialised
    /// responses are collected in submission order.
    // Options structs are taken by value on purpose: callers build them
    // inline (`ServeOptions::new().deadline(..)`) and never reuse them.
    #[allow(clippy::needless_pass_by_value)]
    pub fn serve_batch_with<R: AsRef<[bool]> + Sync>(
        &self,
        circuit: &CompiledCircuit,
        rows: &[R],
        serve: ServeOptions,
    ) -> Result<Vec<Response>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let opts = serve.session_options().batch_hint(rows.len());
        self.open_session(circuit, opts, |session| {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                session.submit_draining(row.as_ref(), &mut out)?;
            }
            session.finish();
            while let Some(resp) = session.next_response()? {
                // A materialising wrapper has no way to hand back per-row
                // errors, so the first shed/expired row fails the batch.
                if let Some(err) = resp.error() {
                    return Err(err.clone());
                }
                out.push(resp.into_response());
            }
            Ok(out)
        })
    }

    /// Serves an unbounded request stream: rows are packed into full lane
    /// groups as they arrive and flow through the bounded queue, so the
    /// *input* side is never buffered beyond `queue_capacity` groups (plus
    /// the ones workers hold). The returned responses are fully
    /// materialised, in submission order — memory still grows with the
    /// response count (outputs and firing count per request, plus the full
    /// evaluation under [`Detail::Full`]), so size long-running streams
    /// accordingly, or use [`Runtime::open_session`] directly to consume
    /// responses incrementally at flat memory.
    pub fn serve_stream<I>(&self, circuit: &CompiledCircuit, requests: I) -> Result<Vec<Response>>
    where
        I: IntoIterator<Item = Vec<bool>>,
    {
        self.serve_stream_detailed(circuit, requests, Detail::Outputs)
    }

    /// Like [`Runtime::serve_stream`] with an explicit [`Detail`] level.
    pub fn serve_stream_detailed<I>(
        &self,
        circuit: &CompiledCircuit,
        requests: I,
        detail: Detail,
    ) -> Result<Vec<Response>>
    where
        I: IntoIterator<Item = Vec<bool>>,
    {
        self.serve_stream_with(circuit, requests, ServeOptions::default().detail(detail))
    }

    /// Like [`Runtime::serve_stream`] with explicit [`ServeOptions`]: the
    /// stream's requests are queued and accounted under the options'
    /// tenant, at its scheduling weight.
    ///
    /// A thin wrapper over [`Runtime::open_session`]: the calling thread
    /// drives submission and drains completed responses whenever the queue
    /// pushes back, so the input side stays bounded even though the result
    /// is materialised. The backend is picked lazily on the first packed
    /// row — an empty stream never pays a calibration probe.
    // By-value `serve` for the same reason as `serve_batch_with` above.
    #[allow(clippy::needless_pass_by_value)]
    pub fn serve_stream_with<I>(
        &self,
        circuit: &CompiledCircuit,
        requests: I,
        serve: ServeOptions,
    ) -> Result<Vec<Response>>
    where
        I: IntoIterator<Item = Vec<bool>>,
    {
        let opts = serve.session_options();
        self.open_session(circuit, opts, |session| {
            let mut out = Vec::new();
            for row in requests {
                session.submit_draining(&row, &mut out)?;
            }
            session.finish();
            while let Some(resp) = session.next_response()? {
                // Same per-row-error contract as `serve_batch_with`.
                if let Some(err) = resp.error() {
                    return Err(err.clone());
                }
                out.push(resp.into_response());
            }
            Ok(out)
        })
    }

    pub(crate) fn pick_backend(&self, circuit: &CompiledCircuit, batch: usize) -> Result<usize> {
        let idx = match &self.policy {
            TunerPolicy::Fixed(name) => self.registry.index_of(name),
            TunerPolicy::ModelOnly => rank_by_model(&self.registry, circuit, batch),
            TunerPolicy::Measure => self.tuner.pick(&self.registry, circuit, batch),
        }?;
        if self.backend_usable(idx) {
            return Ok(idx);
        }
        // Quarantined: prefer the always-safe scalar fallback until the
        // backoff grants a re-probe. Keep the original pick when scalar is
        // absent (custom registries) or is the quarantined backend itself —
        // failover inside the session still retries each group once.
        match self.registry.index_of("scalar") {
            Ok(scalar) if scalar != idx => Ok(scalar),
            _ => Ok(idx),
        }
    }

    /// Records a failed group eval (error or panic) on backend `idx`: the
    /// backend is quarantined, so fresh picks skip it for `2^strikes`
    /// selections (capped at 64) before one probe is let through. Returns
    /// the new consecutive-strike count (for tracing).
    pub(crate) fn note_backend_failure(&self, idx: usize) -> u32 {
        let Some(h) = self.health.get(idx) else {
            return 0;
        };
        let strikes = h.strikes.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        h.skip.store(1u32 << strikes.min(6), Ordering::Relaxed);
        self.telemetry.record_quarantines(1);
        strikes
    }

    /// Records a clean group eval on backend `idx`, lifting any quarantine.
    /// The healthy path is a single relaxed load.
    pub(crate) fn note_backend_ok(&self, idx: usize) {
        let Some(h) = self.health.get(idx) else {
            return;
        };
        if h.strikes.load(Ordering::Relaxed) != 0 {
            h.strikes.store(0, Ordering::Relaxed);
            h.skip.store(0, Ordering::Relaxed);
        }
    }

    /// Whether a fresh pick of backend `idx` may proceed: healthy backends
    /// always; quarantined ones only once their skip budget is spent (each
    /// refusal decrements it — counter-based, so re-probing is
    /// deterministic and needs no wall clock).
    fn backend_usable(&self, idx: usize) -> bool {
        let Some(h) = self.health.get(idx) else {
            return true;
        };
        if h.strikes.load(Ordering::Relaxed) == 0 {
            return true;
        }
        let mut cur = h.skip.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return true; // backoff drained: probe granted
            }
            match h
                .skip
                .compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return false,
                Err(now) => cur = now,
            }
        }
    }

    pub(crate) fn options(&self) -> &RuntimeOptions {
        &self.opts
    }

    pub(crate) fn telemetry_ref(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_circuit::{CircuitBuilder, CircuitError, Wire};

    /// 3-input full adder compiled once.
    fn adder() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(3);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let z = Wire::input(2);
        let carry = b.add_gate([(x, 1), (y, 1), (z, 1)], 2).unwrap();
        let sum = b
            .add_gate([(x, 1), (y, 1), (z, 1), (carry, -2)], 1)
            .unwrap();
        b.mark_output(sum);
        b.mark_output(carry);
        b.build().compile().unwrap()
    }

    fn rows(n: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|i| vec![i % 2 == 0, i % 3 == 0, i % 5 == 0])
            .collect()
    }

    fn check_against_scalar(cc: &CompiledCircuit, rows: &[Vec<bool>], responses: &[Response]) {
        assert_eq!(responses.len(), rows.len());
        for (i, (row, response)) in rows.iter().zip(responses).enumerate() {
            let ev = cc.evaluate(row).unwrap();
            assert_eq!(response.outputs, ev.outputs(), "request {i}");
            assert_eq!(
                response.firing_count as usize,
                ev.firing_count(),
                "request {i}"
            );
        }
    }

    #[test]
    fn serve_batch_matches_scalar_for_every_fixed_backend() {
        let cc = adder();
        let requests = rows(731); // ragged for every lane width
        for name in BackendRegistry::standard().names() {
            let runtime = Runtime::builder().fixed_backend(name).workers(3).build();
            let responses = runtime.serve_batch(&cc, &requests).unwrap();
            check_against_scalar(&cc, &requests, &responses);
            let summary = runtime.telemetry();
            assert_eq!(summary.requests, 731, "backend {name}");
            assert_eq!(summary.per_backend.len(), 1);
            assert!(summary.per_backend.contains_key(name));
        }
    }

    #[test]
    fn serve_stream_packs_lane_groups_incrementally() {
        let cc = adder();
        let requests = rows(1000);
        let runtime = Runtime::builder()
            .fixed_backend("wide128")
            .workers(4)
            .queue_capacity(2)
            .build();
        let responses = runtime.serve_stream(&cc, requests.iter().cloned()).unwrap();
        check_against_scalar(&cc, &requests, &responses);
        let summary = runtime.telemetry();
        assert_eq!(summary.groups, 1000usize.div_ceil(128) as u64);
        // 1000 = 7 full 128-lane groups + a 104-lane tail.
        assert_eq!(summary.padded_lanes, (128 - 1000 % 128) as u64);
    }

    #[test]
    fn empty_submissions_are_served_trivially() {
        let cc = adder();
        let runtime = Runtime::new();
        let no_rows: Vec<Vec<bool>> = Vec::new();
        assert!(runtime.serve_batch(&cc, &no_rows).unwrap().is_empty());
        assert!(runtime.serve_stream(&cc, no_rows).unwrap().is_empty());
        assert_eq!(runtime.telemetry().requests, 0);
    }

    #[test]
    fn auto_tuning_calibrates_once_and_serves_correctly() {
        let cc = adder();
        let runtime = Runtime::new();
        let requests = rows(300);
        let responses = runtime.serve_batch(&cc, &requests).unwrap();
        check_against_scalar(&cc, &requests, &responses);
        let name = runtime.backend_for(&cc, 300).unwrap();
        assert!(runtime.registry().index_of(name).is_ok());
        // Same bucket again: no new calibration, same choice.
        let responses = runtime.serve_batch(&cc, &requests).unwrap();
        check_against_scalar(&cc, &requests, &responses);
    }

    #[test]
    fn model_only_policy_is_deterministic() {
        let cc = adder();
        let runtime = Runtime::builder().policy(TunerPolicy::ModelOnly).build();
        assert_eq!(runtime.backend_for(&cc, 1).unwrap(), "scalar");
        assert_eq!(runtime.backend_for(&cc, 100_000).unwrap(), "wide512");
    }

    #[test]
    fn detail_full_carries_the_evaluation() {
        let cc = adder();
        let runtime = Runtime::builder().fixed_backend("wide256").build();
        let requests = rows(70);
        let responses = runtime
            .serve_batch_detailed(&cc, &requests, Detail::Full)
            .unwrap();
        for (row, response) in requests.iter().zip(&responses) {
            assert_eq!(
                response.evaluation.as_ref().unwrap(),
                &cc.evaluate(row).unwrap()
            );
        }
    }

    #[test]
    fn malformed_requests_surface_the_circuit_error() {
        let cc = adder();
        let runtime = Runtime::builder()
            .fixed_backend("sliced64")
            .workers(2)
            .build();
        let mut requests = rows(100);
        requests[77] = vec![true]; // wrong width
        let err = runtime.serve_batch(&cc, &requests).unwrap_err();
        assert!(matches!(
            err,
            crate::RuntimeError::Circuit(CircuitError::InputLengthMismatch { .. })
        ));
    }

    /// A buggy custom backend returning one response too few per group.
    struct ShortChanger(&'static str);
    impl crate::EvalBackend for ShortChanger {
        fn caps(&self) -> crate::BackendCaps {
            crate::BackendCaps {
                name: self.0,
                lane_group: 16,
                internally_parallel: false,
                bit_sliced: false,
            }
        }
        fn cost_model(&self, _: &CompiledCircuit, _: usize) -> f64 {
            0.0
        }
        fn eval_group(
            &self,
            circuit: &CompiledCircuit,
            rows: &[&[bool]],
            detail: Detail,
            arena: &mut tc_circuit::PlaneArena,
            responses: &mut Vec<crate::Response>,
        ) -> crate::Result<()> {
            crate::ScalarBackend.eval_group(circuit, rows, detail, arena, responses)?;
            responses.pop();
            Ok(())
        }
    }

    #[test]
    fn short_changing_backends_fail_over_to_scalar() {
        let cc = adder();
        let runtime = Runtime::builder()
            .register(Box::new(ShortChanger("short_changer")))
            .fixed_backend("short_changer")
            .workers(1)
            .build();
        // Every group trips the contract check, is retried once on the
        // scalar fallback, and completes — the batch never aborts.
        let requests = rows(40);
        let responses = runtime.serve_batch(&cc, &requests).unwrap();
        check_against_scalar(&cc, &requests, &responses);
        let summary = runtime.telemetry();
        assert_eq!(summary.retries, 40, "every row retried on scalar");
        assert!(summary.quarantines >= 1, "failing backend quarantined");
    }

    #[test]
    fn short_changing_scalar_shadow_still_surfaces_the_contract_error() {
        let cc = adder();
        // Shadow the scalar fallback with the same bug: the retry also
        // short-changes, so the violation must surface, not be swallowed.
        let runtime = Runtime::builder()
            .register(Box::new(ShortChanger("short_changer")))
            .register(Box::new(ShortChanger("scalar")))
            .fixed_backend("short_changer")
            .workers(1)
            .build();
        assert!(matches!(
            runtime.serve_batch(&cc, &rows(40)),
            Err(crate::RuntimeError::BackendContract {
                backend: "scalar",
                expected: 16,
                actual: 15,
            })
        ));
    }

    #[test]
    fn per_request_backends_report_no_phantom_padding() {
        let cc = adder();
        let runtime = Runtime::builder().fixed_backend("scalar").build();
        runtime.serve_batch(&cc, &rows(3)).unwrap();
        assert_eq!(runtime.telemetry().padded_lanes, 0);
        let sliced = Runtime::builder().fixed_backend("sliced64").build();
        sliced.serve_batch(&cc, &rows(3)).unwrap();
        assert_eq!(sliced.telemetry().padded_lanes, 61);
    }

    /// Two 1024-gate layers of fan-in 17, each past the default sharding
    /// threshold; the second layer mixes Unit, Pow2 and General gates.
    fn shardable() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(24);
        let first: Vec<Wire> = (0..1024)
            .map(|g| {
                let fan =
                    (0..17).map(|k| (Wire::input((g + k) % 24), if k % 3 == 0 { -1 } else { 1 }));
                b.add_gate(fan, 3).unwrap()
            })
            .collect();
        let second: Vec<Wire> = (0..1024)
            .map(|g| {
                let fan = (0..17).map(|k| {
                    let magnitude = [1, 1, 2, 3][(g + k) % 4];
                    let sign = if k % 2 == 0 { 1 } else { -1 };
                    (first[(g * 13 + k * 61) % 1024], sign * magnitude)
                });
                b.add_gate(fan, 2).unwrap()
            })
            .collect();
        b.mark_outputs(second);
        b.build().compile().unwrap()
    }

    #[test]
    fn layer_parallel_serves_full_detail_bit_identically() {
        let cc = shardable();
        let opts = tc_circuit::ShardOptions::new(2);
        assert!(cc.shards_layer(0, opts) && cc.shards_layer(1, opts));
        let requests: Vec<Vec<bool>> = (0..300)
            .map(|i| (0..24).map(|b| (i * 7 + b * b) % 5 < 2).collect())
            .collect();
        let runtime = Runtime::builder().fixed_backend("layer_parallel").build();
        let responses = runtime
            .serve_batch_detailed(&cc, &requests, Detail::Full)
            .unwrap();
        check_against_scalar(&cc, &requests, &responses);
        for (row, response) in requests.iter().zip(&responses) {
            assert_eq!(
                response.evaluation.as_ref().unwrap(),
                &cc.evaluate(row).unwrap()
            );
        }
        // 300 rows: one full 256-lane pass and a 44-lane tail.
        let summary = runtime.telemetry();
        assert_eq!(summary.groups, 2);
        assert_eq!(summary.padded_lanes, 256 - 44);
    }

    #[test]
    fn layer_parallel_sessions_plan_one_worker() {
        // An internally parallel backend takes every core itself, so the
        // session serves inline: no group is ever queued for a worker, and
        // every inline group records a zero queue wait.
        let cc = adder();
        let requests = rows(1000);
        let runtime = Runtime::builder()
            .fixed_backend("layer_parallel")
            .workers(4)
            .build();
        let responses = runtime.serve_batch(&cc, &requests).unwrap();
        check_against_scalar(&cc, &requests, &responses);
        let summary = runtime.telemetry();
        assert_eq!(summary.groups, 4);
        let tenant = summary.per_tenant[&TenantId::DEFAULT];
        assert_eq!((tenant.groups, tenant.queued_groups), (4, 0));
        assert_eq!(summary.stages.queue_wait.count(), 4);
        assert_eq!(summary.stages.queue_wait.max(), 0);

        // The same batch on a worker-sharded backend does queue.
        let sharded = Runtime::builder()
            .fixed_backend("wide256")
            .workers(4)
            .build();
        sharded.serve_batch(&cc, &requests).unwrap();
        assert_eq!(
            sharded.telemetry().per_tenant[&TenantId::DEFAULT].queued_groups,
            4
        );
    }

    #[test]
    fn layer_parallel_is_a_candidate_only_where_it_shards() {
        let backend = crate::LayerParallelBackend;
        assert!(!backend.candidate_for(&adder()));
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        assert_eq!(backend.candidate_for(&shardable()), threads > 1);
        // Where it cannot shard, neither tuner policy picks it.
        let measured = Runtime::new();
        assert_ne!(
            measured.backend_for(&adder(), 256).unwrap(),
            "layer_parallel"
        );
        let modeled = Runtime::builder().policy(TunerPolicy::ModelOnly).build();
        assert_ne!(
            modeled.backend_for(&adder(), 256).unwrap(),
            "layer_parallel"
        );
    }

    #[test]
    fn serve_batch_reuses_the_spare_arena() {
        // The first call's arena is parked in the runtime and lent to the
        // next session instead of being zeroed afresh.
        let cc = shardable();
        let requests: Vec<Vec<bool>> = (0..64).map(|i| vec![i % 3 == 0; 24]).collect();
        let runtime = Runtime::builder()
            .fixed_backend("wide256")
            .workers(1)
            .build();
        runtime.serve_batch(&cc, &requests).unwrap();
        let parked = runtime.take_spare_scratch();
        assert!(parked.capacity_bytes() >= (1 + 24 + cc.num_gates()) * 4 * 8);
        runtime.return_spare_scratch(parked);
        runtime.serve_batch(&cc, &requests).unwrap();
        assert!(runtime.take_spare_scratch().capacity_bytes() > 0);
    }

    #[test]
    fn unknown_fixed_backend_is_reported() {
        let cc = adder();
        let runtime = Runtime::builder().fixed_backend("tpu").build();
        assert!(matches!(
            runtime.serve_batch(&cc, &rows(4)),
            Err(crate::RuntimeError::UnknownBackend { .. })
        ));
    }
}
