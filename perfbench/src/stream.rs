//! `session_stream`: millions of rows of a 48-gate layered ±1 majority
//! circuit through one `StreamSession`, driven by `submit_or_next` from a
//! single thread on a `workers(1)` runtime (the inline, threadless path).

use crate::harness::{backend_wall_ns, Tally, Workload};
use crate::mix;
use crate::probe::Serving;
use crate::tracer::Tracer;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use tc_circuit::{Bound, Circuit, CircuitBuilder, CompiledCircuit, PaperBound, Wire};
use tc_runtime::{Detail, PooledResponse, Runtime, SessionOptions, StreamSession, SubmitOrNext};

const INPUTS: usize = 16;
const LAYERS: usize = 4;
const GATES_PER_LAYER: usize = 12;
const FAN_IN: usize = 5;
const DISTINCT_ROWS: usize = 64;
/// Rows per client call: one window of the stream.
const WINDOW: usize = 4096;

pub struct SessionStream {
    rows: Vec<Vec<bool>>,
    expected: Vec<Vec<bool>>,
}

/// The built circuit, its compiled form, its exact shape, and the
/// single-worker runtime that serves it.
pub struct StreamInst {
    circuit: Circuit,
    compiled: CompiledCircuit,
    bound: PaperBound,
    runtime: Runtime,
}

/// Layered ±1 majorities: every gate fires when at least one more of its
/// five inputs is on at a +1 weight than at a -1 weight.
fn build_circuit() -> Result<Circuit, String> {
    let mut b = CircuitBuilder::new(INPUTS);
    let mut prev: Vec<Wire> = (0..INPUTS).map(Wire::input).collect();
    for layer in 0..LAYERS {
        let mut next = Vec::with_capacity(GATES_PER_LAYER);
        for g in 0..GATES_PER_LAYER {
            let fan: Vec<(Wire, i64)> = (0..FAN_IN)
                .map(|k| {
                    let w = prev[(g * FAN_IN + k + layer) % prev.len()];
                    (w, if k % 2 == 0 { 1 } else { -1 })
                })
                .collect();
            next.push(b.add_gate(fan, 1).map_err(|e| format!("construct: {e}"))?);
        }
        prev = next;
    }
    b.mark_outputs(prev);
    Ok(b.build())
}

impl SessionStream {
    /// 64 distinct seeded rows and their scalar-evaluator outputs.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut seen = BTreeSet::new();
        let mut k = 0;
        while seen.len() < DISTINCT_ROWS {
            seen.insert(mix(seed, k) as u16);
            k += 1;
        }
        let rows: Vec<Vec<bool>> = seen
            .iter()
            .map(|&v| (0..INPUTS).map(|b| (v >> b) & 1 == 1).collect())
            .collect();
        let reference = build_circuit()?
            .compile()
            .map_err(|e| format!("compile: {e}"))?;
        let expected = rows
            .iter()
            .map(|r| {
                reference
                    .evaluate(r)
                    .map(|ev| ev.outputs().to_vec())
                    .map_err(|e| format!("reference: {e}"))
            })
            .collect::<Result<_, String>>()?;
        Ok(SessionStream { rows, expected })
    }

    fn wrong(&self, resp: &PooledResponse<'_>) -> bool {
        let row = resp.request_id() as usize % DISTINCT_ROWS;
        match resp.outcome() {
            Ok(r) => r.outputs != self.expected[row],
            Err(_) => true,
        }
    }

    /// One client call: a window of rows submitted in order, then every
    /// answer of the window collected. Returns the failures.
    fn window(&self, session: &StreamSession<'_, '_>, first: u64) -> Result<usize, String> {
        let err = |e: tc_runtime::RuntimeError| format!("session: {e}");
        let (mut got, mut failed) = (0usize, 0usize);
        for i in 0..WINDOW as u64 {
            let row = &self.rows[((first + i) % DISTINCT_ROWS as u64) as usize];
            loop {
                match session.submit_or_next(row).map_err(err)? {
                    SubmitOrNext::Submitted(_) => break,
                    SubmitOrNext::Next(resp) => {
                        failed += usize::from(self.wrong(&resp));
                        got += 1;
                    }
                }
            }
        }
        session.flush().map_err(err)?;
        while got < WINDOW {
            let resp = session
                .next_response()
                .map_err(err)?
                .ok_or("session ended before the window was answered")?;
            failed += usize::from(self.wrong(&resp));
            got += 1;
        }
        Ok(failed)
    }
}

impl Workload for SessionStream {
    type Inst = StreamInst;

    fn cold_starts(&self) -> usize {
        15
    }

    fn tune_batch(&self) -> usize {
        // Sessions tune for the runtime's stream batch hint.
        tc_runtime::RuntimeOptions::default().stream_batch_hint
    }

    fn construct(&self) -> Result<StreamInst, String> {
        let circuit = build_circuit()?;
        let compiled = circuit.compile().map_err(|e| format!("compile: {e}"))?;
        let bound = PaperBound {
            constructor: "layered majority",
            theorem: "exact benchmark shape",
            geometry: format!("{INPUTS} inputs, {LAYERS} layers of {GATES_PER_LAYER} gates"),
            depth: Bound::Exact(LAYERS as u128),
            gates: Bound::Exact((LAYERS * GATES_PER_LAYER) as u128),
            edges: Some(Bound::Exact((LAYERS * GATES_PER_LAYER * FAN_IN) as u128)),
        };
        Ok(StreamInst {
            circuit,
            compiled,
            bound,
            runtime: Runtime::builder().workers(1).build(),
        })
    }

    fn source<'a>(&self, inst: &'a StreamInst) -> &'a Circuit {
        &inst.circuit
    }

    fn compiled<'a>(&self, inst: &'a StreamInst) -> &'a CompiledCircuit {
        &inst.compiled
    }

    fn bound<'a>(&self, inst: &'a StreamInst) -> &'a PaperBound {
        &inst.bound
    }

    fn runtime<'a>(&self, inst: &'a StreamInst) -> &'a Runtime {
        &inst.runtime
    }

    fn probe_rows(&self, _inst: &StreamInst) -> Result<Vec<Vec<bool>>, String> {
        Ok(self.rows.clone())
    }

    fn serving(&self) -> Serving {
        Serving {
            detail: Detail::Outputs,
            fresh_arena: false,
        }
    }

    fn serve(
        &self,
        inst: &StreamInst,
        budget: Duration,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let rt = &inst.runtime;
        let opened = rt.telemetry();
        let served = rt.open_session(&inst.compiled, SessionOptions::default(), |session| {
            let start = Instant::now();
            let mut first = 0u64;
            while first == 0 || start.elapsed() < budget {
                let id = tally.call_ns.len() as u64;
                let (ns, failed) = match tracer.as_deref_mut() {
                    None => {
                        let t = Instant::now();
                        let failed = self.window(session, first)?;
                        (t.elapsed().as_nanos() as u64, failed)
                    }
                    Some(tr) => {
                        let before = rt.telemetry();
                        let call = tr.begin("call", None, id);
                        let span = tr.begin("session", Some(call), id);
                        let failed = self.window(session, first)?;
                        let serve_ns = tr.end(span);
                        let ns = tr.end(call);
                        let after = rt.telemetry();
                        let backend = backend_wall_ns(&before, &after, 1, serve_ns);
                        tr.derive("backend", "session", id, backend);
                        tally.counts.calls += 1;
                        (ns, failed)
                    }
                };
                tally.call(ns, WINDOW, failed);
                first += WINDOW as u64;
            }
            session.finish();
            while let Some(resp) = session
                .next_response()
                .map_err(|e| format!("session: {e}"))?
            {
                tally.extra_requests += 1;
                tally.extra_failed += u64::from(self.wrong(&resp));
            }
            Ok::<(), String>(())
        });
        served?;
        if tracer.is_some() {
            // Pool counters reach the telemetry when the session closes.
            tally.counts.add_delta(&opened, &rt.telemetry());
        }
        Ok(())
    }
}
