//! `matmul_products`: the paper's own product circuit (Theorem 4.9,
//! Strassen, 3-bit entries, n = 4, d = 2) multiplying batches of random
//! matrix pairs through `MatmulCircuit::evaluate_many`.

use crate::harness::{backend_wall_ns, default_workers, mismatches, Tally, Workload};
use crate::mix;
use crate::probe::Serving;
use crate::tracer::Tracer;
use fast_matmul::{random_matrix, BilinearAlgorithm, Matrix};
use std::time::{Duration, Instant};
use tc_circuit::{Circuit, CompiledCircuit, PaperBound};
use tc_runtime::{Detail, Runtime};
use tcmm_core::matmul::MatmulCircuit;
use tcmm_core::CircuitConfig;

const N: usize = 4;
const ENTRY_BITS: usize = 3;
/// Entries in [-7, 7]: the largest magnitude 3 bits hold.
const MAGNITUDE: i64 = 7;
const LEVELS: u32 = 2;
const PAIRS_PER_CALL: usize = 64;
const POOL_CALLS: usize = 16;

pub struct MatmulProducts {
    calls: Vec<Vec<(Matrix, Matrix)>>,
    expected: Vec<Vec<Matrix>>,
}

impl MatmulProducts {
    /// Seeded matrix pairs and their `multiply_naive` products.
    pub fn new(seed: u64) -> Self {
        let calls: Vec<Vec<(Matrix, Matrix)>> = (0..POOL_CALLS)
            .map(|c| {
                (0..PAIRS_PER_CALL)
                    .map(|p| {
                        let k = 2 * (c * PAIRS_PER_CALL + p);
                        (
                            random_matrix(N, MAGNITUDE, mix(seed, k)),
                            random_matrix(N, MAGNITUDE, mix(seed, k + 1)),
                        )
                    })
                    .collect()
            })
            .collect();
        let expected = calls
            .iter()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|(a, b)| a.multiply_naive(b).expect("square operands of equal size"))
                    .collect()
            })
            .collect();
        MatmulProducts { calls, expected }
    }

    fn encode(mm: &MatmulCircuit, pairs: &[(Matrix, Matrix)]) -> Result<Vec<Vec<bool>>, String> {
        let width = mm.compiled().num_inputs();
        pairs
            .iter()
            .map(|(a, b)| {
                let mut bits = vec![false; width];
                mm.input_a()
                    .assign(a, &mut bits)
                    .and_then(|()| mm.input_b().assign(b, &mut bits))
                    .map_err(|e| format!("encode: {e}"))?;
                Ok(bits)
            })
            .collect()
    }
}

impl Workload for MatmulProducts {
    type Inst = MatmulCircuit;

    fn cold_starts(&self) -> usize {
        9
    }

    fn tune_batch(&self) -> usize {
        PAIRS_PER_CALL
    }

    fn construct(&self) -> Result<MatmulCircuit, String> {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), ENTRY_BITS);
        MatmulCircuit::theorem_4_9(&config, N, LEVELS).map_err(|e| format!("construct: {e}"))
    }

    fn source<'a>(&self, inst: &'a MatmulCircuit) -> &'a Circuit {
        inst.circuit()
    }

    fn compiled<'a>(&self, inst: &'a MatmulCircuit) -> &'a CompiledCircuit {
        inst.compiled()
    }

    fn bound<'a>(&self, inst: &'a MatmulCircuit) -> &'a PaperBound {
        inst.paper_bound()
    }

    fn runtime<'a>(&self, inst: &'a MatmulCircuit) -> &'a Runtime {
        inst.runtime()
    }

    fn probe_rows(&self, inst: &MatmulCircuit) -> Result<Vec<Vec<bool>>, String> {
        Self::encode(inst, &self.calls[0])
    }

    fn serving(&self) -> Serving {
        Serving {
            detail: Detail::Full,
            fresh_arena: true,
        }
    }

    fn serve(
        &self,
        inst: &MatmulCircuit,
        budget: Duration,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut k = 0usize;
        while k == 0 || start.elapsed() < budget {
            let (pairs, expected) = (&self.calls[k % POOL_CALLS], &self.expected[k % POOL_CALLS]);
            let id = tally.call_ns.len() as u64;
            let (ns, products) = match tracer.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let products = inst.evaluate_many(pairs);
                    (t.elapsed().as_nanos() as u64, products.ok())
                }
                Some(tr) => {
                    let rt = inst.runtime();
                    let before = rt.telemetry();
                    let call = tr.begin("call", None, id);
                    let span = tr.begin("app.encode", Some(call), id);
                    let rows = Self::encode(inst, pairs)?;
                    let encode_ns = tr.end(span);
                    let span = tr.begin("session", Some(call), id);
                    let responses = rt.serve_batch_detailed(inst.compiled(), &rows, Detail::Full);
                    let serve_ns = tr.end(span);
                    let span = tr.begin("app.decode", Some(call), id);
                    let products = responses.ok().and_then(|rs| {
                        rows.iter()
                            .zip(&rs)
                            .map(|(bits, r)| {
                                let ev = r.evaluation.as_ref()?;
                                let out = inst.output_entries();
                                Some(Matrix::from_fn(N, N, |i, j| out[i * N + j].value(bits, ev)))
                            })
                            .collect::<Option<Vec<Matrix>>>()
                    });
                    tr.end(span);
                    let ns = tr.end(call);
                    let after = rt.telemetry();
                    tally.counts.calls += 1;
                    tally.counts.add_delta(&before, &after);
                    let backend = backend_wall_ns(&before, &after, default_workers(), serve_ns);
                    tr.derive("backend", "session", id, backend);

                    // Decode is derived: the public call on the same pairs
                    // minus encode and serve. Its answers are checked too.
                    let span = tr.begin("app.evaluate_many", None, id);
                    let again = inst.evaluate_many(pairs);
                    let many_ns = tr.end(span);
                    let decode = many_ns.saturating_sub(encode_ns + serve_ns);
                    *tally.decode_derived_ns.get_or_insert(0) += decode;
                    tally.extra_requests += pairs.len() as u64;
                    tally.extra_failed += mismatches(expected, again.ok().as_deref()) as u64;
                    (ns, products)
                }
            };
            tally.call(ns, pairs.len(), mismatches(expected, products.as_deref()));
            k += 1;
        }
        Ok(())
    }
}
