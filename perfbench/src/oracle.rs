//! `trace_oracle`: "at least τ triangles?" over batches of random graphs,
//! answered by the paper's trace circuit through `TriangleOracle`.

use crate::harness::{backend_wall_ns, default_workers, mismatches, Tally, Workload};
use crate::mix;
use crate::probe::Serving;
use crate::tracer::Tracer;
use fast_matmul::BilinearAlgorithm;
use std::time::{Duration, Instant};
use tc_circuit::{Circuit, CompiledCircuit, PaperBound};
use tc_graph::{generators, triangles, Graph, TriangleOracle};
use tc_runtime::{Detail, Runtime};
use tcmm_core::CircuitConfig;

const VERTICES: usize = 16;
const EDGE_P: f64 = 0.3;
/// Near the median triangle count of G(16, 0.3) (mean 560·0.3³ ≈ 15.1),
/// so answers split.
const TAU: u64 = 15;
const LEVELS: u32 = 2;
const GRAPHS_PER_CALL: usize = 256;
const POOL_CALLS: usize = 8;

pub struct TraceOracle {
    calls: Vec<Vec<Graph>>,
    expected: Vec<Vec<bool>>,
}

impl TraceOracle {
    /// Seeded G(16, 0.3) graphs and their exact-count answers.
    pub fn new(seed: u64) -> Self {
        let calls: Vec<Vec<Graph>> = (0..POOL_CALLS)
            .map(|c| {
                (0..GRAPHS_PER_CALL)
                    .map(|g| {
                        generators::erdos_renyi(
                            VERTICES,
                            EDGE_P,
                            mix(seed, c * GRAPHS_PER_CALL + g),
                        )
                    })
                    .collect()
            })
            .collect();
        let expected: Vec<Vec<bool>> = calls
            .iter()
            .map(|graphs| {
                graphs
                    .iter()
                    .map(|g| triangles::count_node_iterator(g) >= TAU)
                    .collect()
            })
            .collect();
        let yes = expected.iter().flatten().filter(|&&b| b).count();
        eprintln!(
            "perfbench: trace_oracle: {yes}/{} pooled graphs have >= {TAU} triangles",
            POOL_CALLS * GRAPHS_PER_CALL
        );
        TraceOracle { calls, expected }
    }

    fn encode(oracle: &TriangleOracle, graphs: &[Graph]) -> Result<Vec<Vec<bool>>, String> {
        let input = oracle.circuit().input();
        let width = oracle.circuit().compiled().num_inputs();
        graphs
            .iter()
            .map(|g| {
                let mut bits = vec![false; width];
                input
                    .assign(&g.padded_adjacency_matrix(input.n()), &mut bits)
                    .map_err(|e| format!("encode: {e}"))?;
                Ok(bits)
            })
            .collect()
    }
}

impl Workload for TraceOracle {
    type Inst = TriangleOracle;

    fn cold_starts(&self) -> usize {
        9
    }

    fn tune_batch(&self) -> usize {
        GRAPHS_PER_CALL
    }

    fn construct(&self) -> Result<TriangleOracle, String> {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        TriangleOracle::new(&config, VERTICES, LEVELS, TAU).map_err(|e| format!("construct: {e}"))
    }

    fn source<'a>(&self, inst: &'a TriangleOracle) -> &'a Circuit {
        inst.circuit().circuit()
    }

    fn compiled<'a>(&self, inst: &'a TriangleOracle) -> &'a CompiledCircuit {
        inst.circuit().compiled()
    }

    fn bound<'a>(&self, inst: &'a TriangleOracle) -> &'a PaperBound {
        inst.paper_bound()
    }

    fn runtime<'a>(&self, inst: &'a TriangleOracle) -> &'a Runtime {
        inst.runtime()
    }

    fn probe_rows(&self, inst: &TriangleOracle) -> Result<Vec<Vec<bool>>, String> {
        Self::encode(inst, &self.calls[0])
    }

    fn serving(&self) -> Serving {
        Serving {
            detail: Detail::Outputs,
            fresh_arena: true,
        }
    }

    fn serve(
        &self,
        inst: &TriangleOracle,
        budget: Duration,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut k = 0usize;
        while k == 0 || start.elapsed() < budget {
            let (graphs, expected) = (&self.calls[k % POOL_CALLS], &self.expected[k % POOL_CALLS]);
            let id = tally.call_ns.len() as u64;
            let (ns, answers) = match tracer.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let answers = inst.query_many(graphs);
                    (t.elapsed().as_nanos() as u64, answers.ok())
                }
                Some(tr) => {
                    let rt = inst.runtime();
                    let before = rt.telemetry();
                    let call = tr.begin("call", None, id);
                    let span = tr.begin("app.encode", Some(call), id);
                    let rows = Self::encode(inst, graphs)?;
                    tr.end(span);
                    let span = tr.begin("session", Some(call), id);
                    let responses = rt.serve_batch(inst.circuit().compiled(), &rows);
                    let serve_ns = tr.end(span);
                    let span = tr.begin("app.decode", Some(call), id);
                    let answers = responses
                        .ok()
                        .map(|rs| rs.iter().map(|r| r.outputs[0]).collect::<Vec<bool>>());
                    tr.end(span);
                    let ns = tr.end(call);
                    let after = rt.telemetry();
                    tally.counts.calls += 1;
                    tally.counts.add_delta(&before, &after);
                    let backend = backend_wall_ns(&before, &after, default_workers(), serve_ns);
                    tr.derive("backend", "session", id, backend);
                    (ns, answers)
                }
            };
            tally.call(ns, graphs.len(), mismatches(expected, answers.as_deref()));
            k += 1;
        }
        Ok(())
    }
}
