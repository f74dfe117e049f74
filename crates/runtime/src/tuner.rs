//! Backend auto-tuning: a one-shot calibration probe per (circuit, batch
//! size) bucket, persistable across processes.
//!
//! Analytic cost models mispredict across cache regimes — the 64-lane kernel
//! beats scalar by ~29x on an 881k-gate circuit but can lose on a 10-gate
//! one — so the tuner *measures*: it times one lane group per candidate
//! backend on deterministic probe inputs, extrapolates to the requested
//! batch size, and caches the winner keyed by a circuit fingerprint (gates,
//! bit-edges, inputs, the per-class gate counts, and the weight
//! canonicalization version) and the power-of-two batch bucket. Serving traffic never re-probes, and
//! [`AutoTuner::save_json`] / [`AutoTuner::load_json`] round-trip the cache
//! to disk so repeated serving deployments warm-start without a single
//! calibration run.

use crate::backend::{BackendRegistry, Detail, EvalBackend};
use crate::ordered::{LockRank, OrderedMutex};
use crate::{Result, RuntimeError};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tc_circuit::{CompiledCircuit, PlaneArena};

/// How a [`crate::Runtime`] chooses its backend for each submission.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TunerPolicy {
    /// Measure once per (circuit, batch bucket) with a calibration probe,
    /// then serve from the cache.
    #[default]
    Measure,
    /// Rank by each backend's [`crate::EvalBackend::cost_model`] prior; no
    /// probe runs (deterministic, useful for tests and tiny workloads).
    ModelOnly,
    /// Always use the named backend.
    Fixed(String),
}

/// Fingerprint of a compiled circuit plus the batch bucket, keying the
/// tuning cache. Collisions only cost a suboptimal-but-correct backend
/// choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TuneKey {
    gates: usize,
    bit_edges: usize,
    inputs: usize,
    unit_gates: usize,
    pow2_gates: usize,
    bucket: u32,
    /// [`tc_circuit::CANON_VERSION`] at fingerprint time: a compiled form
    /// produced under different canonicalization rules has different class
    /// mixes and bit-edge counts, so persisted decisions keyed under an
    /// older version must not be reused.
    canon: u32,
}

impl TuneKey {
    fn new(circuit: &CompiledCircuit, batch: usize) -> Self {
        let [unit_gates, pow2_gates, _] = circuit.class_counts();
        TuneKey {
            gates: circuit.num_gates(),
            bit_edges: circuit.num_bit_edges(),
            inputs: circuit.num_inputs(),
            unit_gates,
            pow2_gates,
            bucket: bucket(batch),
            canon: tc_circuit::CANON_VERSION,
        }
    }
}

fn bucket(batch: usize) -> u32 {
    usize::BITS - batch.max(1).leading_zeros()
}

/// The measuring backend picker.
#[derive(Debug)]
pub struct AutoTuner {
    cache: OrderedMutex<HashMap<TuneKey, usize>>,
    calibrations: AtomicU64,
}

impl Default for AutoTuner {
    fn default() -> Self {
        AutoTuner {
            cache: OrderedMutex::new(LockRank::TUNER_CACHE, "tuner.cache", HashMap::new()),
            calibrations: AtomicU64::new(0),
        }
    }
}

/// Largest probe group: bounds one-shot calibration cost on huge circuits
/// while still exercising the widest standard lane group once.
const PROBE_BUDGET: usize = 512;

impl AutoTuner {
    /// A fresh tuner with an empty cache.
    pub fn new() -> Self {
        AutoTuner::default()
    }

    /// Number of calibration probes run so far (cache misses).
    pub fn calibration_count(&self) -> u64 {
        self.calibrations.load(Ordering::Relaxed)
    }

    /// Number of cached (circuit fingerprint × batch bucket) decisions.
    pub fn cached_decisions(&self) -> usize {
        crate::lock_tolerant(&self.cache).len()
    }

    /// The backend index to serve `batch` requests against `circuit`,
    /// calibrating on first sight of this (circuit, batch bucket).
    pub fn pick(
        &self,
        registry: &BackendRegistry,
        circuit: &CompiledCircuit,
        batch: usize,
    ) -> Result<usize> {
        if registry.backends().is_empty() {
            return Err(RuntimeError::NoBackend);
        }
        let key = TuneKey::new(circuit, batch);
        if let Some(&cached) = crate::lock_tolerant(&self.cache).get(&key) {
            return Ok(cached);
        }
        let choice = self.calibrate(registry, circuit, batch)?;
        crate::lock_tolerant(&self.cache).insert(key, choice);
        Ok(choice)
    }

    /// Times one lane group per backend on a warm arena and extrapolates
    /// to `batch`.
    fn calibrate(
        &self,
        registry: &BackendRegistry,
        circuit: &CompiledCircuit,
        batch: usize,
    ) -> Result<usize> {
        self.calibrations.fetch_add(1, Ordering::Relaxed);
        let max_group = registry
            .backends()
            .iter()
            .map(|b| b.caps().lane_group)
            .max()
            .unwrap_or(1)
            .min(batch.max(1))
            .min(PROBE_BUDGET);
        let rows = probe_rows(circuit.num_inputs(), max_group);

        // Serving runs on a warm arena (workers own one, inline sessions
        // borrow the runtime's spare), so no probe may pay the arena's first
        // touch: grow it, untimed, to the widest bit-sliced pass.
        let widest = registry
            .backends()
            .iter()
            .map(|b| b.caps())
            .filter(|caps| caps.bit_sliced)
            .map(|caps| caps.lane_group)
            .max()
            .unwrap_or(0);
        let mut arena = PlaneArena::new();
        arena.reserve(circuit, widest);
        let mut responses = Vec::new();

        let mut best: Option<(usize, f64)> = None;
        for (idx, backend) in candidates(registry, circuit) {
            let caps = backend.caps();
            let group = caps.lane_group.min(rows.len()).max(1);
            let refs: Vec<&[bool]> = rows[..group].iter().map(std::vec::Vec::as_slice).collect();
            let t0 = Instant::now();
            backend.eval_group(circuit, &refs, Detail::Outputs, &mut arena, &mut responses)?;
            let elapsed = t0.elapsed().as_secs_f64();
            // Extrapolate per *group*, not per row: a bit-sliced pass costs
            // the same regardless of lane fill (a 65-request batch really
            // pays two full sliced64 passes), and per-request backends are
            // probed on a full group anyway, so group-granular scaling is
            // the right model for both kinds.
            let groups_needed = batch.max(1).div_ceil(caps.lane_group) as f64;
            let estimate = elapsed * groups_needed;
            if best.is_none_or(|(_, t)| estimate < t) {
                best = Some((idx, estimate));
            }
        }
        // `pick` guarantees a non-empty registry, but a typed error beats a
        // panic if a future caller ever skips that check.
        best.map(|(idx, _)| idx).ok_or(RuntimeError::NoBackend)
    }

    /// Serialises the calibration cache as JSON (backend *names*, resolved
    /// through `registry`, so the file stays valid across registry reorders
    /// and process restarts).
    ///
    /// The workspace's serde stand-in has no data-format backend, so the
    /// writer emits the fixed schema by hand; [`AutoTuner::load_json`] is
    /// its inverse.
    pub fn save_json<P: AsRef<Path>>(
        &self,
        registry: &BackendRegistry,
        path: P,
    ) -> std::io::Result<()> {
        // Shadows the `std::io::Write` import for in-memory formatting;
        // `write!` into a `String` is infallible, so the result is dropped.
        use std::fmt::Write as _;
        let cache = crate::lock_tolerant(&self.cache);
        let mut json = String::from("{\n  \"version\": 2,\n  \"entries\": [");
        let mut first = true;
        for (key, &idx) in cache.iter() {
            let Some(backend) = registry.backends().get(idx) else {
                continue;
            };
            if !first {
                json.push(',');
            }
            first = false;
            let _ = write!(
                json,
                "\n    {{\"gates\": {}, \"bit_edges\": {}, \"inputs\": {}, \
                 \"unit_gates\": {}, \"pow2_gates\": {}, \"bucket\": {}, \
                 \"canon\": {}, \"backend\": \"{}\"}}",
                key.gates,
                key.bit_edges,
                key.inputs,
                key.unit_gates,
                key.pow2_gates,
                key.bucket,
                key.canon,
                backend.caps().name
            );
        }
        json.push_str("\n  ]\n}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(json.as_bytes())
    }

    /// Loads a calibration cache saved by [`AutoTuner::save_json`], merging
    /// it into this tuner (existing in-memory decisions win). Returns the
    /// number of entries adopted; entries naming backends absent from
    /// `registry` are skipped, and malformed entries are ignored rather
    /// than failing the warm-start.
    pub fn load_json<P: AsRef<Path>>(
        &self,
        registry: &BackendRegistry,
        path: P,
    ) -> std::io::Result<usize> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        let mut cache = crate::lock_tolerant(&self.cache);
        let mut adopted = 0usize;
        for obj in json_objects(&text) {
            let entry = (|| {
                Some((
                    TuneKey {
                        gates: json_usize(obj, "gates")?,
                        bit_edges: json_usize(obj, "bit_edges")?,
                        inputs: json_usize(obj, "inputs")?,
                        unit_gates: json_usize(obj, "unit_gates")?,
                        pow2_gates: json_usize(obj, "pow2_gates")?,
                        // An out-of-range bucket is as malformed as a missing
                        // one: a plain `as u32` would truncate it onto some
                        // *other* bucket and adopt a wrong-bucket decision.
                        bucket: u32::try_from(json_usize(obj, "bucket")?).ok()?,
                        // Files written before the canonicalization pass (or
                        // under different rewrite rules) carry no / another
                        // `canon` and are skipped: their fingerprints
                        // describe compiled forms that no longer exist.
                        canon: u32::try_from(json_usize(obj, "canon")?)
                            .ok()
                            .filter(|&v| v == tc_circuit::CANON_VERSION)?,
                    },
                    json_str(obj, "backend")?,
                ))
            })();
            let Some((key, name)) = entry else { continue };
            let Ok(idx) = registry.index_of(name) else {
                continue;
            };
            if let std::collections::hash_map::Entry::Vacant(slot) = cache.entry(key) {
                slot.insert(idx);
                adopted += 1;
            }
        }
        Ok(adopted)
    }
}

/// Yields the top-level `{...}` objects inside the `"entries"` array of the
/// cache schema (no nesting — the writer never emits nested braces).
fn json_objects(text: &str) -> impl Iterator<Item = &str> {
    let body = text.split_once("\"entries\"").map_or("", |(_, rest)| rest);
    body.split('{')
        .skip(1)
        .filter_map(|chunk| chunk.split_once('}').map(|(obj, _)| obj))
}

/// Extracts `"field": <unsigned integer>` from a flat JSON object body.
fn json_usize(obj: &str, field: &str) -> Option<usize> {
    let tail = obj.split_once(&format!("\"{field}\""))?.1;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Extracts `"field": "<string>"` from a flat JSON object body.
fn json_str<'a>(obj: &'a str, field: &str) -> Option<&'a str> {
    let tail = obj.split_once(&format!("\"{field}\""))?.1;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    tail.strip_prefix('"')?.split('"').next()
}

/// The registered backends (with their registry indices) the tuner
/// considers for `circuit`: those that are
/// [candidates](crate::EvalBackend::candidate_for) — or every backend, if
/// none is.
fn candidates<'r>(
    registry: &'r BackendRegistry,
    circuit: &'r CompiledCircuit,
) -> impl Iterator<Item = (usize, &'r dyn EvalBackend)> + 'r {
    let backends = registry.backends();
    let any = backends.iter().any(|b| b.candidate_for(circuit));
    backends
        .iter()
        .map(|b| &**b)
        .enumerate()
        .filter(move |(_, b)| !any || b.candidate_for(circuit))
}

/// Ranks backends by their analytic cost model alone (no measurement).
pub(crate) fn rank_by_model(
    registry: &BackendRegistry,
    circuit: &CompiledCircuit,
    batch: usize,
) -> Result<usize> {
    candidates(registry, circuit)
        .map(|(i, b)| (i, b.cost_model(circuit, batch)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
        .ok_or(RuntimeError::NoBackend)
}

/// Deterministic pseudo-random probe inputs (xorshift64), so calibration is
/// reproducible and never depends on caller data.
fn probe_rows(num_inputs: usize, rows: usize) -> Vec<Vec<bool>> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    (0..rows)
        .map(|_| {
            (0..num_inputs)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 1 == 1
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_circuit::{CircuitBuilder, Wire};

    fn tiny() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(2);
        let g = b
            .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 1)
            .unwrap();
        b.mark_output(g);
        b.build().compile().unwrap()
    }

    #[test]
    fn calibration_runs_once_per_bucket() {
        let tuner = AutoTuner::new();
        let registry = BackendRegistry::standard();
        let cc = tiny();
        let first = tuner.pick(&registry, &cc, 1000).unwrap();
        assert_eq!(tuner.calibration_count(), 1);
        // Same bucket: served from cache.
        let again = tuner.pick(&registry, &cc, 900).unwrap();
        assert_eq!(first, again);
        assert_eq!(tuner.calibration_count(), 1);
        // A different bucket probes again.
        tuner.pick(&registry, &cc, 2).unwrap();
        assert_eq!(tuner.calibration_count(), 2);
    }

    #[test]
    fn empty_registry_is_an_error() {
        let tuner = AutoTuner::new();
        let registry = BackendRegistry::empty();
        assert!(matches!(
            tuner.pick(&registry, &tiny(), 10),
            Err(RuntimeError::NoBackend)
        ));
        assert!(matches!(
            rank_by_model(&registry, &tiny(), 10),
            Err(RuntimeError::NoBackend)
        ));
    }

    #[test]
    fn model_ranking_prefers_wide_lanes_for_large_batches() {
        let registry = BackendRegistry::standard();
        let cc = tiny();
        let large = rank_by_model(&registry, &cc, 100_000).unwrap();
        assert_eq!(registry.backends()[large].caps().name, "wide512");
        let single = rank_by_model(&registry, &cc, 1).unwrap();
        // One request never favours a wide pass over one scalar evaluation.
        assert_eq!(registry.backends()[single].caps().name, "scalar");
    }

    #[test]
    fn cache_round_trips_through_json() {
        let tuner = AutoTuner::new();
        let registry = BackendRegistry::standard();
        let cc = tiny();
        let picked_large = tuner.pick(&registry, &cc, 1000).unwrap();
        let picked_small = tuner.pick(&registry, &cc, 2).unwrap();
        assert_eq!(tuner.cached_decisions(), 2);

        let path = std::env::temp_dir().join("tcmm_tuner_roundtrip_test.json");
        tuner.save_json(&registry, &path).unwrap();

        // A fresh tuner warm-starts from the file: same picks, no probes.
        let warm = AutoTuner::new();
        assert_eq!(warm.load_json(&registry, &path).unwrap(), 2);
        assert_eq!(warm.cached_decisions(), 2);
        assert_eq!(warm.pick(&registry, &cc, 900).unwrap(), picked_large);
        assert_eq!(warm.pick(&registry, &cc, 2).unwrap(), picked_small);
        assert_eq!(warm.calibration_count(), 0, "warm start must not probe");
        // Entries already present are not re-adopted.
        assert_eq!(warm.load_json(&registry, &path).unwrap(), 0);
        assert_eq!(warm.cached_decisions(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_backends_in_a_saved_cache_are_skipped() {
        let registry = BackendRegistry::standard();
        let path = std::env::temp_dir().join("tcmm_tuner_unknown_backend_test.json");
        let canon = tc_circuit::CANON_VERSION;
        std::fs::write(
            &path,
            format!(
                r#"{{
  "version": 2,
  "entries": [
    {{"gates": 1, "bit_edges": 0, "inputs": 2, "unit_gates": 1, "pow2_gates": 0, "bucket": 10, "canon": {canon}, "backend": "gpu"}},
    {{"gates": 1, "bit_edges": 0, "inputs": 2, "unit_gates": 1, "pow2_gates": 0, "bucket": 2, "canon": {canon}, "backend": "scalar"}},
    {{"gates": 1, "bit_edges": 0, "inputs": 2, "unit_gates": 1, "pow2_gates": 0, "bucket": 4294967296, "canon": {canon}, "backend": "scalar"}},
    {{"gates": 1, "bit_edges": 0, "inputs": 2, "unit_gates": 1, "pow2_gates": 0, "bucket": 99999999999999, "canon": {canon}, "backend": "scalar"}},
    {{"gates": 1, "bit_edges": 0, "inputs": 2, "unit_gates": 1, "pow2_gates": 0, "bucket": 3, "canon": 999, "backend": "scalar"}},
    {{"gates": 1, "bit_edges": 0, "inputs": 2, "unit_gates": 1, "pow2_gates": 0, "bucket": 4, "backend": "scalar"}},
    {{"gates": 1, "inputs": 2, "backend": "scalar"}}
  ]
}}"#
            ),
        )
        .unwrap();
        let tuner = AutoTuner::new();
        // One well-formed known-backend entry adopted; the unknown backend,
        // the out-of-range buckets (> u32::MAX — a plain cast would truncate
        // 2^32 onto bucket 0), the stale and missing canonicalization
        // versions (pre-canon caches describe compiled forms that no longer
        // exist), and the malformed entry are all skipped.
        assert_eq!(tuner.load_json(&registry, &path).unwrap(), 1);
        assert_eq!(tuner.cached_decisions(), 1);
        std::fs::remove_file(&path).ok();
    }
}
