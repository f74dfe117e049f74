//! In-memory spans placed by the benchmark around calls into each layer's
//! public functions, plus the derived layer times that no span can measure
//! from outside the program. Written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: `name` is `<layer>` or `<layer>.<detail>`; the
/// root of a client call is named `call`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub call: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to (`None` for a call root).
    pub fn layer(&self) -> Option<&'static str> {
        let layer = self.name.split('.').next().unwrap_or(self.name);
        (layer != "call").then_some(layer)
    }
}

/// A layer time computed from two measurements rather than a span, moved
/// out of the self time of the layer named `from`.
#[derive(Debug, Clone)]
pub struct Derived {
    pub layer: &'static str,
    pub from: &'static str,
    pub call: u64,
    pub ns: u64,
}

/// Span recorder; spans stay in memory until [`Tracer::write`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    derived: Vec<Derived>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            derived: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, call: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            call,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.dur_ns()
    }

    /// Records a derived layer time (see [`Derived`]).
    pub fn derive(&mut self, layer: &'static str, from: &'static str, call: u64, ns: u64) {
        self.derived.push(Derived {
            layer,
            from,
            call,
            ns,
        });
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time per layer over the spans inside calls: a span's duration
    /// minus its children's, with derived times moved from their source
    /// layer to their own. The `call` entry holds what no layer explains.
    pub fn self_times(&self) -> BTreeMap<&'static str, i128> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut in_call = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            in_call[i] = s.name == "call" || s.parent.is_some_and(|p| in_call[p]);
        }
        let mut out: BTreeMap<&'static str, i128> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if in_call[i] {
                let own = i128::from(s.dur_ns()) - i128::from(child_ns[i]);
                *out.entry(s.layer().unwrap_or("call")).or_default() += own;
            }
        }
        for d in &self.derived {
            *out.entry(d.from).or_default() -= i128::from(d.ns);
            *out.entry(d.layer).or_default() += i128::from(d.ns);
        }
        out
    }

    /// Writes every span and derived time as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"call\": {}}}",
                s.name, s.start_ns, s.end_ns, s.call
            );
        }
        for d in &self.derived {
            let _ = writeln!(
                out,
                "{{\"derived\": \"{}\", \"from\": \"{}\", \"call\": {}, \"ns\": {}}}",
                d.layer, d.from, d.call, d.ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_moves_derived_time() {
        let mut t = Tracer::default();
        let call = t.begin("call", None, 0);
        let enc = t.begin("app.encode", Some(call), 0);
        t.end(enc);
        let serve = t.begin("session", Some(call), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let serve_ns = t.end(serve);
        t.end(call);
        t.derive("backend", "session", 0, serve_ns / 2);
        let st = t.self_times();
        let total: i128 = st.values().sum();
        assert_eq!(total, i128::from(t.total_ns("call")));
        assert_eq!(st["backend"], i128::from(serve_ns / 2));
        assert_eq!(st["session"], i128::from(serve_ns - serve_ns / 2));
    }
}
