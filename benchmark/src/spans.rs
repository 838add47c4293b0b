//! Host-time spans recorded from the benchmark's own files, around each
//! call into a layer (choosing-metrics §4). Kept in memory, written out
//! once when the traced run ends. Spans inside the program are a later
//! issue (ROADMAP item 5).

use std::time::Instant;

/// One closed span. `parent` indexes into the same record list.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Workload the span belongs to (the shared identifier of one run).
    pub workload: &'static str,
    /// Layer (= crate) the wrapped call belongs to.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
}

/// The span recorder. Disabled (the untraced run) it only runs the
/// wrapped closure: no clock read, no record.
pub struct Spans {
    enabled: bool,
    workload: &'static str,
    t0: Instant,
    open: Vec<usize>,
    records: Vec<SpanRec>,
}

impl Spans {
    /// A recorder for `workload`; records only when `enabled`.
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Spans {
            enabled,
            workload,
            t0: Instant::now(),
            open: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Run `f` inside a span. Nested calls through the `&mut Spans` handed
    /// to `f` become children.
    pub fn scope<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.records.len();
        self.records.push(SpanRec {
            workload: self.workload,
            layer,
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.records[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Every closed span, in start order.
    pub fn records(&self) -> &[SpanRec] {
        &self.records
    }

    /// Self time of each span: its duration minus the part its children
    /// cover (children never overlap: the recorder is single-threaded).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .records
            .iter()
            .map(|r| r.end_ns.saturating_sub(r.start_ns))
            .collect();
        for r in &self.records {
            if let Some(p) = r.parent {
                own[p] = own[p].saturating_sub(r.end_ns.saturating_sub(r.start_ns));
            }
        }
        own
    }

    /// Self time summed per `(layer, name)`, seconds, sorted by key, with
    /// the number of spans that went into each row.
    pub fn self_time_by_call(&self) -> Vec<(&'static str, &'static str, f64, usize)> {
        let own = self.self_times_ns();
        let mut rows: Vec<(&'static str, &'static str, f64, usize)> = Vec::new();
        for (r, ns) in self.records.iter().zip(own) {
            match rows.iter_mut().find(|x| x.0 == r.layer && x.1 == r.name) {
                Some(row) => {
                    row.2 += ns as f64 / 1e9;
                    row.3 += 1;
                }
                None => rows.push((r.layer, r.name, ns as f64 / 1e9, 1)),
            }
        }
        rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        rows
    }

    /// The span list as one JSON array (hand-built: no JSON crate is
    /// vendored).
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, (r, self_ns)) in self.records.iter().zip(own).enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"workload\": \"{}\", \"layer\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}}}{}\n",
                r.workload,
                r.layer,
                r.name,
                r.start_ns,
                r.end_ns,
                if i + 1 == self.records.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut s = Spans::new("w", true);
        s.scope("core", "outer", |s| {
            s.scope("storage", "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let recs = s.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].parent, Some(0));
        let own = s.self_times_ns();
        let outer = recs[0].end_ns - recs[0].start_ns;
        let inner = recs[1].end_ns - recs[1].start_ns;
        assert_eq!(own[0], outer - inner);
        assert_eq!(own[1], inner);
        assert!(s.to_json().contains("\"parent\": 0"));

        let mut off = Spans::new("w", false);
        assert_eq!(off.scope("core", "x", |_| 7), 7);
        assert!(off.records().is_empty());
    }
}
