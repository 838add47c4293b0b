//! The causal span tracer: sim-time-stamped spans with parent links.
//!
//! A [`Tracer`] is a cheap cloneable handle. [`Tracer::disabled`] is a
//! no-op — every emit method returns [`SpanId::NONE`] without touching
//! its attribute closure — so instrumented hot paths cost one branch
//! when tracing is off. [`Tracer::enabled`] records into a shared
//! buffer; all clones of one handle append to the same trace.
//!
//! Span ids are allocated in emission order starting at 1, and every
//! record carries the sim time it describes, so a trace is a pure
//! function of the simulated history: same seed, same trace bytes.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use tsuru_sim::SimTime;

/// Identifier of one span or instant within a trace.
///
/// `SpanId::NONE` (0) means "no parent" / "not traced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no parent, or emitted while tracing was disabled.
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One attribute value attached to a trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrVal {
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
}

impl From<u64> for AttrVal {
    fn from(v: u64) -> Self {
        AttrVal::U64(v)
    }
}

impl From<&str> for AttrVal {
    fn from(v: &str) -> Self {
        AttrVal::Str(v.to_string())
    }
}

impl From<String> for AttrVal {
    fn from(v: String) -> Self {
        AttrVal::Str(v)
    }
}

impl fmt::Display for AttrVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrVal::U64(v) => write!(f, "{v}"),
            AttrVal::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Attribute list: static keys, owned values.
pub type Attrs = Vec<(&'static str, AttrVal)>;

/// What a [`TraceRecord`] describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened at `t`; its matching [`RecordKind::End`] carries the
    /// same id.
    Start,
    /// A span with this id closed at `t`.
    End,
    /// A complete span emitted as one record: opened at `t`, closed at
    /// `end` (used when both edges are known at emission time, e.g. a
    /// WAN transfer whose arrival is scheduled when it is sent).
    Span {
        /// When the span closed.
        end: SimTime,
    },
    /// A point event at `t`.
    Instant,
}

/// One entry in a recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// What this record describes.
    pub kind: RecordKind,
    /// The span this record belongs to ([`RecordKind::End`] reuses the
    /// id allocated by its [`RecordKind::Start`]).
    pub id: SpanId,
    /// Causal parent, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Stable span name (see [`crate::spans`]). `End` records repeat the
    /// name of their `Start`.
    pub name: &'static str,
    /// Sim time of the event (start time for `Span` records).
    pub t: SimTime,
    /// Attributes. If a fault window was open when the record was
    /// emitted, the tracer appends a `("fault", <span id>)` attribute —
    /// this is the causal link between injected faults and the write
    /// lifecycles they perturb.
    pub attrs: Attrs,
}

#[derive(Debug, Default)]
struct TraceCore {
    next_id: u64,
    records: Vec<TraceRecord>,
    /// Stack of open fault spans; the innermost one is stamped onto
    /// every record emitted while it is open.
    fault_stack: Vec<SpanId>,
}

impl TraceCore {
    fn alloc(&mut self) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        id
    }

    fn stamp_fault(&self, attrs: &mut Attrs, name: &'static str) {
        if name == crate::spans::FAULT {
            return; // fault spans don't reference themselves
        }
        if let Some(&f) = self.fault_stack.last() {
            attrs.push(("fault", AttrVal::U64(f.0)));
        }
    }
}

/// Cheap cloneable tracing handle. See the module docs of
/// `telemetry/src/tracer.rs`.
#[derive(Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<TraceCore>>>);

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(core) => write!(f, "Tracer(on, {} records)", core.borrow().records.len()),
            None => f.write_str("Tracer(off)"),
        }
    }
}

impl Tracer {
    /// A no-op handle: every emit method is a single branch and returns
    /// [`SpanId::NONE`] without evaluating its attribute closure.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A recording handle. Clones share the same trace buffer.
    pub fn enabled() -> Self {
        Tracer(Some(Rc::new(RefCell::new(TraceCore {
            next_id: 1,
            ..TraceCore::default()
        }))))
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Open a span at `t` under `parent`. Returns its id, or
    /// [`SpanId::NONE`] when disabled.
    pub fn span_start(
        &self,
        name: &'static str,
        t: SimTime,
        parent: SpanId,
        attrs: impl FnOnce() -> Attrs,
    ) -> SpanId {
        let Some(core) = &self.0 else {
            return SpanId::NONE;
        };
        let mut core = core.borrow_mut();
        let id = core.alloc();
        let mut attrs = attrs();
        core.stamp_fault(&mut attrs, name);
        core.records.push(TraceRecord {
            kind: RecordKind::Start,
            id,
            parent,
            name,
            t,
            attrs,
        });
        id
    }

    /// Close span `id` at `t`. No-op when disabled or `id` is
    /// [`SpanId::NONE`].
    pub fn span_end(
        &self,
        name: &'static str,
        id: SpanId,
        t: SimTime,
        attrs: impl FnOnce() -> Attrs,
    ) {
        let Some(core) = &self.0 else { return };
        if id.is_none() {
            return;
        }
        let mut core = core.borrow_mut();
        core.records.push(TraceRecord {
            kind: RecordKind::End,
            id,
            parent: SpanId::NONE,
            name,
            t,
            attrs: attrs(),
        });
    }

    /// Emit a complete span (both edges known) under `parent`. Returns
    /// its id, or [`SpanId::NONE`] when disabled.
    pub fn span_complete(
        &self,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        parent: SpanId,
        attrs: impl FnOnce() -> Attrs,
    ) -> SpanId {
        let Some(core) = &self.0 else {
            return SpanId::NONE;
        };
        let mut core = core.borrow_mut();
        let id = core.alloc();
        let mut attrs = attrs();
        core.stamp_fault(&mut attrs, name);
        core.records.push(TraceRecord {
            kind: RecordKind::Span { end },
            id,
            parent,
            name,
            t: start,
            attrs,
        });
        id
    }

    /// Emit a point event at `t` under `parent`. Returns its id, or
    /// [`SpanId::NONE`] when disabled.
    pub fn instant(
        &self,
        name: &'static str,
        t: SimTime,
        parent: SpanId,
        attrs: impl FnOnce() -> Attrs,
    ) -> SpanId {
        let Some(core) = &self.0 else {
            return SpanId::NONE;
        };
        let mut core = core.borrow_mut();
        let id = core.alloc();
        let mut attrs = attrs();
        core.stamp_fault(&mut attrs, name);
        core.records.push(TraceRecord {
            kind: RecordKind::Instant,
            id,
            parent,
            name,
            t,
            attrs,
        });
        id
    }

    /// Push an open fault window: until the matching [`Tracer::pop_fault`],
    /// every emitted record gains a `("fault", id)` attribute.
    pub fn push_fault(&self, id: SpanId) {
        let Some(core) = &self.0 else { return };
        if id.is_none() {
            return;
        }
        core.borrow_mut().fault_stack.push(id);
    }

    /// Close the fault window `id` (removes it wherever it sits in the
    /// stack, so overlapping faults may heal in any order).
    pub fn pop_fault(&self, id: SpanId) {
        let Some(core) = &self.0 else { return };
        core.borrow_mut().fault_stack.retain(|&f| f != id);
    }

    /// The innermost open fault window, or [`SpanId::NONE`].
    pub fn current_fault(&self) -> SpanId {
        match &self.0 {
            Some(core) => core
                .borrow()
                .fault_stack
                .last()
                .copied()
                .unwrap_or(SpanId::NONE),
            None => SpanId::NONE,
        }
    }

    /// Every open fault window, outermost first, each with the `kind`
    /// attribute its `fault` span was opened with ("" when the span
    /// carried none). This is how an alert incident names the faults
    /// that were active when it fired.
    pub fn open_faults(&self) -> Vec<(SpanId, String)> {
        let Some(core) = &self.0 else {
            return Vec::new();
        };
        let core = core.borrow();
        core.fault_stack
            .iter()
            .map(|&id| {
                let kind = core
                    .records
                    .iter()
                    .find(|r| r.id == id && r.kind == RecordKind::Start)
                    .and_then(|r| {
                        r.attrs
                            .iter()
                            .find(|(k, _)| *k == "kind")
                            .map(|(_, v)| v.to_string())
                    })
                    .unwrap_or_default();
                (id, kind)
            })
            .collect()
    }

    /// Number of records so far (0 when disabled).
    pub fn len(&self) -> usize {
        match &self.0 {
            Some(core) => core.borrow().records.len(),
            None => 0,
        }
    }

    /// True when no records were emitted (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded trace (empty when disabled).
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.0 {
            Some(core) => core.borrow().records.clone(),
            None => Vec::new(),
        }
    }

    /// The last `n` records rendered as stable one-line strings — the
    /// "trailing trace window" the chaos auditor attaches to invariant
    /// violations.
    pub fn tail(&self, n: usize) -> Vec<String> {
        let Some(core) = &self.0 else {
            return Vec::new();
        };
        let core = core.borrow();
        let skip = core.records.len().saturating_sub(n);
        core.records.iter().skip(skip).map(render_record).collect()
    }

    /// Export the trace as JSON Lines (one record per line). Empty
    /// string when disabled.
    pub fn export_jsonl(&self) -> String {
        crate::export::export_jsonl(&self.records())
    }

    /// Export the trace as Chrome `trace_event` JSON for
    /// `chrome://tracing` / Perfetto. Always a valid document, even when
    /// disabled (empty event array).
    pub fn export_chrome(&self) -> String {
        crate::export::export_chrome(&self.records())
    }
}

/// Render one record as a stable one-line string, e.g.
/// `#12 start host_write t=0.000123s parent=#3 vol=a0:v1 lba=7`.
pub(crate) fn render_record(r: &TraceRecord) -> String {
    let mut line = match &r.kind {
        RecordKind::Start => format!("{} start {} t={}", r.id, r.name, r.t),
        RecordKind::End => format!("{} end {} t={}", r.id, r.name, r.t),
        RecordKind::Span { end } => {
            format!("{} span {} t={} end={}", r.id, r.name, r.t, end)
        }
        RecordKind::Instant => format!("{} instant {} t={}", r.id, r.name, r.t),
    };
    if !r.parent.is_none() {
        line.push_str(&format!(" parent={}", r.parent));
    }
    for (k, v) in &r.attrs {
        line.push_str(&format!(" {k}={v}"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_sim::SimDuration;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn disabled_tracer_is_inert_and_lazy() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let id = t.span_start("host_write", at(1), SpanId::NONE, || {
            panic!("attrs must not be built when disabled")
        });
        assert!(id.is_none());
        t.span_end("host_write", id, at(2), || panic!("lazy"));
        assert!(t
            .instant("snapshot", at(3), SpanId::NONE, || panic!("lazy"))
            .is_none());
        assert!(t.records().is_empty());
        assert!(t.tail(8).is_empty());
        assert_eq!(t.export_jsonl(), "");
    }

    #[test]
    fn ids_are_dense_and_clones_share_the_buffer() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        let a = t.span_start("host_write", at(1), SpanId::NONE, Vec::new);
        let b = t2.instant("snapshot", at(2), a, Vec::new);
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.records(), t2.records());
    }

    #[test]
    fn fault_stack_stamps_records() {
        let t = Tracer::enabled();
        let f = t.span_start("fault", at(1), SpanId::NONE, Vec::new);
        t.push_fault(f);
        assert_eq!(t.current_fault(), f);
        let w = t.span_start("host_write", at(2), SpanId::NONE, Vec::new);
        // Fault spans themselves are never stamped.
        let f2 = t.span_start("fault", at(3), SpanId::NONE, Vec::new);
        t.pop_fault(f);
        let w2 = t.span_start("host_write", at(4), SpanId::NONE, Vec::new);
        let recs = t.records();
        let attr_of = |id: SpanId| {
            recs.iter()
                .find(|r| r.id == id && r.kind == RecordKind::Start)
                .expect("record exists for this id")
                .attrs
                .clone()
        };
        assert_eq!(attr_of(w), vec![("fault", AttrVal::U64(f.0))]);
        assert!(attr_of(f2).is_empty());
        assert!(attr_of(w2).is_empty());
        assert!(t.current_fault().is_none());
    }

    #[test]
    fn open_faults_carry_their_kind_attr() {
        let t = Tracer::enabled();
        assert!(Tracer::disabled().open_faults().is_empty());
        let a = t.span_start("fault", at(1), SpanId::NONE, || {
            vec![("kind", "link-partition".into())]
        });
        let b = t.span_start("fault", at(2), SpanId::NONE, Vec::new);
        t.push_fault(a);
        t.push_fault(b);
        assert_eq!(
            t.open_faults(),
            vec![(a, "link-partition".to_string()), (b, String::new())]
        );
        t.pop_fault(a);
        assert_eq!(t.open_faults(), vec![(b, String::new())]);
    }

    #[test]
    fn overlapping_faults_heal_in_any_order() {
        let t = Tracer::enabled();
        let a = t.span_start("fault", at(1), SpanId::NONE, Vec::new);
        let b = t.span_start("fault", at(2), SpanId::NONE, Vec::new);
        t.push_fault(a);
        t.push_fault(b);
        t.pop_fault(a); // heal the outer one first
        assert_eq!(t.current_fault(), b);
        t.pop_fault(b);
        assert!(t.current_fault().is_none());
    }

    #[test]
    fn tail_renders_the_trailing_window() {
        let t = Tracer::enabled();
        for i in 0..10u64 {
            t.instant("pump_stall", at(i), SpanId::NONE, || {
                vec![("group", i.into())]
            });
        }
        let tail = t.tail(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0], "#8 instant pump_stall t=0.000007s group=7");
        assert_eq!(tail[2], "#10 instant pump_stall t=0.000009s group=9");
    }

    #[test]
    fn render_covers_all_kinds() {
        let t = Tracer::enabled();
        let s = t.span_start("host_write", at(1), SpanId::NONE, || {
            vec![("vol", "a0:v1".into()), ("lba", 7u64.into())]
        });
        t.span_end("host_write", s, at(5), || vec![("ack", "ok".into())]);
        t.span_complete("wan_transfer", at(2), at(4), s, Vec::new);
        let tail = t.tail(10);
        assert_eq!(tail[0], "#1 start host_write t=0.000001s vol=a0:v1 lba=7");
        assert_eq!(tail[1], "#1 end host_write t=0.000005s ack=ok");
        assert_eq!(
            tail[2],
            "#2 span wan_transfer t=0.000002s end=0.000004s parent=#1"
        );
    }
}
