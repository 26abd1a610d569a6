//! Op samples and spans, recorded from the benchmark's own code around each
//! call into a layer, kept in memory until the run ends.

use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to (spans of one op share it).
    pub op: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One primary operation: its schedule class and wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSample {
    pub class: u8,
    pub ns: u64,
}

/// An open span; `None` when the recorder is not tracing.
#[must_use]
pub struct Open(Option<u32>);

/// An open op.
#[must_use]
pub struct OpenOp {
    class: u8,
    start: Instant,
    span: Open,
}

/// Collects the samples of one round.  Ops are always timed; spans are only
/// recorded while tracing, so an untraced round pays one clock pair per op.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    pub ops: Vec<OpSample>,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    current_op: u32,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn new(origin: Instant, tracing: bool) -> Self {
        Self::with_capacity(origin, tracing, 0)
    }

    /// A recorder that expects `ops` ops: the sample list is sized once, so
    /// that its growth does not show in the peak memory of a run.
    pub fn with_capacity(origin: Instant, tracing: bool, ops: usize) -> Self {
        Recorder {
            origin,
            tracing,
            ops: Vec::with_capacity(ops),
            spans: Vec::new(),
            stack: Vec::new(),
            current_op: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// A recorder for a second thread of the same round.
    pub fn sibling(&self) -> Recorder {
        Recorder::new(self.origin, self.tracing)
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.tracing {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.current_op,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let end_ns = self.now_ns();
            self.spans[index as usize].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
    }

    /// Time one call into a layer.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = call();
        self.end(open);
        out
    }

    /// Start a primary op of the given schedule class.  Its id is its index
    /// in `ops`; spans opened after it ends and before the next op starts
    /// (probes outside the timed region) still carry it.
    pub fn begin_op(&mut self, class: u8) -> OpenOp {
        self.current_op = self.ops.len() as u32;
        let span = self.begin("op");
        OpenOp {
            class,
            start: Instant::now(),
            span,
        }
    }

    pub fn end_op(&mut self, op: OpenOp) {
        let ns = op.start.elapsed().as_nanos() as u64;
        self.end(op.span);
        self.ops.push(OpSample { class: op.class, ns });
        self.attempted += 1;
    }

    /// Attribute the following spans to op `op`: a second thread's reads
    /// belong to the writer's op that published what they see.
    pub fn set_op(&mut self, op: u32) {
        self.current_op = op;
    }

    /// Count a check that is not a primary op (a read beside the writes).
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Record a failed or wrong operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what());
        }
    }

    /// Check one output against its oracle.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.fail(|| format!("{what}: got {got:?}, oracle says {want:?}"));
        }
    }

    /// Fold in what another thread of the same round recorded.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover.  Children run one after another inside their parent, so their
/// durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("parse", 10, 30, 0),
            span("install", 30, 90, 0),
            span("stratify", 40, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn spans_nest_under_the_open_op_and_share_its_id() {
        let mut rec = Recorder::new(Instant::now(), true);
        for _ in 0..2 {
            let op = rec.begin_op(3);
            rec.span("a", || ());
            let outer = rec.begin("b");
            rec.span("c", || ());
            rec.end(outer);
            rec.end_op(op);
            rec.span("probe", || ());
        }
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", NO_PARENT, 0),
                ("a", 0, 0),
                ("b", 0, 0),
                ("c", 2, 0),
                ("probe", NO_PARENT, 0),
                ("op", NO_PARENT, 1),
                ("a", 5, 1),
                ("b", 5, 1),
                ("c", 7, 1),
                ("probe", NO_PARENT, 1),
            ]
        );
        assert_eq!(rec.ops.len(), 2);
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn an_untraced_recorder_keeps_ops_but_no_spans() {
        let mut rec = Recorder::new(Instant::now(), false);
        let op = rec.begin_op(1);
        assert_eq!(rec.span("a", || 7), 7);
        rec.end_op(op);
        assert!(rec.spans.is_empty());
        assert_eq!(rec.ops.len(), 1);
        assert_eq!(rec.ops[0].class, 1);
    }

    #[test]
    fn absorbing_a_sibling_rebases_its_parents() {
        let mut a = Recorder::new(Instant::now(), true);
        a.span("x", || ());
        let mut b = a.sibling();
        let outer = b.begin("y");
        b.span("z", || ());
        b.end(outer);
        b.fail(|| "wrong".into());
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!((a.failed, a.failures.len()), (1, 1));
    }
}
