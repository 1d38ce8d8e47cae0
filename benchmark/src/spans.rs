//! In-memory spans for the traced run.
//!
//! Spans are recorded from the harness's own files, around every call
//! into a layer of the program: name, start, end, the span that caused
//! it, and the request it belongs to. One clock origin and one id space
//! per run; the spans are written out as JSON lines when the run ends.
//! A disabled recorder turns every call into one branch, so the untraced
//! run executes the same workload code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder; `NONE` when the recorder is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Request the span belongs to (0 for phase-level spans).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A count taken at the same boundary (items, bytes, distances).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now. Ids come from one counter for the whole run, so
    /// they stay unique across phases.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            request,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        SpanId(id)
    }

    /// Close a span now, recording `count` at the same boundary. Returns
    /// the span's duration in nanoseconds (0 when disabled).
    #[inline]
    pub fn close(&mut self, id: SpanId, count: u64) -> u64 {
        if id == SpanId::NONE {
            return 0;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.count = count;
        span.duration_ns()
    }

    /// Record a span whose interval was measured elsewhere (both ends
    /// relative to the recorder's origin via [`Recorder::offset_ns`]).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            request,
            name,
            start_ns,
            end_ns,
            count,
        });
        SpanId(id)
    }

    /// Nanoseconds from the recorder's origin to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// connections in flight) and may stick out of the parent; the covered
/// part is the union of the child intervals clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time and call count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let slot = out.entry(s.name).or_default();
        slot.0 += self_ns;
        slot.1 += 1;
    }
    out
}
