//! Harness-side spans around the calls into each layer.
//!
//! Spans are kept in memory and written once, at exit. A span names the
//! span that caused it (`parent`) and the run it belongs to (`run_id`);
//! a layer's self time is its span minus the part its children cover.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::layers::Json;
use crate::num::nanos;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span in the tracer's list.
    pub parent: Option<usize>,
    /// One join or one request.
    pub run_id: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; a disabled tracer records nothing and costs a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`--trace 1`) or ignores (`--trace 0`) spans.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        nanos(self.epoch.elapsed())
    }

    /// Times `work` as a span and returns its result with the span's index
    /// (`None` when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        run_id: u64,
        work: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return work(None);
        }
        let id = self.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            run_id,
        });
        let result = work(Some(id));
        let end = self.now_ns();
        self.lock()[id].end_ns = end;
        result
    }

    /// Adds spans built elsewhere (the request spans of a load phase);
    /// `parent` indices in `batch` are relative to the batch.
    pub fn extend(&self, batch: Vec<Span>) {
        if !self.enabled {
            return;
        }
        let mut spans = self.lock();
        let base = spans.len();
        spans.extend(batch.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes the spans as a JSON array of
    /// `{name,start_ns,end_ns,parent,run_id,self_ns}`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let rows = spans
            .iter()
            .zip(&self_ns)
            .map(|(s, own)| {
                Json::obj()
                    .with("name", Json::str(s.name))
                    .with("start_ns", Json::num_u64(s.start_ns))
                    .with("end_ns", Json::num_u64(s.end_ns))
                    .with("parent", s.parent.map_or(Json::Null, Json::num_usize))
                    .with("run_id", Json::num_u64(s.run_id))
                    .with("self_ns", Json::num_u64(*own))
            })
            .collect();
        let mut out = std::fs::File::create(path)?;
        out.write_all(Json::Arr(rows).render().as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no tracer method panics while holding the span list")
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total duration of the direct children of `parent` named `name`.
pub fn child_total_ns(spans: &[Span], parent: usize, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 ns and pokes 20 ns past the root.
            span("b", 30, 120, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        // Children cover [10, 100) of the root: 90 ns.
        assert_eq!(self_times(&spans), vec![10, 22, 90, 8]);
        assert_eq!(child_total_ns(&spans, 0, "a"), 30);
        assert_eq!(child_total_ns(&spans, 0, "missing"), 0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, |id| id), None);
        off.extend(vec![span("y", 0, 1, None)]);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_batches_are_rebased() {
        let on = Tracer::new(true);
        let inner = on.span("outer", None, 7, |outer| {
            on.span("inner", outer, 7, |inner| inner)
        });
        assert_eq!(inner, Some(1));
        on.extend(vec![
            span("req", 5, 9, None),
            span("connect", 5, 6, Some(0)),
        ]);
        let spans = on.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
