//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once the run ends.
//!
//! A span has a name, the layer it belongs to, start and end times
//! relative to the recorder's creation, and the span that caused it.
//! A layer's self time is its spans' duration minus the part of each
//! interval that the span's children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use blitzcoin_sim::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called ("exp.fig4", "soc.engine.run", ...).
    pub name: String,
    /// The layer the call went into, named after its module.
    pub layer: &'static str,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Records spans in memory. Single-threaded: the benchmark opens spans
/// only from its own thread, around calls into the layers.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name` in `layer`; spans `f` opens
    /// become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// [`Recorder::span`] for a call that opens no spans of its own;
    /// also returns the span's duration in milliseconds.
    pub fn leaf<R>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let out = self.span(layer, name, |_| f());
        let s = self.spans.last().expect("span just recorded");
        (out, (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in milliseconds, summed over the layer's
    /// spans.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            *out.entry(s.layer).or_insert(0.0) += self_ns(s.start_ns, s.end_ns, kids) as f64 / 1e6;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete events, times in
    /// microseconds), which Perfetto and chrome://tracing open.
    pub fn to_trace_events(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id".to_string(), Json::Num(id as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::Num(p as f64)));
                }
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("cat".to_string(), Json::Str(s.layer.to_string())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("ts".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_string(), Json::Num(1.0)),
                    ("tid".to_string(), Json::Num(1.0)),
                    ("args".to_string(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".to_string(), Json::Arr(events))])
    }
}

/// The part of `[start, end)` that no child interval covers. Children
/// are clipped to the parent, and where they overlap one another the
/// shared stretch is subtracted once.
pub fn self_ns(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in children {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // [0, 100) with children [10, 40) and [30, 60): the union covers
        // 50, so self time is 50, not 100 - 30 - 30 = 40.
        assert_eq!(self_ns(0, 100, vec![(10, 40), (30, 60)]), 50);
        // nested and duplicated children add nothing extra
        assert_eq!(self_ns(0, 100, vec![(10, 60), (20, 30), (10, 60)]), 50);
        // children are clipped to the parent interval
        assert_eq!(self_ns(10, 20, vec![(0, 15), (18, 40)]), 3);
        assert_eq!(self_ns(0, 10, Vec::new()), 10);
    }

    #[test]
    fn recorder_nests_spans_and_attributes_self_time() {
        let mut rec = Recorder::default();
        rec.span("bench", "root", |rec| {
            rec.leaf("exp", "exp.a", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            rec.leaf("exp", "exp.b", || ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let by_layer = rec.self_ms_by_layer();
        assert!(by_layer["exp"] >= 5.0);
        let total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e6;
        assert!((by_layer["exp"] + by_layer["bench"] - total).abs() < 1e-9);
    }
}
