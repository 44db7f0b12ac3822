//! Harness-side spans of the traced run: recorded around calls into each
//! layer's public functions, kept in memory, written out when the run
//! ends. Spans inside the program are a later change.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation the span belongs to; spans of one operation share it.
    /// `None` on a span that covers a whole pass over the operations.
    pub op: Option<usize>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: Option<usize>) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_us = self.now_us();
        self.spans[id].duration_us() / 1e3
    }

    /// Run `f` inside a span and return its value with the span's
    /// duration in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, op);
        let value = f();
        (value, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        let selfs = self_times_us(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_us))| {
                    Json::obj([
                        ("id", Json::from(id)),
                        ("name", Json::from(s.name)),
                        ("op", s.op.map_or(Json::Null, Json::from)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        ("self_us", Json::Num(self_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are not counted twice, and a
/// child reaching outside its parent only counts inside it).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_us.max(parent.start_us);
            let hi = s.end_us.min(parent.end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::MIN;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_us: start,
            end_us: end,
            parent,
            op: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(20.0, 50.0, Some(0)),  // overlaps the first child
            span(90.0, 120.0, Some(0)), // reaches past the parent
            span(12.0, 18.0, Some(1)),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 40.0 - 10.0);
        assert_eq!(selfs[1], 20.0 - 6.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[4], 6.0);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::new();
        let root = rec.begin("op", None, Some(7));
        let (v, ms) = rec.time("embed", Some(root), Some(7), || 3 + 4);
        rec.end(root);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].end_us >= spans[1].end_us);
        let json = rec.to_json();
        let first = &json.as_array().unwrap()[0];
        assert_eq!(first.get("name").unwrap().as_str(), Some("op"));
        assert_eq!(first.get("op").unwrap().as_f64(), Some(7.0));
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
    }
}
