//! The traced run's span store: spans are kept in memory while the workload
//! runs and written out once, at exit. A span is recorded from the
//! benchmark's side of a call into a layer (`source: "bench"`), or
//! synthesised from the deltas of an engine's public `phases()` accessor
//! (`source: "engine"`): those are laid end to end from their parent's
//! start, so their durations are the engine's but their offsets are not
//! measured.

use crate::measure::median;
use serde::ser::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// At most this many spans are written to a trace file; all of them count
/// towards the metrics and the layer shares.
const MAX_SPANS_WRITTEN: usize = 60_000;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The crate the time belongs to (`core`, `graph`, `shard`, `cluster`,
    /// `serve`), or `bench` for the harness's own loop.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The gossip round (or query batch) the span belongs to.
    pub round: u64,
    /// `bench`: timed around a call. `engine`: from `phases()` deltas.
    pub source: &'static str,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Records a span timed around a call; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u32>,
        round: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            round,
            source: "bench",
        })
    }

    /// Lays engine-reported phase durations end to end under `parent`.
    pub fn engine_children(&mut self, parent: u32, phases: &[(&'static str, &'static str, u64)]) {
        let (round, mut cursor) = {
            let p = &self.spans[parent as usize];
            (p.round, p.start_ns)
        };
        for &(name, layer, nanos) in phases {
            if nanos == 0 {
                continue;
            }
            self.push(Span {
                name,
                layer,
                start_ns: cursor,
                end_ns: cursor + nanos,
                parent: Some(parent),
                round,
                source: "engine",
            });
            cursor += nanos;
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover (children are clipped to the parent, and
    /// overlapping children are counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let hi = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                if hi > lo {
                    kids[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Each layer's share of a round: for every root span named `root`, the
    /// self time of the spans below it (itself included) is summed by layer
    /// and divided by the root's duration; the median over the roots is
    /// reported, layers sorted by name.
    pub fn layer_shares(&self, root: &str) -> Vec<(&'static str, f64)> {
        let self_ns = self.self_ns();
        let root_of = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) => i = p as usize,
                None => return i,
            }
        };
        // root span -> layer -> self nanoseconds below that root
        let mut by_root: BTreeMap<usize, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let r = root_of(i);
            if self.spans[r].name == root {
                *by_root.entry(r).or_default().entry(s.layer).or_default() += self_ns[i];
            }
        }
        let layers: BTreeSet<&'static str> =
            by_root.values().flat_map(|m| m.keys().copied()).collect();
        layers
            .into_iter()
            .map(|layer| {
                let shares: Vec<f64> = by_root
                    .iter()
                    .map(|(&r, m)| {
                        let dur = (self.spans[r].end_ns - self.spans[r].start_ns).max(1);
                        m.get(layer).copied().unwrap_or(0) as f64 / dur as f64
                    })
                    .collect();
                (layer, median(&shares))
            })
            .collect()
    }

    /// The trace file's content: the spans (up to the cap) plus `header`.
    pub fn to_json(&self, header: Vec<(String, Value)>) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .take(MAX_SPANS_WRITTEN)
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("layer".into(), Value::Str(s.layer.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("round".into(), Value::UInt(s.round)),
                    ("source".into(), Value::Str(s.source.into())),
                ])
            })
            .collect();
        let mut obj = header;
        obj.push((
            "spans_recorded".into(),
            Value::UInt(self.spans.len() as u64),
        ));
        obj.push(("spans_written".into(), Value::UInt(spans.len() as u64)));
        obj.push(("spans".into(), Value::Array(spans)));
        Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> Span {
        Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            round: 1,
            source: "bench",
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut t = Tracer::new();
        let round = t.push(raw("round", "bench", 0, 100, None));
        let propose = t.push(raw("propose", "core", 5, 45, Some(round)));
        t.push(raw("apply", "graph", 50, 90, Some(round)));
        // A grandchild takes time from its parent only, not from the root.
        t.push(raw("draw", "core", 10, 20, Some(propose)));
        assert_eq!(t.self_ns(), vec![20, 30, 40, 10]);
        let shares = t.layer_shares("round");
        assert_eq!(shares, vec![("bench", 0.2), ("core", 0.4), ("graph", 0.4)]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let mut t = Tracer::new();
        let step = t.push(raw("step", "shard", 100, 200, None));
        // Engine phases laid end to end may run past the step that caused
        // them (worker phases overlap the supervisor's waiting).
        t.engine_children(
            step,
            &[
                ("propose", "core", 60),
                ("skipped", "shard", 0),
                ("drain", "shard", 70),
            ],
        );
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.self_ns()[step as usize], 0);
        t.push(raw("a", "graph", 0, 50, None));
        let p = t.push(raw("p", "bench", 0, 10, None));
        t.push(raw("c1", "core", 2, 6, Some(p)));
        t.push(raw("c2", "core", 4, 8, Some(p)));
        assert_eq!(t.self_ns()[p as usize], 4);
    }
}
