//! Spans recorded by the benchmark around its calls into each layer,
//! with the telemetry counters the program already keeps read at every
//! span boundary.

use crate::procfs;
use netsim::telemetry::Registry;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. Times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`scanner.sweep`, `campaign.epoch9`, ...).
    pub name: String,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Start, seconds.
    pub start_s: f64,
    /// End, seconds.
    pub end_s: f64,
    /// Process CPU seconds (user + system) spent inside the span.
    pub cpu_s: f64,
    /// Counter and histogram-count deltas of the registry the span was
    /// opened on, and gauge values at its end. Empty without a registry.
    pub counters: BTreeMap<String, u64>,
}

impl Span {
    /// Wall seconds.
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// A counter delta, 0 when the series never moved.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of every labelled series of one metric (`net.path.reset{...}`).
    pub fn counter_family(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| *k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
            .map(|(_, v)| v)
            .sum()
    }
}

/// An open span: returned by [`Tracer::begin`], consumed by
/// [`Tracer::end`].
#[must_use = "a span must be ended"]
pub struct Open {
    index: usize,
    cpu_s: f64,
    before: BTreeMap<String, u64>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// A JSON object of a map (the serde stand-in renders maps as pair lists).
pub fn object<K: ToString, V: serde::Serialize>(map: &BTreeMap<K, V>) -> Value {
    Value::Object(
        map.iter()
            .map(|(k, v)| (k.to_string(), serde_json::to_value(v)))
            .collect(),
    )
}

/// Histogram counts are read as `<key>#count`, gauges as `<key>#max`.
fn flatten(registry: Option<&Registry>) -> BTreeMap<String, u64> {
    let mut flat = BTreeMap::new();
    let Some(registry) = registry else {
        return flat;
    };
    let snap = registry.snapshot();
    flat.extend(snap.counters);
    for (key, h) in snap.histograms {
        flat.insert(format!("{key}#count"), h.count);
    }
    for (key, g) in snap.gauges {
        flat.insert(format!("{key}#max"), g);
    }
    flat
}

impl Tracer {
    /// Start recording; time 0 is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span under the innermost open one, reading `registry`'s
    /// counters as the baseline.
    pub fn begin(&mut self, name: impl Into<String>, registry: Option<&Registry>) -> Open {
        let before = flatten(registry);
        let cpu_s = procfs::cpu_s();
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.stack.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            cpu_s: 0.0,
            counters: BTreeMap::new(),
        });
        self.stack.push(index);
        Open {
            index,
            cpu_s,
            before,
        }
    }

    /// Close the innermost span, diffing `registry` against its baseline.
    pub fn end(&mut self, open: Open, registry: Option<&Registry>) -> &Span {
        let end_s = self.origin.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_s() - open.cpu_s;
        assert_eq!(
            self.stack.pop(),
            Some(open.index),
            "spans end innermost first"
        );
        let after = flatten(registry);
        let counters = after
            .into_iter()
            .map(|(key, v)| {
                let delta = if key.ends_with("#max") {
                    v
                } else {
                    v - open.before.get(&key).copied().unwrap_or(0)
                };
                (key, delta)
            })
            .collect();
        let span = &mut self.spans[open.index];
        span.end_s = end_s;
        span.cpu_s = cpu_s;
        span.counters = counters;
        span
    }

    /// Index of the first span named `name`, if any.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// The first span named `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Span> {
        self.find(name).map(|i| &self.spans[i])
    }

    /// Seconds of `index`'s interval that no child span covers.
    pub fn self_s(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::wall_s)
            .sum();
        self.spans[index].wall_s() - children
    }

    /// The spans as JSON, each with its self time.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    json!({
                        "name": s.name,
                        "parent": s.parent.map(|p| self.spans[p].name.clone()),
                        "start_s": s.start_s,
                        "end_s": s.end_s,
                        "self_s": self.self_s(i),
                        "cpu_s": s.cpu_s,
                        "counters": object(&s.counters),
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::telemetry::Labels;

    #[test]
    fn spans_nest_and_diff_counters() {
        let mut reg = Registry::enabled();
        reg.count("net.probe.sent", Labels::empty(), 5);
        let mut tr = Tracer::new();
        let outer = tr.begin("run", Some(&reg));
        let inner = tr.begin("scanner.sweep", Some(&reg));
        reg.count("net.probe.sent", Labels::empty(), 3);
        reg.count("net.path.reset", Labels::one("rule", "a"), 1);
        reg.count("net.path.reset", Labels::one("rule", "b"), 2);
        reg.record("net.tcp.connect_us", Labels::empty(), 10);
        let sweep = tr.end(inner, Some(&reg));
        assert_eq!(sweep.counter("net.probe.sent"), 3);
        assert_eq!(sweep.counter_family("net.path.reset"), 3);
        assert_eq!(sweep.counter("net.tcp.connect_us#count"), 1);
        assert_eq!(sweep.counter("missing"), 0);
        tr.end(outer, Some(&reg));
        assert_eq!(tr.get("scanner.sweep").map(|s| s.parent), Some(Some(0)));
        assert!(tr.self_s(0) >= 0.0 && tr.self_s(0) <= tr.get("run").map_or(0.0, Span::wall_s));
        assert_eq!(tr.get("run").map(|s| s.counter("net.probe.sent")), Some(3));
        let exported = tr.to_json();
        assert_eq!(exported.as_array().map(<[Value]>::len), Some(2));
    }
}
