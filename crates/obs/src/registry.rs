//! The metric registry and Prometheus text exposition.
//!
//! Handle resolution (`counter`/`gauge`/`histogram`) takes a read lock,
//! and a write lock on first registration of a series; instrumented code
//! resolves handles once (or per thread, see [`crate::counter`]) and the
//! increments themselves never touch the registry again.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSpec};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Bound on the number of series (distinct label sets) one metric name
/// may register. Per-identity and per-endpoint labels grow with traffic;
/// past the cap new label sets get detached instruments and are tallied
/// in `sift_obs_labels_dropped_total{metric=…}`.
pub const DEFAULT_SERIES_CAP_PER_NAME: usize = 512;

/// The overflow counter label-capped registrations are tallied in.
pub const LABELS_DROPPED_METRIC: &str = "sift_obs_labels_dropped_total";

/// A metric series identifier: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels for canonical identity.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_owned(),
            labels,
        }
    }

    /// The metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sorted label pairs.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }
}

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A collection of metric series, rendered together as Prometheus text.
///
/// Cardinality is bounded: each metric name may register at most
/// [`DEFAULT_SERIES_CAP_PER_NAME`] label sets. Registrations past the cap
/// return a working but *detached* instrument — callers never crash, the
/// series just stays out of the exposition — and increment
/// `sift_obs_labels_dropped_total{metric=…}`.
#[derive(Debug, Default)]
pub struct Registry {
    // BTreeMap keeps exposition deterministic and groups a metric's series
    // (same name, different labels) together.
    series: RwLock<BTreeMap<MetricKey, Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// True when registering `key` must be refused: its metric name is
    /// at the cap and `key` is not among the existing series. Tallies
    /// the refusal in `sift_obs_labels_dropped_total{metric=…}`
    /// (inserted directly, itself exempt from the cap).
    fn over_cap(&self, series: &mut BTreeMap<MetricKey, Instrument>, key: &MetricKey) -> bool {
        if series.contains_key(key) {
            return false;
        }
        let count = series
            .range(MetricKey::new(key.name(), &[])..)
            .take_while(|(k, _)| k.name() == key.name())
            .count();
        if count < DEFAULT_SERIES_CAP_PER_NAME {
            return false;
        }
        let dropped = MetricKey::new(LABELS_DROPPED_METRIC, &[("metric", key.name())]);
        if let Instrument::Counter(c) = series
            .entry(dropped)
            .or_insert_with(|| Instrument::Counter(Counter::new()))
        {
            c.inc();
        }
        true
    }

    /// The counter for `name` + `labels`, registering it on first use.
    ///
    /// Panics if the series is already registered as a different kind.
    #[expect(clippy::panic, reason = "documented: a kind mismatch is a caller bug")]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        if let Some(i) = self.series.read().get(&key) {
            return match i {
                Instrument::Counter(c) => c.clone(),
                other => panic!("{name} already registered as a {}", other.kind()),
            };
        }
        let mut series = self.series.write();
        if self.over_cap(&mut series, &key) {
            return Counter::new();
        }
        match series
            .entry(key)
            .or_insert_with(|| Instrument::Counter(Counter::new()))
        {
            Instrument::Counter(c) => c.clone(),
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// The gauge for `name` + `labels`, registering it on first use.
    #[expect(clippy::panic, reason = "documented: a kind mismatch is a caller bug")]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        if let Some(i) = self.series.read().get(&key) {
            return match i {
                Instrument::Gauge(g) => g.clone(),
                other => panic!("{name} already registered as a {}", other.kind()),
            };
        }
        let mut series = self.series.write();
        if self.over_cap(&mut series, &key) {
            return Gauge::new();
        }
        match series
            .entry(key)
            .or_insert_with(|| Instrument::Gauge(Gauge::new()))
        {
            Instrument::Gauge(g) => g.clone(),
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// The histogram for `name` + `labels`, registering it with `spec` on
    /// first use (later calls keep the original layout).
    #[expect(clippy::panic, reason = "documented: a kind mismatch is a caller bug")]
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        spec: &HistogramSpec,
    ) -> Histogram {
        let key = MetricKey::new(name, labels);
        if let Some(i) = self.series.read().get(&key) {
            return match i {
                Instrument::Histogram(h) => h.clone(),
                other => panic!("{name} already registered as a {}", other.kind()),
            };
        }
        let mut series = self.series.write();
        if self.over_cap(&mut series, &key) {
            return Histogram::with_spec(spec);
        }
        match series
            .entry(key)
            .or_insert_with(|| Instrument::Histogram(Histogram::with_spec(spec)))
        {
            Instrument::Histogram(h) => h.clone(),
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.read().len()
    }

    /// True when no series are registered.
    pub fn is_empty(&self) -> bool {
        self.series.read().is_empty()
    }

    /// Renders every series in the Prometheus text exposition format
    /// (`# TYPE` comments, `_bucket{le=…}`/`_sum`/`_count` for
    /// histograms), deterministically ordered.
    #[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
    pub fn render_prometheus(&self) -> String {
        let series = self.series.read();
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, instrument) in series.iter() {
            if last_name != Some(key.name()) {
                let _ = writeln!(out, "# TYPE {} {}", key.name(), instrument.kind());
                last_name = Some(key.name());
            }
            match instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        key.name(),
                        label_block(key.labels(), None),
                        c.get()
                    );
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        key.name(),
                        label_block(key.labels(), None),
                        g.get()
                    );
                }
                Instrument::Histogram(h) => {
                    let state = h.state();
                    let mut cumulative = 0u64;
                    for (bound, n) in state.bounds.iter().zip(&state.buckets) {
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            key.name(),
                            label_block(key.labels(), Some(&format_bound(*bound))),
                            cumulative
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        key.name(),
                        label_block(key.labels(), Some("+Inf")),
                        state.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name(),
                        label_block(key.labels(), None),
                        state.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        key.name(),
                        label_block(key.labels(), None),
                        state.count
                    );
                }
            }
        }
        out
    }
}

/// Renders `{k="v",…}` (empty string when no labels and no `le`).
#[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn format_bound(b: f64) -> String {
    // Shortest-roundtrip Display keeps the exposition stable and readable.
    format!("{b}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_shares_instrument() {
        let r = Registry::new();
        let a = r.counter("reqs_total", &[("route", "/x")]);
        // Label order must not matter.
        let b = r.counter("reqs_total", &[("route", "/x")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("m", &[]);
        let _ = r.gauge("m", &[]);
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let r = Registry::new();
        r.counter("a_total", &[("route", "/f"), ("status", "200")])
            .add(3);
        r.gauge("b_active", &[]).set(-2);
        let h = r.histogram("c_seconds", &[], &HistogramSpec::explicit(vec![0.5, 1.0]));
        h.observe(0.25);
        h.observe(0.75);
        h.observe(9.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE a_total counter"), "{text}");
        assert!(
            text.contains("a_total{route=\"/f\",status=\"200\"} 3"),
            "{text}"
        );
        assert!(text.contains("b_active -2"), "{text}");
        assert!(text.contains("c_seconds_bucket{le=\"0.5\"} 1"), "{text}");
        assert!(text.contains("c_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("c_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("c_seconds_sum 10"), "{text}");
        assert!(text.contains("c_seconds_count 3"), "{text}");
    }

    #[test]
    fn label_values_escaped() {
        let r = Registry::new();
        r.counter("esc_total", &[("q", "say \"hi\"\\n")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains(r#"q="say \"hi\"\\n""#), "{text}");
    }

    #[test]
    fn series_cap_bounds_cardinality_and_counts_drops() {
        let r = Registry::new();
        let cap = DEFAULT_SERIES_CAP_PER_NAME;
        let id = |i: usize| i.to_string();
        let series: Vec<Counter> = (0..cap)
            .map(|i| r.counter("capped_total", &[("id", &id(i))]))
            .collect();
        // One label set past the cap: refused, detached, tallied.
        let over = r.counter("capped_total", &[("id", &id(cap))]);
        series[0].inc();
        series[1].inc();
        over.add(7); // must not crash, must not render

        // Existing series resolve normally even at the cap.
        let again = r.counter("capped_total", &[("id", "0")]);
        again.inc();
        assert_eq!(series[0].get(), 2);
        let text = r.render_prometheus();
        assert!(text.contains("capped_total{id=\"0\"} 2"), "{text}");
        assert!(text.contains("capped_total{id=\"1\"} 1"), "{text}");
        assert!(!text.contains(&format!("id=\"{cap}\"")), "{text}");
        assert!(
            text.contains("sift_obs_labels_dropped_total{metric=\"capped_total\"} 1"),
            "{text}"
        );
        // Repeated refusals keep counting.
        let _ = r.counter("capped_total", &[("id", &id(cap + 1))]);
        assert_eq!(
            r.counter(LABELS_DROPPED_METRIC, &[("metric", "capped_total")])
                .get(),
            2
        );
    }

    #[test]
    fn series_cap_applies_to_gauges_and_histograms() {
        let r = Registry::new();
        let spec = HistogramSpec::explicit(vec![1.0]);
        let cap = DEFAULT_SERIES_CAP_PER_NAME;
        for i in 0..cap {
            let _ = r.gauge("g_active", &[("e", &i.to_string())]);
            let _ = r.histogram("h_seconds", &[("e", &i.to_string())], &spec);
        }
        let over = cap.to_string();
        r.gauge("g_active", &[("e", &over)]).set(9);
        r.histogram("h_seconds", &[("e", &over)], &spec)
            .observe(0.5);
        let text = r.render_prometheus();
        assert!(!text.contains(&format!("e=\"{over}\"")), "{text}");
        assert!(
            text.contains("sift_obs_labels_dropped_total{metric=\"g_active\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("sift_obs_labels_dropped_total{metric=\"h_seconds\"} 1"),
            "{text}"
        );
    }
}
