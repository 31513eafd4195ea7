//! Frozen view of an [`crate::Obs`] hub: every registered metric plus the
//! event log, renderable as JSON or Prometheus-style text.

use crate::events::Event;
use crate::hist::HistogramSnapshot;

/// One coherent export of the hub's state (see [`crate::Obs::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// `(name, value)` for every registered counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every registered histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map our dotted/dashed
/// names onto that alphabet.
fn sanitize_prom(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl ObsSnapshot {
    /// Every metric name in the snapshot (counters, gauges, histograms),
    /// in export order.
    pub fn metric_names(&self) -> Vec<String> {
        self.counters
            .iter()
            .map(|(k, _)| k.clone())
            .chain(self.gauges.iter().map(|(k, _)| k.clone()))
            .chain(self.histograms.iter().map(|(k, _)| k.clone()))
            .collect()
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name:
    /// {count,sum,max,mean,p50,p90,p99}}, "events": [..]}`. The output
    /// parses with [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(k), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                concat!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},",
                    "\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}"
                ),
                escape_json(k),
                h.count(),
                h.sum(),
                h.max(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
            ));
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"at_micros\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                e.seq,
                e.at_micros,
                escape_json(&e.kind),
                escape_json(&e.detail),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders the metrics (not events) as Prometheus text exposition:
    /// counters and gauges as plain samples, histograms as `_count`,
    /// `_sum`, `_max`, and `{quantile="..."}` summary lines.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = sanitize_prom(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = sanitize_prom(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let name = sanitize_prom(k);
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("{name}_count {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_max {}\n", h.max()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::json;
    use crate::Obs;

    fn sample_obs() -> Obs {
        let obs = Obs::new();
        obs.counter("engine.flushes").add(3);
        obs.gauge("engine.tables").set(12);
        let h = obs.histogram("span_us.flush");
        for v in [100, 200, 300] {
            h.record(v);
        }
        obs.event("flush", "seg=2");
        obs
    }

    #[test]
    fn json_roundtrips_all_registered_metrics() {
        let snap = sample_obs().snapshot();
        let v = json::parse(&snap.to_json()).unwrap();
        let counters = v.get("counters").and_then(|c| c.as_obj()).unwrap();
        assert_eq!(
            counters.get("engine.flushes").and_then(|x| x.as_f64()),
            Some(3.0)
        );
        let gauges = v.get("gauges").and_then(|g| g.as_obj()).unwrap();
        assert_eq!(
            gauges.get("engine.tables").and_then(|x| x.as_f64()),
            Some(12.0)
        );
        let hists = v.get("histograms").and_then(|h| h.as_obj()).unwrap();
        let flush = hists.get("span_us.flush").unwrap();
        assert_eq!(flush.get("count").and_then(|x| x.as_f64()), Some(3.0));
        assert_eq!(flush.get("max").and_then(|x| x.as_f64()), Some(300.0));
        let events = v.get("events").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("detail").and_then(|d| d.as_str()),
            Some("seg=2")
        );
        // Every registered metric name appears somewhere in the document.
        for name in snap.metric_names() {
            assert!(
                counters.contains_key(&name)
                    || gauges.contains_key(&name)
                    || hists.contains_key(&name),
                "metric {name} missing from JSON"
            );
        }
    }

    #[test]
    fn json_escapes_details() {
        let obs = Obs::new();
        obs.event("odd", "a\"b\\c\nd");
        let v = json::parse(&obs.snapshot().to_json()).unwrap();
        let events = v.get("events").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(
            events[0].get("detail").and_then(|d| d.as_str()),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn prometheus_renders_sanitized_names() {
        let text = sample_obs().snapshot().to_prometheus();
        assert!(text.contains("engine_flushes 3"));
        assert!(text.contains("# TYPE span_us_flush summary"));
        assert!(text.contains("span_us_flush_count 3"));
        assert!(text.contains("span_us_flush{quantile=\"0.5\"}"));
    }
}
