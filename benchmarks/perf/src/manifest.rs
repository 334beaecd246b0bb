//! `BENCHMARK.json`: the one place metric names, units, directions and
//! bounds are written down. The harness reads it at run time, so what a run
//! prints and what the file declares cannot drift apart: a run that computes
//! a metric the file does not name, or omits one it does, fails.

use crate::json::Json;
use std::path::Path;

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the reference value the metric may worsen by; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The parsed manifest.
#[derive(Clone, Debug)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("no \"{key}\" array"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without \"{key}\""))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = text_of(m, "better")?;
                    if better != "higher" && better != "lower" {
                        return Err(format!("\"better\" must be higher or lower, not {better:?}"));
                    }
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: better == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no \"run_seconds\" number")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run in this mode must print.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_shape() {
        let m = Manifest::parse(
            r#"{"command": ["bash", "x"], "paths": ["p"], "run_seconds": 15,
                "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "x.calls", "unit": "count", "better": "higher"}]}"#,
        )
        .expect("parses");
        assert_eq!(m.run_seconds, 15);
        assert_eq!(m.workloads, ["a", "b"]);
        assert_eq!(m.end_to_end[0].bound, Some(0.25));
        assert!(!m.end_to_end[0].higher_is_better);
        assert_eq!(m.metrics(true)[0].name, "x.calls");
        assert_eq!(m.metrics(true)[0].bound, None);
        assert!(m.metrics(true)[0].higher_is_better);
    }

    #[test]
    fn rejects_a_direction_it_does_not_know() {
        let err = Manifest::parse(
            r#"{"run_seconds": 1, "workloads": [], "per_layer": [],
                "end_to_end": [{"name": "m", "unit": "s", "better": "faster", "bound": 0.1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("faster"), "{err}");
    }
}
