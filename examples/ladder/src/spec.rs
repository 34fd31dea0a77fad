//! The metric declarations, read from `BENCHMARK.json` at the checkout
//! root — the one place names, units, directions and bounds are written
//! down — and the result line built from them.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Deserialize;

/// Measured metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

#[derive(Deserialize)]
struct File {
    run_seconds: u64,
    workloads: Vec<WorkloadDecl>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Deserialize)]
struct WorkloadDecl {
    name: String,
}

/// An end-to-end metric: what a user of `repro` sees, gated by `bound`.
#[derive(Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric: explains an end-to-end number, has no bound.
#[derive(Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

/// The declared benchmark.
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

impl Spec {
    /// Reads and parses `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let file: File = serde_json::from_str(&text)
            .map_err(|e| format!("malformed {}: {e}", path.display()))?;
        Ok(Spec {
            run_seconds: file.run_seconds,
            workloads: file.workloads.into_iter().map(|w| w.name).collect(),
            end_to_end: file.end_to_end,
            per_layer: file.per_layer,
        })
    }

    /// Picks what a run reports out of everything it measured: every
    /// end-to-end metric untraced, every per-layer metric traced. A
    /// missing end-to-end metric is an error; a missing per-layer metric
    /// is a layer the workload does not run and reads 0. A measured name
    /// the file does not declare is an error too, so the code and the
    /// declarations cannot drift apart.
    pub fn select(&self, traced: bool, measured: &Metrics) -> Result<Vec<(String, f64)>, String> {
        if let Some(name) = measured.keys().find(|name| self.unit(name).is_none()) {
            return Err(format!("metric '{name}' is not declared in BENCHMARK.json"));
        }
        let names: Vec<&str> = if traced {
            self.per_layer.iter().map(|m| m.name.as_str()).collect()
        } else {
            self.end_to_end.iter().map(|m| m.name.as_str()).collect()
        };
        names
            .into_iter()
            .map(|name| match measured.get(name) {
                Some(&value) if value.is_finite() => Ok((name.to_string(), value)),
                Some(value) => Err(format!("metric '{name}' is not finite ({value})")),
                None if traced => Ok((name.to_string(), 0.0)),
                None => Err(format!("end-to-end metric '{name}' was not measured")),
            })
            .collect()
    }

    /// The unit declared for `name`, if it is declared.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit))
            .chain(self.per_layer.iter().map(|m| (&m.name, &m.unit)))
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| unit.as_str())
    }
}

/// The machine-readable result line: `correct`, `attempted`, `failed`
/// and every reported `(key, value, unit)`, values printed with all
/// their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let quote = |s: &str| serde_json::to_string(&s.to_string()).expect("strings serialize");
    let body: Vec<String> = metrics
        .iter()
        .map(|(key, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(key),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
