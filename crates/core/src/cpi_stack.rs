//! CPI-stack reporting (Figure 1).
//!
//! Breaks each benchmark's Skylake CPI into the top-down components and
//! renders the stacked-bar chart as text.

use serde::{Deserialize, Serialize};

use crate::campaign::CampaignResult;
use crate::CoreError;

/// One benchmark's CPI stack row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Issue-limited base cycles.
    pub base: f64,
    /// Front-end stall cycles per instruction.
    pub frontend: f64,
    /// Branch-mispredict cycles per instruction.
    pub bad_speculation: f64,
    /// Back-end memory stall cycles per instruction.
    pub memory: f64,
    /// Core (dependency/long-latency) stall cycles per instruction.
    pub core: f64,
}

impl StackRow {
    /// Total CPI.
    pub fn total(&self) -> f64 {
        self.base + self.frontend + self.bad_speculation + self.memory + self.core
    }

    /// Name of the largest non-base component.
    pub fn dominant(&self) -> &'static str {
        let parts = [
            ("frontend", self.frontend),
            ("bad_speculation", self.bad_speculation),
            ("memory", self.memory),
            ("core", self.core),
        ];
        parts
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
            .0
    }
}

/// Extracts the CPI stacks of every workload on one machine of a campaign.
///
/// # Errors
///
/// Returns [`CoreError::NotFound`] for an unknown machine name.
pub fn cpi_stacks(result: &CampaignResult, machine: &str) -> Result<Vec<StackRow>, CoreError> {
    let m = result
        .machines()
        .iter()
        .position(|n| n == machine)
        .ok_or_else(|| CoreError::NotFound {
            kind: "machine",
            name: machine.to_string(),
        })?;
    Ok(result
        .workloads()
        .iter()
        .enumerate()
        .map(|(w, name)| {
            let s = result.at(w, m).counters.cpi_stack;
            StackRow {
                benchmark: name.clone(),
                base: s.base,
                frontend: s.frontend,
                bad_speculation: s.bad_speculation,
                memory: s.memory,
                core: s.core,
            }
        })
        .collect())
}

/// Renders the stacks as horizontal text bars (Figure 1 in ASCII): `#` base,
/// `F` front-end, `B` bad speculation, `M` memory, `C` core; one column per
/// `cpi_per_char` cycles.
pub fn render_stacks(rows: &[StackRow], cpi_per_char: f64) -> String {
    let width = rows.iter().map(|r| r.benchmark.len()).max().unwrap_or(0);
    let mut out = String::new();
    for r in rows {
        let seg = |v: f64| (v / cpi_per_char).round() as usize;
        out.push_str(&format!("{:<width$} |", r.benchmark));
        out.push_str(&"#".repeat(seg(r.base)));
        out.push_str(&"F".repeat(seg(r.frontend)));
        out.push_str(&"B".repeat(seg(r.bad_speculation)));
        out.push_str(&"M".repeat(seg(r.memory)));
        out.push_str(&"C".repeat(seg(r.core)));
        out.push_str(&format!(" {:.2}\n", r.total()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use horizon_uarch::MachineConfig;
    use horizon_workloads::cpu2017;

    fn rows() -> Vec<StackRow> {
        let benchmarks: Vec<_> = cpu2017::rate_int()
            .into_iter()
            .filter(|b| {
                [
                    "505.mcf_r",
                    "520.omnetpp_r",
                    "548.exchange2_r",
                    "538.imagick_r",
                ]
                .contains(&b.name())
            })
            .chain(
                cpu2017::rate_fp()
                    .into_iter()
                    .filter(|b| b.name() == "538.imagick_r"),
            )
            .collect();
        // Component dominance needs a stable-statistics window.
        let r = Campaign {
            instructions: 150_000,
            warmup: 40_000,
            seed: 42,
        }
        .measure(&benchmarks, &[MachineConfig::skylake_i7_6700()]);
        cpi_stacks(&r, "Intel Core i7-6700").unwrap()
    }

    #[test]
    fn stack_totals_are_positive_and_consistent() {
        for r in rows() {
            assert!(r.total() > 0.0);
            assert!(r.base > 0.0);
            assert!(r.frontend >= 0.0 && r.memory >= 0.0);
        }
    }

    #[test]
    fn mcf_and_omnetpp_are_memory_dominated() {
        // §II-B1 / Fig 1: mcf and omnetpp spend their time in the memory
        // back end; imagick is core-bound (dependencies).
        let rows = rows();
        let find = |n: &str| rows.iter().find(|r| r.benchmark == n).unwrap();
        assert_eq!(find("505.mcf_r").dominant(), "memory");
        assert_eq!(find("520.omnetpp_r").dominant(), "memory");
        assert_eq!(find("538.imagick_r").dominant(), "core");
    }

    #[test]
    fn unknown_machine_errors() {
        let benchmarks = &cpu2017::rate_int()[..1];
        let r = Campaign::quick().measure(benchmarks, &[MachineConfig::skylake_i7_6700()]);
        assert!(cpi_stacks(&r, "nope").is_err());
    }

    #[test]
    fn render_contains_bars_and_totals() {
        let art = render_stacks(&rows(), 0.02);
        assert!(art.contains('#'));
        assert!(art.contains("505.mcf_r"));
        for line in art.lines() {
            assert!(line.contains('|'));
        }
    }
}
