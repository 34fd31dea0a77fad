//! Schema-versioned structured reports (`report_v1`).
//!
//! Every experiment builds one typed [`Report`] (see [`crate::report`]).
//! Its `Display` is the plain-text report; `repro serve` additionally
//! exposes a machine-readable JSON view of the same report. [`ReportV1`]
//! is that view: [`ReportV1::from_report`] projects it from the report's
//! blocks, so the tables, subsets and error statistics in the JSON are
//! the values the text prints, not values parsed back out of the text.
//!
//! # Schema stability
//!
//! * `schema_version` is [`REPORT_SCHEMA_VERSION`] and is bumped on any
//!   breaking field change. [`ReportV1::from_json`] rejects versions it
//!   does not understand instead of misreading them.
//! * Consumers must tolerate unknown fields: deserialization looks fields
//!   up by name and ignores extras, so additive evolution is free.

use serde::{Deserialize, Serialize};

use crate::report::{Block, Report};

/// Version of the structured report schema. Bumped on breaking changes.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// One rendered table: a header row plus data rows, cells as the exact
/// strings the text report prints (units and formatting included).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportTableV1 {
    /// The nearest non-empty line before the table in the text report (a
    /// caption like `Table V: …`, or a subset callout's context), empty
    /// when the table opens the report.
    pub section: String,
    /// Column headers, left to right.
    pub columns: Vec<String>,
    /// Data rows; each row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

/// A representative subset called out by the report (`… (subset: a, b, c)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsetV1 {
    /// What the subset covers (e.g. a sub-suite name).
    pub context: String,
    /// Member benchmark names.
    pub members: Vec<String>,
}

/// A summary error statistic (`average error X%, max Y%`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorStatV1 {
    /// The report context the statistic belongs to (nearest preceding
    /// caption or subset line).
    pub context: String,
    /// Average error, percent (the text prints it to one decimal).
    pub average_pct: f64,
    /// Maximum error, percent (the text prints it to one decimal).
    pub max_pct: f64,
}

/// A structured, schema-versioned experiment report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportV1 {
    /// Always [`REPORT_SCHEMA_VERSION`] for reports built by this crate.
    pub schema_version: u32,
    /// Canonical experiment id (e.g. `table1`).
    pub experiment: String,
    /// Report title (the first non-empty line of the text report).
    pub title: String,
    /// Every table in the report, in order of appearance.
    pub tables: Vec<ReportTableV1>,
    /// Representative subsets named by the report, in order.
    pub subsets: Vec<SubsetV1>,
    /// Error statistics named by the report, in order.
    pub errors: Vec<ErrorStatV1>,
    /// Remaining non-table lines (captions, scatter art, annotations), in
    /// order — nothing from the text report is silently dropped.
    pub notes: Vec<String>,
}

impl ReportV1 {
    /// Projects a typed report into the structured view.
    ///
    /// Tables, subsets and error statistics come from their blocks. Text
    /// blocks are read line by line: the first non-empty line is the
    /// title, and every later one is a note. A table's `section` and an
    /// error statistic's `context` is the nearest non-empty line before
    /// it, or the context of a subset callout in that place. Subset and
    /// error lines are notes too, so the notes hold every non-table line
    /// of the text report except the title.
    pub fn from_report(experiment: &str, report: &Report) -> ReportV1 {
        let mut out = ReportV1 {
            schema_version: REPORT_SCHEMA_VERSION,
            experiment: experiment.to_string(),
            title: String::new(),
            tables: Vec::new(),
            subsets: Vec::new(),
            errors: Vec::new(),
            notes: Vec::new(),
        };
        let mut context = String::new();
        for block in &report.blocks {
            // A subset or error line, as the text prints it.
            let line = || block.to_string().trim_end_matches('\n').to_string();
            match block {
                Block::Text(text) => {
                    for line in text.lines().filter(|line| !line.trim().is_empty()) {
                        if out.title.is_empty() {
                            out.title = line.to_string();
                        } else {
                            out.notes.push(line.to_string());
                        }
                        context = line.to_string();
                    }
                }
                Block::Table { columns, rows } => out.tables.push(ReportTableV1 {
                    section: context.clone(),
                    columns: columns.clone(),
                    rows: rows.clone(),
                }),
                Block::Subset {
                    context: covers,
                    members,
                } => {
                    context.clone_from(covers);
                    out.subsets.push(SubsetV1 {
                        context: covers.clone(),
                        members: members.clone(),
                    });
                    out.notes.push(line());
                }
                &Block::ErrorStat {
                    average_pct,
                    max_pct,
                } => {
                    out.errors.push(ErrorStatV1 {
                        context: context.clone(),
                        average_pct,
                        max_pct,
                    });
                    out.notes.push(line());
                }
            }
        }
        out
    }

    /// Checks the schema version.
    ///
    /// # Errors
    ///
    /// Returns a message naming both versions when the report was written
    /// by a different (e.g. future) schema.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version == REPORT_SCHEMA_VERSION {
            Ok(())
        } else {
            Err(format!(
                "unsupported report schema version {} (this reader understands {})",
                self.schema_version, REPORT_SCHEMA_VERSION
            ))
        }
    }

    /// Parses a JSON report and enforces the schema-version guard.
    ///
    /// # Errors
    ///
    /// Returns a message when the JSON is malformed or the version is not
    /// [`REPORT_SCHEMA_VERSION`].
    pub fn from_json(json: &str) -> Result<ReportV1, String> {
        let report: ReportV1 = serde_json::from_str(json).map_err(|e| e.to_string())?;
        report.validate()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::default()
            .text("Table X: sample characterization\n\n")
            .subset("INT-speed", &["605.mcf_s".into(), "625.x264_s".into()])
            .table(
                &["Benchmark", "CPI"],
                vec![
                    vec!["600.perlbench_s".into(), "1.12".into()],
                    vec!["605.mcf_s".into(), "2.40".into()],
                ],
            )
            .error_stat(4.21, 9.9)
            .text("\nfootnote\n")
    }

    #[test]
    fn from_report_projects_title_tables_subsets_and_errors() {
        let r = ReportV1::from_report("tablex", &sample());
        assert_eq!(r.schema_version, REPORT_SCHEMA_VERSION);
        assert_eq!(r.experiment, "tablex");
        assert_eq!(r.title, "Table X: sample characterization");
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.tables[0].section, "INT-speed");
        assert_eq!(r.tables[0].columns, vec!["Benchmark", "CPI"]);
        assert_eq!(
            r.tables[0].rows,
            vec![vec!["600.perlbench_s", "1.12"], vec!["605.mcf_s", "2.40"]]
        );
        assert_eq!(r.subsets.len(), 1);
        assert_eq!(r.subsets[0].context, "INT-speed");
        assert_eq!(r.subsets[0].members, vec!["605.mcf_s", "625.x264_s"]);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].context, "INT-speed");
        assert_eq!(r.errors[0].average_pct, 4.21);
        assert_eq!(r.errors[0].max_pct, 9.9);
        assert_eq!(
            r.notes,
            vec![
                "INT-speed (subset: 605.mcf_s, 625.x264_s)",
                "average error 4.2%, max 9.9%",
                "footnote",
            ]
        );
    }

    #[test]
    fn json_round_trip_preserves_the_report() {
        let r = ReportV1::from_report("tablex", &sample());
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back = ReportV1::from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    fn title_only() -> ReportV1 {
        ReportV1::from_report("tablex", &Report::default().text("Title only\n"))
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let r = title_only();
        let json = serde_json::to_string(&r).unwrap();
        let extended = json.replacen('{', "{\"added_in_v2\": true, ", 1);
        let back = ReportV1::from_json(&extended).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let r = title_only();
        let json = serde_json::to_string(&r).unwrap();
        let bumped = json.replacen(
            &format!("\"schema_version\":{REPORT_SCHEMA_VERSION}"),
            &format!("\"schema_version\":{}", REPORT_SCHEMA_VERSION + 1),
            1,
        );
        assert_ne!(bumped, json, "the version field must be present to bump");
        let err = ReportV1::from_json(&bumped).unwrap_err();
        assert!(err.contains("unsupported report schema version"), "{err}");
    }
}
