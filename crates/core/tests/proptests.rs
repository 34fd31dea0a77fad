//! Property-based tests for the reporting layer and metric extraction:
//! arbitrary inputs must never panic and must preserve shape invariants.

use horizon_core::campaign::Measurement;
use horizon_core::metrics::Metric;
use horizon_core::report::{ascii_scatter, format_table};
use horizon_uarch::{Counters, CpiStack, PowerReport};
use proptest::prelude::*;

/// Generates counters that satisfy the invariants real campaigns produce:
/// instruction-class counts partition the instruction total, misses never
/// exceed accesses, and each level's misses feed the next level's accesses.
fn arbitrary_counters() -> impl Strategy<Value = Counters> {
    (
        1_000u64..1_000_000,
        0.0..0.35f64, // load fraction
        0.0..0.15f64, // store fraction
        0.0..0.25f64, // branch fraction
        0.0..0.15f64, // fp fraction
        0.0..1.0f64,  // L1 miss ratio
        0.0..1.0f64,  // L2 miss ratio
        0.0..1.0f64,  // L3 miss ratio
        0u64..20_000, // TLB walk scale
    )
        .prop_map(|(instructions, fl, fs, fb, ff, m1, m2, m3, walks)| {
            let frac = |f: f64| (instructions as f64 * f) as u64;
            let (loads, stores, branches, fp_ops) = (frac(fl), frac(fs), frac(fb), frac(ff));
            let l1d_accesses = loads + stores;
            let l1d_misses = (l1d_accesses as f64 * m1) as u64;
            let l2d_misses = (l1d_misses as f64 * m2) as u64;
            let l3_accesses = l2d_misses + (instructions as f64 * m1 * m2 / 64.0) as u64;
            let l3_misses = (l3_accesses as f64 * m3) as u64;
            Counters {
                instructions,
                loads,
                stores,
                branches,
                taken_branches: branches / 2,
                mispredicts: branches / 20,
                fp_ops,
                simd_ops: fp_ops / 4,
                kernel_instructions: instructions / 50,
                l1i_accesses: instructions,
                l1i_misses: (instructions as f64 * m1 / 32.0) as u64,
                l1d_accesses,
                l1d_misses,
                l2i_accesses: (instructions as f64 * m1 / 32.0) as u64,
                l2i_misses: (instructions as f64 * m1 * m2 / 64.0) as u64,
                l2d_accesses: l1d_misses,
                l2d_misses,
                l3_accesses,
                l3_misses,
                memory_accesses: l3_misses,
                itlb_misses: walks / 2,
                dtlb_misses: walks,
                page_walks_instruction: walks / 4,
                page_walks_data: walks / 2,
                dependency_intensity: 0.4,
                freq_ghz: 2.5,
                cpi_stack: CpiStack {
                    base: 0.25,
                    frontend: 0.1,
                    bad_speculation: 0.05,
                    memory: 0.2,
                    core: 0.1,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every Table III metric extracts a finite, non-negative value from
    /// any consistent counter set.
    #[test]
    fn metric_extraction_is_total(counters in arbitrary_counters()) {
        let m = Measurement {
            counters,
            power: PowerReport {
                core_watts: 10.0,
                llc_watts: 2.0,
                dram_watts: 3.0,
            },
        };
        for metric in Metric::table_iii().iter().chain(Metric::power_set().iter()) {
            let v = metric.extract(&m);
            prop_assert!(v.is_finite(), "{}: {v}", metric.label());
            prop_assert!(v >= 0.0, "{}: {v}", metric.label());
        }
    }

    /// format_table renders any cell contents with consistent geometry.
    #[test]
    fn format_table_never_panics(
        rows in proptest::collection::vec(
            proptest::collection::vec("[a-zA-Z0-9 .%-]{0,24}", 0..5),
            0..12,
        )
    ) {
        let table = format_table(&["col-a", "col-b", "col-c"], &rows);
        let lines: Vec<&str> = table.lines().collect();
        prop_assert_eq!(lines.len(), 2 + rows.len());
        // Separator is all dashes and at least as wide as the header.
        prop_assert!(lines[1].chars().all(|c| c == '-'));
        prop_assert!(lines[1].len() >= lines[0].trim_end().len());
    }

    /// The scatter renderer accepts any finite point cloud.
    #[test]
    fn ascii_scatter_never_panics(
        pts in proptest::collection::vec(
            (-1e6..1e6f64, -1e6..1e6f64),
            1..40,
        )
    ) {
        let points: Vec<(char, String, f64, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (char::from(b'a' + (i % 26) as u8), format!("p{i}"), x, y))
            .collect();
        let art = ascii_scatter(&points, 40, 12, "x", "y");
        // Grid rows plus axis plus legend lines.
        prop_assert!(art.lines().count() >= 12);
        // Every distinct marker appears somewhere.
        let markers: std::collections::HashSet<char> =
            points.iter().map(|p| p.0).collect();
        for m in markers {
            prop_assert!(art.contains(m), "marker {m} missing");
        }
    }
}

mod report_v1_props {
    use horizon_core::report::{Block, Report};
    use horizon_core::report_v1::{
        ErrorStatV1, ReportTableV1, ReportV1, SubsetV1, REPORT_SCHEMA_VERSION,
    };
    use proptest::prelude::*;

    /// Arbitrary report text cells: letters, digits, punctuation, quotes,
    /// a backslash, accented characters and a literal newline — the JSON
    /// layer must escape all of them correctly.
    const WILD: &str = "[a-zA-Z0-9 ._%()\"\\éñ\n-]{0,12}";

    fn arbitrary_report() -> impl Strategy<Value = ReportV1> {
        let table = (
            WILD,
            proptest::collection::vec(WILD, 0..4),
            proptest::collection::vec(proptest::collection::vec(WILD, 0..4), 0..3),
        )
            .prop_map(|(section, columns, rows)| ReportTableV1 {
                section,
                columns,
                rows,
            });
        let subset = (WILD, proptest::collection::vec(WILD, 0..4))
            .prop_map(|(context, members)| SubsetV1 { context, members });
        let error =
            (WILD, -1e9..1e9f64, -1e9..1e9f64).prop_map(|(context, average_pct, max_pct)| {
                ErrorStatV1 {
                    context,
                    average_pct,
                    max_pct,
                }
            });
        (
            WILD,
            WILD,
            proptest::collection::vec(table, 0..3),
            proptest::collection::vec(subset, 0..3),
            proptest::collection::vec(error, 0..3),
            proptest::collection::vec(WILD, 0..4),
        )
            .prop_map(
                |(experiment, title, tables, subsets, errors, notes)| ReportV1 {
                    schema_version: REPORT_SCHEMA_VERSION,
                    experiment,
                    title,
                    tables,
                    subsets,
                    errors,
                    notes,
                },
            )
    }

    /// A table of 1–4 columns whose rows may be shorter or longer than
    /// the header.
    fn table() -> impl Strategy<Value = Block> {
        (
            proptest::collection::vec(WILD, 1..5),
            proptest::collection::vec(proptest::collection::vec(WILD, 0..6), 0..4),
        )
            .prop_map(|(columns, rows)| Block::Table { columns, rows })
    }

    fn error() -> impl Strategy<Value = Block> {
        (-1e9..1e9f64, -1e9..1e9f64).prop_map(|(average_pct, max_pct)| Block::ErrorStat {
            average_pct,
            max_pct,
        })
    }

    fn block() -> impl Strategy<Value = Block> {
        prop_oneof![
            WILD.prop_map(Block::Text),
            table(),
            (WILD, proptest::collection::vec(WILD, 0..4))
                .prop_map(|(context, members)| Block::Subset { context, members }),
            error(),
        ]
    }

    proptest! {
        /// serialize → deserialize → identical report, for arbitrary
        /// content including quotes, backslashes and newlines.
        #[test]
        fn report_v1_json_round_trips(report in arbitrary_report()) {
            let json = serde_json::to_string(&report).unwrap();
            let back = ReportV1::from_json(&json).unwrap();
            prop_assert_eq!(back, report);
        }

        /// The projection returns exactly the tables, subsets and error
        /// statistics the report was built from, every row has one cell
        /// per column, and the JSON round-trips. Each case holds a table
        /// directly followed by an error statistic, the shape of the
        /// validation report.
        #[test]
        fn from_report_keeps_every_block(
            (before, table, error, after) in (
                proptest::collection::vec(block(), 0..6),
                table(),
                error(),
                proptest::collection::vec(block(), 0..6),
            )
        ) {
            let count = |kind: fn(&Block) -> bool| before.iter().filter(|b| kind(b)).count();
            let pair_table = count(|b| matches!(b, Block::Table { .. }));
            let pair_error = count(|b| matches!(b, Block::ErrorStat { .. }));
            let blocks: Vec<Block> = before.into_iter().chain([table, error]).chain(after).collect();
            let mut report = Report::default();
            let (mut tables, mut subsets, mut errors) = (Vec::new(), Vec::new(), Vec::new());
            for block in blocks {
                report = match block {
                    Block::Text(text) => report.text(text),
                    Block::Table { columns, rows } => {
                        let headers: Vec<&str> = columns.iter().map(String::as_str).collect();
                        let padded: Vec<Vec<String>> = rows
                            .iter()
                            .map(|row| {
                                let mut row = row.clone();
                                row.resize(columns.len(), String::new());
                                row
                            })
                            .collect();
                        let report = report.table(&headers, rows);
                        tables.push((columns, padded));
                        report
                    }
                    Block::Subset { context, members } => {
                        subsets.push((context.clone(), members.clone()));
                        report.subset(context, &members)
                    }
                    Block::ErrorStat { average_pct, max_pct } => {
                        errors.push((average_pct, max_pct));
                        report.error_stat(average_pct, max_pct)
                    }
                };
            }
            let r = ReportV1::from_report("exp", &report);
            let got: Vec<_> = r.tables.iter().map(|t| (t.columns.clone(), t.rows.clone())).collect();
            prop_assert_eq!(got, tables);
            for table in &r.tables {
                for row in &table.rows {
                    prop_assert_eq!(row.len(), table.columns.len());
                }
            }
            let got: Vec<_> = r.subsets.iter().map(|s| (s.context.clone(), s.members.clone())).collect();
            prop_assert_eq!(got, subsets);
            let got: Vec<_> = r.errors.iter().map(|e| (e.average_pct, e.max_pct)).collect();
            prop_assert_eq!(got, errors);
            // The statistic after the table belongs to the table's section.
            prop_assert_eq!(&r.errors[pair_error].context, &r.tables[pair_table].section);
            let json = serde_json::to_string(&r).unwrap();
            prop_assert_eq!(ReportV1::from_json(&json).unwrap(), r);
        }
    }
}
