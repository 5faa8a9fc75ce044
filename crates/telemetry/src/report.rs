//! Human-readable end-of-run telemetry report.
//!
//! Three fixed-width tables — counters, histograms, span durations —
//! with column widths computed over the actual content, so every row of
//! a table has the same length regardless of how many samples (zero,
//! one, many) a histogram holds. Statistics that are undefined on the
//! input (NaN on an empty histogram) render as `-`.

use crate::{Snapshot, Summary};

/// Format a statistic, mapping NaN (empty-summary semantics) to `-`.
fn stat(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Render rows as a fixed-width table: every emitted line (header
/// included) is padded to identical length.
fn table(title: &str, header: &[&str], rows: &[Vec<String>], out: &mut String) {
    if rows.is_empty() {
        return;
    }
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    out.push_str(&format!("-- {title} --\n"));
    let emit = |cells: &[String], out: &mut String| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<width$}", width = widths[0])
                } else {
                    format!("{c:>width$}", width = widths[i])
                }
            })
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|h| (*h).to_string()).collect();
    assert_eq!(header_cells.len(), cols);
    emit(&header_cells, out);
    for row in rows {
        emit(row, out);
    }
}

fn hist_row(name: &str, s: &Summary) -> Vec<String> {
    vec![
        name.to_string(),
        s.len().to_string(),
        stat(s.mean()),
        stat(s.median()),
        stat(s.quantile(0.95)),
        stat(s.min()),
        stat(s.max()),
    ]
}

/// Render the whole report.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::from("== telemetry summary ==\n");
    if snap.is_empty() {
        out.push_str("(nothing recorded)\n");
        return out;
    }

    let counter_rows: Vec<Vec<String>> = snap
        .counters
        .iter()
        .map(|(k, v)| vec![k.clone(), v.to_string()])
        .collect();
    table("counters", &["counter", "value"], &counter_rows, &mut out);

    let hist_rows: Vec<Vec<String>> = snap
        .histograms
        .iter()
        .map(|(k, s)| hist_row(k, s))
        .collect();
    table(
        "histograms",
        &["histogram", "n", "mean", "p50", "p95", "min", "max"],
        &hist_rows,
        &mut out,
    );

    let span_rows: Vec<Vec<String>> = snap
        .span_durations
        .iter()
        .map(|(k, s)| {
            vec![
                k.clone(),
                s.len().to_string(),
                stat(s.values().iter().sum::<f64>()),
                stat(s.mean()),
                stat(s.max()),
            ]
        })
        .collect();
    table(
        "spans (ms)",
        &["span", "calls", "total", "mean", "max"],
        &span_rows,
        &mut out,
    );

    if snap.dropped_events > 0 {
        out.push_str(&format!(
            "(warning: {} trace events dropped at the in-memory cap)\n",
            snap.dropped_events
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snap_with_hists(hists: Vec<(&str, Summary)>) -> Snapshot {
        Snapshot {
            histograms: hists
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect::<BTreeMap<_, _>>(),
            ..Snapshot::default()
        }
    }

    /// All lines of a table block (from its `--` header to the next blank
    /// or end) must have equal length.
    fn assert_stable_widths(report: &str, section: &str) {
        let mut lines = report.lines();
        lines
            .find(|l| l.starts_with(&format!("-- {section}")))
            .unwrap_or_else(|| panic!("section {section} missing in:\n{report}"));
        let rows: Vec<&str> = lines.take_while(|l| !l.starts_with("--")).collect();
        assert!(rows.len() >= 2, "section {section} has no rows");
        let lens: Vec<usize> = rows.iter().map(|l| l.len()).collect();
        assert!(
            lens.windows(2).all(|w| w[0] == w[1]),
            "ragged columns in {section}: {lens:?}\n{report}"
        );
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let r = render(&Snapshot::default());
        assert!(r.contains("nothing recorded"));
    }

    #[test]
    fn column_widths_are_stable_across_sample_counts() {
        // empty, one-sample and many-sample histograms in one table
        let many: Summary = (0..100).map(|i| f64::from(i) * 1234.5).collect();
        let snap = snap_with_hists(vec![
            ("empty.hist", Summary::new()),
            ("one.hist", [42.0].into_iter().collect()),
            ("many.hist", many),
        ]);
        let r = render(&snap);
        assert_stable_widths(&r, "histograms");
        // empty histogram renders '-' for undefined stats, not NaN
        assert!(!r.contains("NaN"), "NaN leaked into report:\n{r}");
        let empty_line = r.lines().find(|l| l.starts_with("empty.hist")).unwrap();
        assert!(empty_line.contains('-'));
    }

    #[test]
    fn counters_and_spans_align_too() {
        let mut durations = BTreeMap::new();
        durations.insert("a/b".to_string(), [0.5, 1.5].into_iter().collect());
        durations.insert(
            "a-much-longer/span/path".to_string(),
            [100.0].into_iter().collect::<Summary>(),
        );
        let snap = Snapshot {
            counters: [
                ("x".to_string(), 1u64),
                ("a.very.long.counter.name".to_string(), 123_456u64),
            ]
            .into_iter()
            .collect(),
            span_durations: durations,
            ..Snapshot::default()
        };
        let r = render(&snap);
        assert_stable_widths(&r, "counters");
        assert_stable_widths(&r, "spans");
    }
}
