//! Reporting helpers shared by the experiment binaries: fixed-width stdout tables and
//! the writer of the committed benchmark artifacts (`BENCH_scale*.json`). The JSON
//! value itself lives in [`sdn_metrics::json`].

use sdn_metrics::json::Json;

/// One row of an experiment output table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (network name, configuration, ...).
    pub label: String,
    /// Column values, already formatted.
    pub values: Vec<String>,
}

impl Row {
    /// Creates a row from a label and pre-formatted values.
    pub fn new(label: impl Into<String>, values: Vec<String>) -> Self {
        Row {
            label: label.into(),
            values,
        }
    }
}

/// One printed experiment table: what a figure runner returns and [`print_table`]
/// renders.
#[derive(Clone, Debug)]
pub struct Table {
    /// The `== title ==` line.
    pub title: String,
    /// Per-column headers.
    pub headers: Vec<&'static str>,
    /// The rows, in print order.
    pub rows: Vec<Row>,
    /// Lines printed verbatim under the table (the per-second series of the
    /// throughput figures).
    pub trailer: Vec<String>,
}

/// Prints a fixed-width table with a title and per-column headers, then its trailer.
pub fn print_table(table: &Table) {
    println!("\n== {} ==", table.title);
    let label_width = table
        .rows
        .iter()
        .map(|r| r.label.len())
        .chain(std::iter::once(12))
        .max()
        .unwrap_or(12);
    print!("{:<label_width$}", "");
    for h in &table.headers {
        print!("  {h:>14}");
    }
    println!();
    for row in &table.rows {
        print!("{:<label_width$}", row.label);
        for v in &row.values {
            print!("  {v:>14}");
        }
        println!();
    }
    for line in &table.trailer {
        println!("{line}");
    }
}

/// Formats a float with two decimals.
pub fn fmt2(value: f64) -> String {
    format!("{value:.2}")
}

/// Writes a JSON document to `path` with a trailing newline: compact, except that each
/// element of a top-level `results` array sits on its own line, so `git diff` of two
/// artifacts names the cells that moved.
pub fn write_json_file(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    let Json::Obj(members) = doc else {
        return std::fs::write(path, format!("{doc}\n"));
    };
    let mut text = String::from("{");
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&format!("{}:", Json::str(key.as_str())));
        match value {
            Json::Arr(cells) if key == "results" => {
                let lines: Vec<String> = cells.iter().map(|cell| format!("\n{cell}")).collect();
                text.push_str(&format!("[{}\n]", lines.join(",")));
            }
            other => text.push_str(&other.to_string()),
        }
    }
    std::fs::write(path, text + "}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_formatting() {
        let row = Row::new("B4", vec![fmt2(1.234), fmt2(5.0)]);
        assert_eq!(row.label, "B4");
        assert_eq!(row.values, vec!["1.23".to_string(), "5.00".to_string()]);
        // Printing must not panic even with empty rows.
        print_table(&Table {
            title: "test".into(),
            headers: vec!["a", "b"],
            rows: vec![row],
            trailer: vec!["under the table".into()],
        });
        print_table(&Table {
            title: "empty".into(),
            headers: vec![],
            rows: vec![],
            trailer: vec![],
        });
    }

    #[test]
    fn json_file_round_trip() {
        let path = std::env::temp_dir().join("renaissance_json_test.json");
        let doc = Json::obj([("k", Json::arr([Json::num(1.0), Json::str("two")]))]);
        write_json_file(&path, &doc).expect("write");
        let content = std::fs::read_to_string(&path).expect("read");
        assert_eq!(content, "{\"k\":[1,\"two\"]}\n");
        // A campaign artifact: one result cell per line, everything else compact.
        let doc = Json::obj([
            ("tier", Json::str("smoke")),
            (
                "results",
                Json::arr([Json::obj([("a", Json::num(1.0))]), Json::arr([])]),
            ),
        ]);
        write_json_file(&path, &doc).expect("write");
        let content = std::fs::read_to_string(&path).expect("read");
        assert_eq!(
            content,
            "{\"tier\":\"smoke\",\"results\":[\n{\"a\":1},\n[]\n]}\n"
        );
        assert_eq!(Json::parse(&content), Ok(doc));
        let _ = std::fs::remove_file(&path);
    }
}
