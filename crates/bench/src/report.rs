//! Result reporting: aligned text tables, NDJSON records (the artifact's
//! output format), and percentile helpers.

use std::fmt::Write as _;
use std::io::Write as _;

/// A value in an NDJSON record.
#[derive(Debug, Clone)]
pub enum Value {
    /// String value.
    Str(String),
    /// Integer value.
    Int(i64),
    /// Unsigned value.
    UInt(u64),
    /// Float value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends NDJSON records to the file named by `CXL_BENCH_OUT`; with
/// the variable unset or empty nothing is written (the printed tables
/// are the record). Hand-rolled to stay within the approved dependency
/// set.
#[derive(Debug)]
pub struct NdjsonSink {
    file: Option<std::fs::File>,
}

impl NdjsonSink {
    /// Opens the sink on the file `CXL_BENCH_OUT` names, if any.
    pub fn open() -> Self {
        let file = std::env::var("CXL_BENCH_OUT")
            .ok()
            .filter(|path| !path.is_empty())
            .and_then(|path| {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .ok()
            });
        NdjsonSink { file }
    }

    /// Writes one record.
    pub fn record(&mut self, fields: &[(&str, Value)]) {
        let Some(file) = &mut self.file else {
            return;
        };
        let mut line = String::from("{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            escape_json(key, &mut line);
            line.push(':');
            match value {
                Value::Str(s) => escape_json(s, &mut line),
                Value::Int(v) => {
                    let _ = write!(line, "{v}");
                }
                Value::UInt(v) => {
                    let _ = write!(line, "{v}");
                }
                Value::Float(v) => {
                    if v.is_finite() {
                        let _ = write!(line, "{v}");
                    } else {
                        line.push_str("null");
                    }
                }
                Value::Bool(v) => {
                    let _ = write!(line, "{v}");
                }
            }
        }
        line.push_str("}\n");
        let _ = file.write_all(line.as_bytes());
    }
}

/// A simple aligned text table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let print_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        };
        print_row(&self.header, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            print_row(row, &mut out);
        }
        out
    }
}

/// The `p`-th percentile (0–100) of `samples` (sorted in place).
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// Formats ops/sec in engineering notation (e.g. `12.3M`).
pub fn human_rate(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e9 {
        format!("{:.2}B", ops_per_sec / 1e9)
    } else if ops_per_sec >= 1e6 {
        format!("{:.2}M", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1}k", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0}")
    }
}

/// Formats bytes with a binary suffix.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let mut samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut samples, 50.0), 51); // nearest-rank rounds 49.5 up
        assert_eq!(percentile(&mut samples, 99.0), 99);
        assert_eq!(percentile(&mut samples, 0.0), 1);
        assert_eq!(percentile(&mut samples, 100.0), 100);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn humanizers() {
        assert_eq!(human_rate(12_345_678.0), "12.35M");
        assert_eq!(human_rate(999.0), "999");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1536), "1.5 KiB");
    }

    #[test]
    fn sink_writes_only_where_cxl_bench_out_points() {
        // The only test that touches the variable, so no other thread
        // of this test binary races it.
        let record = |sink: &mut NdjsonSink| sink.record(&[("experiment", "t".into())]);
        let cwd = || -> std::collections::BTreeSet<_> {
            let entries = std::fs::read_dir(".").unwrap();
            entries.map(|e| e.unwrap().file_name()).collect()
        };
        let before = cwd();
        std::env::remove_var("CXL_BENCH_OUT");
        record(&mut NdjsonSink::open());
        assert_eq!(before, cwd(), "an unset CXL_BENCH_OUT created a file in the cwd");

        let out = std::env::temp_dir().join(format!("cxl-bench-sink-{}.ndjson", std::process::id()));
        let _ = std::fs::remove_file(&out);
        std::env::set_var("CXL_BENCH_OUT", &out);
        let mut sink = NdjsonSink::open();
        record(&mut sink);
        record(&mut sink);
        std::env::remove_var("CXL_BENCH_OUT");
        let text = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_file(&out).unwrap();
        assert_eq!(text, "{\"experiment\":\"t\"}\n".repeat(2));
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }
}
