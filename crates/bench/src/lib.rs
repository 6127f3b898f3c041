//! Shared code for the experiment benches (E1–E19).
//!
//! Each bench is a plain `fn main()` that regenerates one figure or
//! claim: it prints the simulated-metric tables the experiment is about
//! (deterministic byte counts and virtual-time latencies) and writes
//! them as JSON under `target/bench-results/`. The paper's own
//! experiments, E1–E10, run as one target, `paper`, whose tables are
//! flattened by [`Report::flatten`] into one gated `BENCH_paper.json`.
//! Wall-clock cost is measured by `crates/hmbench`; no JSON artefact
//! written here holds wall time.

pub mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::fmt::Display;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A global allocator that counts heap allocations (reallocations
/// included), so a bench can report allocs/op. A bench that reports
/// them installs it in its own binary:
///
/// ```ignore
/// #[global_allocator]
/// static A: bench::CountingAlloc = bench::CountingAlloc;
/// ```
///
/// Only the bench harness pays for the count; the stack it measures is
/// unchanged.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is
// a relaxed atomic that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
}

/// Heap allocations so far in this process, as counted by
/// [`CountingAlloc`] (always 0 in a binary that did not install it).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Where the benches write their artefacts, relative to the package
/// directory (`cargo bench` runs each bench there).
const RESULTS_DIR: &str = "target/bench-results";

/// One experiment report: a named table.
#[derive(Debug)]
pub struct Report {
    /// Experiment id, e.g. `"E1"`.
    pub id: String,
    /// What the experiment shows.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Report {
        Report {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row of displayable cells.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width matches headers");
        self.rows.push(cells);
    }

    /// Prints the table and writes the JSON artefact as
    /// `<id, lowercased>.json`.
    pub fn emit(&self) {
        self.emit_as(&format!("{}.json", self.id.to_lowercase()));
    }

    /// Prints the table and writes the JSON artefact under an explicit
    /// file name (for artefacts whose exact name is part of a spec).
    pub fn emit_as(&self, filename: &str) {
        self.print();
        write_result(filename, &self.to_json());
    }

    /// Prints the table.
    pub fn print(&self) {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        println!("\n=== {} — {} ===", self.id, self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for r in &self.rows {
            println!("{}", fmt_row(r));
        }
    }

    /// Flattens `tables` into one `["cell", "value"]` report with a row
    /// per value cell (every cell but a row's first, its label), in
    /// table, row, column order. A cell's key is
    /// `"<table id> / <row label> / <column header>"`; a row label that
    /// repeats within its table is qualified by the row's second column,
    /// e.g. `"SOAP VSG bridge (chunk 480)"`. Panics on a duplicate key.
    pub fn flatten(id: &str, title: &str, tables: &[Report]) -> Report {
        let mut out = Report::new(id, title, &["cell", "value"]);
        let mut keys = HashSet::new();
        for table in tables {
            for row in &table.rows {
                let label = if table.rows.iter().filter(|r| r[0] == row[0]).count() > 1 {
                    format!("{} ({} {})", row[0], table.headers[1], row[1])
                } else {
                    row[0].clone()
                };
                for (header, value) in table.headers.iter().zip(row).skip(1) {
                    let key = format!("{} / {label} / {header}", table.id);
                    assert!(keys.insert(key.clone()), "duplicate cell key {key:?}");
                    out.row(vec![key, value.clone()]);
                }
            }
        }
        out
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!(
            "  \"headers\": {},\n",
            json_str_array(&self.headers, "")
        ));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    {}{}\n", json_str_array(row, ""), sep));
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

fn json_str_array(items: &[String], _indent: &str) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// Writes `contents` as `target/bench-results/<filename>`, panicking
/// with the path if it cannot: a bench that fails to write its artefact
/// must not leave the gate reading an older one.
pub fn write_result(filename: &str, contents: &str) {
    write_into(Path::new(RESULTS_DIR), filename, contents);
}

fn write_into(dir: &Path, filename: &str, contents: &str) {
    let path = dir.join(filename);
    if let Err(e) = fs::create_dir_all(dir).and_then(|()| fs::write(&path, contents)) {
        panic!("cannot write {}: {e}", path.display());
    }
    println!("[written {}]", path.display());
}

/// Formats a cell.
pub fn cell(v: impl Display) -> String {
    v.to_string()
}

/// The `p`-th percentile of a sample set (nearest-rank; `samples` need
/// not be sorted).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Formats microseconds as adaptive ms/us.
pub fn fmt_us(us: u64) -> String {
    if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_emits_without_panicking() {
        let mut r = Report::new("E0", "smoke", &["a", "b"]);
        r.row(vec![cell(1), cell("x")]);
        r.row(vec![cell(22), fmt_us(1_500)]);
        r.print();
        // A private directory, so `cargo test` leaves `target/bench-results/` alone.
        let dir = std::env::temp_dir().join(format!("bench-report-{}", std::process::id()));
        write_into(&dir, "e0.json", &r.to_json());
        assert_eq!(
            fs::read_to_string(dir.join("e0.json")).unwrap(),
            r.to_json()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "unwritable.json")]
    fn write_failure_names_the_path() {
        // The test binary itself: a file where the directory should be.
        let file = std::env::current_exe().unwrap();
        write_into(&file, "unwritable.json", "{}");
    }

    #[test]
    fn flatten_keys_every_value_cell_in_order() {
        let mut a = Report::new("A", "a", &["name", "x", "y"]);
        a.row(vec![cell("p"), cell(1), cell("-")]);
        a.row(vec![cell("q"), cell(2), fmt_us(30)]);
        let mut b = Report::new("B", "b", &["carrier", "chunk", "rate"]);
        b.row(vec![cell("bridge"), cell(480), cell("1.38")]);
        b.row(vec![cell("bridge"), cell(4800), cell("5.98")]);
        b.row(vec![cell("native"), cell(480), cell("30.7")]);

        let flat = Report::flatten("T", "all", &[a, b]);
        assert_eq!(flat.headers, ["cell", "value"]);
        let expected = [
            ("A / p / x", "1"),
            ("A / p / y", "-"),
            ("A / q / x", "2"),
            ("A / q / y", "30us"),
            ("B / bridge (chunk 480) / chunk", "480"),
            ("B / bridge (chunk 480) / rate", "1.38"),
            ("B / bridge (chunk 4800) / chunk", "4800"),
            ("B / bridge (chunk 4800) / rate", "5.98"),
            ("B / native / chunk", "480"),
            ("B / native / rate", "30.7"),
        ];
        let got: Vec<(&str, &str)> = flat
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[1].as_str()))
            .collect();
        assert_eq!(got, expected);
        let keys: HashSet<&str> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), got.len(), "keys are unique");
    }

    #[test]
    fn fmt_us_is_adaptive() {
        assert_eq!(fmt_us(900), "900us");
        assert_eq!(fmt_us(12_345), "12.3ms");
    }

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
    }
}
