//! Experiment harness: aligned-table output, multi-seed sweeps, and
//! paper-vs-measured reporting shared by every figure/table binary.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(out, "{cell:>w$}  ", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Render as CSV (for plotting scripts).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Print the table, preceded by a title banner, and optionally write
    /// the CSV next to it.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty());
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() == 1 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Run `f` over every item on a fixed-size worker pool and return the
/// results in item order.
///
/// This is the shared runner behind every sweep binary: cells (a scheme ×
/// scenario × seed triple, or just a seed) are independent simulations of
/// wildly uneven cost, so workers *pull* the next unclaimed index from a
/// shared counter instead of being dealt a static slice — a thread that
/// drew cheap cells steals the remaining work from one stuck on an
/// expensive cell. The pool is sized to the available cores (never more
/// threads than items), and results land in a slot per item, so the
/// output order is deterministic — identical to a serial `map` — no
/// matter how the cells interleave. Side effects inside `f` (journal
/// appends, progress lines) must do their own serialization.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = &AtomicUsize::new(0);
    let f = &f;
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        got.push((i, f(&items[i])));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    // Scatter each worker's (index, result) pairs back into item order.
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed by exactly one worker"))
        .collect()
}

/// Run `f(seed)` for each seed in parallel (simulations are independent)
/// and return results in seed order — [`parallel_map`] specialized to the
/// common seed-sweep shape.
pub fn parallel_over_seeds<T: Send>(seeds: &[u64], f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    parallel_map(seeds, |&seed| f(seed))
}

/// One "paper vs measured" comparison line.
pub fn paper_line(what: &str, paper: &str, measured: &str, verdict: bool) {
    println!(
        "  [{}] {what}: paper {paper} | measured {measured}",
        if verdict { "ok" } else { "!!" }
    );
}

/// Parse `--seeds N` and `--csv` style flags from argv; returns
/// (seeds, emit_csv, extra flags).
pub fn parse_args() -> (Vec<u64>, bool, Vec<String>) {
    let mut args = std::env::args().skip(1).peekable();
    let mut seeds = vec![1u64];
    let mut csv = false;
    let mut extra = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let n: u64 = args
                    .next()
                    .expect("--seeds N")
                    .parse()
                    .expect("numeric seed count");
                seeds = (1..=n).collect();
            }
            "--csv" => csv = true,
            other => extra.push(other.to_string()),
        }
    }
    (seeds, csv, extra)
}

/// The workspace root, walking up from the running crate's directory so
/// the answer is the same under `cargo run` (cwd = workspace root) and
/// direct invocation (then the current directory).
pub fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| {
            Path::new(&d)
                .ancestors()
                .nth(2)
                .expect("a crate under crates/ has a workspace root")
                .to_path_buf()
        })
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Write the benchmark record `name` (e.g. `BENCH_sim.json`) and print
/// where: at the workspace root for a full run, where the record is
/// committed, and under `target/` for a smoke run, so a CI-sized run
/// leaves the committed record alone.
pub fn write_record(name: &str, json: &str, smoke: bool) {
    let root = workspace_root();
    let dir = if smoke { root.join("target") } else { root };
    let path = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["scheme", "wJCT"]);
        t.row(vec!["Hare".into(), "1.0".into()]);
        t.row(vec!["Gavel_FIFO".into(), "2.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("scheme"));
        assert!(lines[3].contains("Gavel_FIFO"));
        // All rows equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,\"x,y\"\n");
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m1, s1) = mean_std(&[5.0]);
        assert_eq!((m1, s1), (5.0, 0.0));
    }

    #[test]
    fn seeds_run_in_parallel_and_in_order() {
        let out = parallel_over_seeds(&[1, 2, 3, 4], |s| s * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn parallel_map_matches_serial_map_on_uneven_work() {
        // More items than cores, wildly uneven per-item cost: the pool
        // must still return results in exact item order.
        let items: Vec<u64> = (0..97).collect();
        let work = |&x: &u64| {
            // Cost skew: item 0 spins ~1000x longer than item 96.
            let spins = (97 - x) * (97 - x);
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        let serial: Vec<(u64, u64)> = items.iter().map(work).collect();
        assert_eq!(parallel_map(&items, work), serial);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    proptest::proptest! {
        /// Determinism guard: for arbitrary inputs (including sizes around
        /// the worker count) and value-dependent per-item cost, the pooled
        /// runner returns exactly what a serial `map` would, in the same
        /// order.
        #[test]
        fn parallel_map_equals_serial_map(items in proptest::collection::vec(0u64..1000, 0..80)) {
            let work = |&x: &u64| {
                let mut acc = x;
                for _ in 0..(x % 257) * 31 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            };
            let serial: Vec<u64> = items.iter().map(work).collect();
            proptest::prop_assert_eq!(parallel_map(&items, work), serial);
        }
    }
}
