//! `hmbench agree <dirA> <dirB>`: do two sets of runs agree within
//! each metric's `BENCHMARK.json` bound?
//!
//! Each directory holds the records `--out` wrote (one JSON object per
//! line, any number of files). For every workload and metric the
//! command prints each set's median and quartiles. An end-to-end
//! metric *differs* when the medians are further apart than its bound
//! (a share of set A's median), and is *unresolved* when either set's
//! own quartile spread exceeds the bound or a set has fewer than three
//! runs. Some metrics also have an absolute floor ([`FLOORS`]): a gap
//! or spread under it never counts. Per-layer metrics have no bound and
//! are printed for reference.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::fs;

/// Runs fewer than this per set leave a metric unresolved.
const MIN_RUNS: usize = 3;

/// Absolute floors under a bound, in the metric's unit. A single-home
/// world sets up in a few milliseconds, where one scheduler hiccup is a
/// large share of `setup_s`; a gap of under 10 ms is not a regression.
const FLOORS: [(&str, f64); 1] = [("setup_s", 0.01)];

/// The absolute floor under `metric`'s bound (0 when it has none).
fn floor(metric: &str) -> f64 {
    FLOORS
        .iter()
        .find(|(name, _)| *name == metric)
        .map_or(0.0, |(_, f)| *f)
}

struct Record {
    workload: String,
    metrics: Vec<(String, f64)>,
}

fn load(dir: &str) -> Result<Vec<Record>, String> {
    let mut paths: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    let mut records = Vec::new();
    for path in paths {
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
            let Ok(v) = json::parse(line) else { continue };
            let (Some(workload), Some(metrics)) = (v.get("workload"), v.get("metrics")) else {
                continue;
            };
            records.push(Record {
                workload: workload.as_str().unwrap_or_default().to_owned(),
                metrics: metrics
                    .as_obj()
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
            });
        }
    }
    Ok(records)
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

fn summary(v: &[f64]) -> (f64, f64, f64) {
    let m = median(v);
    let (q1, q3) = if v.len() >= 2 { quartiles(v) } else { (m, m) };
    (m, q1, q3)
}

/// Compares the records in `dir_a` and `dir_b`; `Ok(false)` when any
/// end-to-end metric differs beyond its bound.
pub fn run(dir_a: &str, dir_b: &str, bench_path: &str) -> Result<bool, String> {
    let bench =
        json::parse(&fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?)?;
    let bounded: Vec<(String, f64)> = bench
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let layered: Vec<String> = bench
        .get("per_layer")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some(m.get("name")?.as_str()?.to_owned()))
        .collect();
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut workloads: Vec<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let (mut differ, mut unresolved) = (0, 0);
    println!("workload metric  A: median [q1, q3] (n)  B: median [q1, q3] (n)  change  verdict");
    for w in &workloads {
        let metrics = bounded
            .iter()
            .map(|(n, bound)| (n.as_str(), Some(*bound)))
            .chain(layered.iter().map(|n| (n.as_str(), None)));
        for (name, bound) in metrics {
            let (va, vb) = (values(&a, w, name), values(&b, w, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let ((ma, a1, a3), (mb, b1, b3)) = (summary(&va), summary(&vb));
            let rel = |x: f64| if ma != 0.0 { x / ma.abs() } else { 0.0 };
            let change = rel(mb - ma);
            let spread = rel(a3 - a1).max(if mb != 0.0 { (b3 - b1) / mb.abs() } else { 0.0 });
            let floor = floor(name);
            let within = |gap: f64, of: f64, bound: f64| gap <= (bound * of.abs()).max(floor);
            let verdict = match bound {
                None => "info".to_owned(),
                Some(_) if va.len() < MIN_RUNS || vb.len() < MIN_RUNS => {
                    unresolved += 1;
                    format!("unresolved (fewer than {MIN_RUNS} runs)")
                }
                Some(bound) if !within(a3 - a1, ma, bound) || !within(b3 - b1, mb, bound) => {
                    unresolved += 1;
                    format!(
                        "unresolved (spread {:.2}% > bound {:.2}%)",
                        spread * 100.0,
                        bound * 100.0
                    )
                }
                Some(bound) if !within((mb - ma).abs(), ma, bound) => {
                    differ += 1;
                    format!("DIFFER (bound {:.2}%)", bound * 100.0)
                }
                Some(_) => "agree".to_owned(),
            };
            println!(
                "{w} {name}  {ma} [{a1}, {a3}] ({})  {mb} [{b1}, {b3}] ({})  {:+.3}%  {verdict}",
                va.len(),
                vb.len(),
                change * 100.0
            );
        }
    }
    println!("{differ} differ, {unresolved} unresolved");
    Ok(differ == 0)
}
