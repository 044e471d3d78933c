//! `teemon-e2e compare A.json B.json`: one row per workload × end-to-end
//! metric — ok / worse-than-bound / unresolved — judged with the bounds and
//! directions in `BENCHMARK.json`.  A is the parent, B the change.

use std::path::Path;

use serde_json::Value as Json;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// `BENCHMARK.json` at the repository root, from the root or from `benchmark/`.
fn load_contract(explicit: Option<&str>) -> Result<Json, String> {
    let candidates = match explicit {
        Some(path) => vec![path],
        None => vec!["BENCHMARK.json", "../BENCHMARK.json"],
    };
    let found = candidates.iter().map(Path::new).find(|p| p.is_file());
    load(
        found.ok_or_else(|| {
            format!("no BENCHMARK.json among {candidates:?} (pass --bounds <path>)")
        })?,
    )
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), and the median.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // 1-based position k·(n+1)/4, clamped into the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lower = (pos.floor() as usize).clamp(1, n);
        let upper = (lower + 1).min(n);
        let frac = (pos - lower as f64).clamp(0.0, 1.0);
        v[lower - 1] + (v[upper - 1] - v[lower - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Every run's value of `metric` on `workload`.
fn runs(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

#[derive(PartialEq, Debug)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges one row.  `a`, `b`: the runs of parent and change; a regression is
/// the change's median worse than the parent's by more than `bound` (a share
/// of the parent's median).  Where either side's quartile spread is wider
/// than the bound the row is unresolved, unless every run of one side beats
/// every run of the other.
fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (b_q1, b_med, b_q3) = quartiles(b);
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b_med - a_med) / a_med.abs().max(f64::MIN_POSITIVE);
    let spread_of = |q1: f64, med: f64, q3: f64, n: usize| {
        if n >= 2 {
            (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
        } else {
            0.0
        }
    };
    let spread = spread_of(a_q1, a_med, a_q3, a.len()).max(spread_of(b_q1, b_med, b_q3, b.len()));
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let every_b_worse = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) > 0.0));
    let verdict = if spread > bound {
        if every_b_better {
            Verdict::Ok
        } else if every_b_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, spread)
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let bounds_at = args.iter().position(|a| a == "--bounds");
    let explicit = bounds_at.and_then(|i| args.get(i + 1)).map(String::as_str);
    let files: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, _)| bounds_at.is_none_or(|b| *i != b && *i != b + 1))
        .map(|(_, a)| a)
        .collect();
    let [a_path, b_path] = files.as_slice() else {
        return Err(
            "usage: teemon-e2e compare <A.json> <B.json> [--bounds <BENCHMARK.json>]".to_string()
        );
    };
    let contract = load_contract(explicit)?;
    let a = load(Path::new(a_path))?;
    let b = load(Path::new(b_path))?;
    let workloads =
        contract.get("workloads").and_then(Json::as_array).ok_or("contract has no workloads")?;
    let metrics =
        contract.get("end_to_end").and_then(Json::as_array).ok_or("contract has no end_to_end")?;

    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let mut worse_rows = 0;
    for workload in workloads {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or_default();
        for metric in metrics {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) != Some("higher");
            let (a_runs, b_runs) = (runs(&a, workload, name), runs(&b, workload, name));
            if a_runs.is_empty() || b_runs.is_empty() {
                println!(
                    "{workload:<16} {name:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  missing",
                    "-", "-", "-", "-", "-"
                );
                worse_rows += 1;
                continue;
            }
            let (verdict, worse_by, spread) = judge(&a_runs, &b_runs, lower, bound);
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE than bound",
                Verdict::Unresolved => "unresolved (spread wider than bound)",
            };
            worse_rows += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload:<16} {name:<22} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.1}%  {label}",
                quartiles(&a_runs).1,
                quartiles(&b_runs).1,
                worse_by * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if worse_rows > 0 {
        return Err(format!("{worse_rows} row(s) worse than their bound or missing"));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5] extrapolates;
        // this clamps into the data instead, which only narrows the spread
        // of a two-run set.
        assert_eq!(quartiles(&[3.0, 1.0]).1, 2.0);
    }

    #[test]
    fn verdicts() {
        let tight = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let noisy = [80.0, 100.0, 125.0, 90.0, 115.0];
        assert_eq!(judge(&tight, &tight, true, 0.1).0, Verdict::Ok);
        assert_eq!(judge(&tight, &slower, true, 0.1).0, Verdict::Worse);
        // The same numbers read as a gain when higher is better.
        assert_eq!(judge(&tight, &slower, false, 0.1).0, Verdict::Ok);
        assert_eq!(judge(&tight, &noisy, true, 0.1).0, Verdict::Unresolved);
        // Wide spread, but every run of B beats every run of A.
        assert_eq!(judge(&noisy, &[50.0, 60.0, 70.0], true, 0.1).0, Verdict::Ok);
    }
}
