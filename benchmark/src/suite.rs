//! `teemon-e2e all`: every workload, untraced then traced, each run in its own
//! child process (clean `teemon_obs` statics, clean `VmHWM`), collected into
//! one result file that `teemon-e2e compare` reads.

use std::path::Path;
use std::process::Command;

use serde_json::Value as Json;

use crate::rig::SPECS;
use crate::util::fs_type;
use crate::Args;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment fields a result file records.
fn environment(out: &Path, seed: u64, seconds: f64, repeat: usize) -> Json {
    let wal_fs = fs_type(out);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Object(vec![
        ("nproc".to_string(), Json::Number(nproc as f64)),
        ("commit".to_string(), Json::String(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc".to_string(), Json::String(command_line("rustc", &["-V"]))),
        ("wal_dir".to_string(), Json::String(out.display().to_string())),
        ("wal_tmpfs".to_string(), Json::Bool(wal_fs == "tmpfs")),
        ("wal_fs".to_string(), Json::String(wal_fs)),
        ("seed".to_string(), Json::Number(seed as f64)),
        ("seconds".to_string(), Json::Number(seconds)),
        ("repeat".to_string(), Json::Number(repeat as f64)),
    ])
}

/// Runs one workload in a child process; echoes its metric lines and returns
/// the parsed result object.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| format!("{workload} printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    serde_json::from_str(last)
        .map_err(|e| format!("{workload}: last line is not a result object: {e}"))
}

/// `{name: value}` from a result object's `metrics`.
fn values(result: &Json) -> Json {
    let metrics = result.get("metrics").and_then(Json::as_object).unwrap_or_default();
    Json::Object(
        metrics
            .iter()
            .map(|(name, entry)| (name.clone(), entry.get("value").cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    let smoke = args.has("--smoke");
    let seed: u64 = args.number("--seed", 1)?;
    let seconds: f64 = args.number("--seconds", if smoke { 2.0 } else { 20.0 })?;
    let repeat: usize = args.number("--repeat", 1)?;
    let label = args.value("--label").unwrap_or(if smoke { "smoke" } else { "run" });
    let out = crate::out_dir(args);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in &SPECS {
        let mut runs = Vec::new();
        for _ in 0..repeat.max(1) {
            let untraced = run_child(spec.name, seed, seconds, false, &out)?;
            let traced = run_child(spec.name, seed, seconds, true, &out)?;
            let correct =
                [&untraced, &traced].iter().all(|r| r.get("correct") == Some(&Json::Bool(true)));
            all_correct &= correct;
            let count = |key: &str| {
                [&untraced, &traced]
                    .iter()
                    .filter_map(|r| r.get(key).and_then(Json::as_f64))
                    .sum::<f64>()
            };
            runs.push(Json::Object(vec![
                ("seed".to_string(), Json::Number(seed as f64)),
                ("correct".to_string(), Json::Bool(correct)),
                ("attempted".to_string(), Json::Number(count("attempted"))),
                ("failed".to_string(), Json::Number(count("failed"))),
                ("end_to_end".to_string(), values(&untraced)),
                ("per_layer".to_string(), values(&traced)),
            ]));
        }
        workloads.push((
            spec.name.to_string(),
            Json::Object(vec![("runs".to_string(), Json::Array(runs))]),
        ));
    }

    let file = out.join(format!("results-{label}.json"));
    let document = Json::Object(vec![
        ("label".to_string(), Json::String(label.to_string())),
        ("environment".to_string(), environment(&out, seed, seconds, repeat)),
        ("workloads".to_string(), Json::Object(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&document).map_err(|e| e.to_string())?;
    std::fs::write(&file, text).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("# results written to {}", file.display());
    if all_correct {
        Ok(true)
    } else {
        Err("at least one run failed an operation or an output check (see the `!` lines)"
            .to_string())
    }
}
