//! Reading saved results back: `compare` (two results of one workload) and
//! `aa` (N same-commit sets against the bounds of BENCHMARK.json).

use std::path::Path;

use serde::Value;

use crate::stats::{largest_pairwise_rel_diff, median, quartiles};

/// End-to-end metrics that are simulated results or counts of checked ops:
/// between two runs of one commit they must not differ at all.
const EXACT: [&str; 2] = ["correct_ops_pct", "sim_geomean_speedup"];

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Why two results must not be diffed, if they must not.
fn incomparable(a: &Value, b: &Value) -> Option<String> {
    for key in ["nproc", "workload", "trace", "seconds"] {
        if a.get(key) != b.get(key) {
            return Some(format!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                a.get(key),
                b.get(key)
            ));
        }
    }
    None
}

/// Prints every metric of two saved results side by side. Exit code 2 when
/// the results come from hosts with different core counts (or are not the
/// same kind of run): such numbers are never compared blind.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(Path::new(a_path)), load(Path::new(b_path))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if let Some(reason) = incomparable(&a, &b) {
        eprintln!("{reason}");
        return 2;
    }
    let Some(entries) = a.get("metrics").and_then(Value::as_object) else {
        eprintln!("{a_path} has no metrics");
        return 2;
    };
    println!("{:<36} {:>16} {:>16} {:>9}", "metric", "a", "b", "b vs a");
    for (name, entry) in entries {
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
        match (metric(&a, name), metric(&b, name)) {
            (Some(x), Some(y)) if x != 0.0 => println!(
                "{name:<36} {x:>16.6} {y:>16.6} {:>+8.2}% {unit}",
                100.0 * (y - x) / x
            ),
            (Some(x), Some(y)) => println!("{name:<36} {x:>16.6} {y:>16.6} {:>9} {unit}", "-"),
            _ => println!("{name:<36} missing on one side"),
        }
    }
    0
}

/// What BENCHMARK.json declares for one end-to-end metric.
struct Declared {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

fn declared() -> Result<Vec<Declared>, String> {
    let root = load(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCHMARK.json"
    )))?;
    root.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
                higher_is_better: m.get("better")?.as_str()? == "higher",
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// The driver's acceptance rule, applied to same-commit sets: the spread
/// (IQR / median) of every metric but `setup_s` stays within its bound, and
/// the median of the later half of the sets is not worse than that of the
/// earlier half by more than the bound. Exact metrics must not move at all.
fn verdict(d: &Declared, values: &[f64]) -> (f64, f64, bool) {
    let [q1, _, q3] = quartiles(values);
    let spread = (q3 - q1) / median(values);
    let (earlier, later) = values.split_at(values.len().div_ceil(2));
    let (before, after) = (median(earlier), median(later));
    let worsening = if d.higher_is_better {
        (before - after) / before
    } else {
        (after - before) / before
    };
    let ok = if EXACT.contains(&d.name.as_str()) {
        largest_pairwise_rel_diff(values) == 0.0
    } else {
        (d.name == "setup_s" || spread <= d.bound) && worsening <= d.bound
    };
    (spread, worsening, ok)
}

/// Reads `<dir>/set<k>.<workload>.json` for k = 1.. and prints, per workload
/// and end-to-end metric, each set's value, the largest pairwise relative
/// difference, the spread, how much the later sets' median is worse than
/// the earlier sets', and the bound. Exit code 1 when [`verdict`] fails for
/// any of them, 2 when the sets cannot be read.
pub fn aa(dir: &str) -> i32 {
    let declared = match declared() {
        Ok(declared) => declared,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut breached = false;
    println!(
        "| workload | metric | set values | largest pairwise diff | IQR / median | later vs earlier | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for workload in crate::WORKLOADS {
        let mut sets: Vec<Value> = Vec::new();
        loop {
            let path = Path::new(dir).join(format!("set{}.{workload}.json", sets.len() + 1));
            if !path.exists() {
                break;
            }
            match load(&path) {
                Ok(result) => sets.push(result),
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
        }
        if sets.len() < 2 {
            eprintln!(
                "{dir} holds {} set(s) of {workload}; need at least 2",
                sets.len()
            );
            return 2;
        }
        if let Some(reason) = sets.windows(2).find_map(|w| incomparable(&w[0], &w[1])) {
            eprintln!("{reason}");
            return 2;
        }
        for d in &declared {
            let values: Vec<f64> = sets.iter().filter_map(|s| metric(s, &d.name)).collect();
            if values.len() != sets.len() {
                eprintln!("a set of {workload} lacks {}", d.name);
                return 2;
            }
            let (spread, worsening, ok) = verdict(d, &values);
            breached |= !ok;
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {workload} | {} | {} | {:.2} % | {:.2} % | {:+.2} % | {:.1} % | {} |",
                d.name,
                listed.join(" "),
                100.0 * largest_pairwise_rel_diff(&values),
                100.0 * spread,
                100.0 * worsening,
                100.0 * d.bound,
                if ok { "ok" } else { "BREACH" }
            );
        }
    }
    i32::from(breached)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(nproc: f64, workload: &str) -> Value {
        Value::Object(vec![
            ("nproc".to_string(), Value::Number(nproc)),
            ("workload".to_string(), Value::String(workload.to_string())),
            ("trace".to_string(), Value::Bool(false)),
            ("seconds".to_string(), Value::Number(20.0)),
        ])
    }

    #[test]
    fn results_from_hosts_with_different_core_counts_are_refused() {
        assert!(incomparable(&result(2.0, "fig1_cold"), &result(2.0, "fig1_cold")).is_none());
        let reason = incomparable(&result(2.0, "fig1_cold"), &result(8.0, "fig1_cold")).unwrap();
        assert!(reason.contains("nproc"), "{reason}");
        assert!(incomparable(&result(2.0, "fig1_cold"), &result(2.0, "serve_mix")).is_some());
    }

    #[test]
    fn the_verdict_is_the_drivers_rule() {
        let time = Declared {
            name: "op_ms_p50".to_string(),
            bound: 0.10,
            higher_is_better: false,
        };
        // quartiles of 10,10,10,11: 10, 10, 10.75 -> spread 7.5 %; later
        // half (10, 11 -> 10.5) is 5 % worse than the earlier (10).
        let (spread, worsening, ok) = verdict(&time, &[10.0, 10.0, 10.0, 11.0]);
        assert!((spread - 0.075).abs() < 1e-12 && (worsening - 0.05).abs() < 1e-12 && ok);
        // Spread beyond the bound fails, except for setup_s...
        assert!(!verdict(&time, &[10.0, 12.0, 10.0, 12.0]).2);
        let setup = Declared {
            name: "setup_s".to_string(),
            ..time
        };
        assert!(verdict(&setup, &[10.0, 12.0, 10.0, 12.0]).2);
        // ...which still must not drift: later median 12 vs earlier 10.
        assert!(!verdict(&setup, &[10.0, 10.0, 12.0, 12.0]).2);
        // A throughput that rises is not a worsening.
        let rate = Declared {
            name: "ops_per_s".to_string(),
            bound: 0.10,
            higher_is_better: true,
        };
        assert!(verdict(&rate, &[10.0, 10.0, 10.5, 10.6]).1 < 0.0);
        // Exact metrics may not move at all.
        let exact = Declared {
            name: "sim_geomean_speedup".to_string(),
            bound: 0.001,
            higher_is_better: true,
        };
        assert!(verdict(&exact, &[1.191, 1.191]).2);
        assert!(!verdict(&exact, &[1.191, 1.1910001]).2);
    }

    #[test]
    fn compare_exits_2_on_a_core_count_mismatch() {
        let dir = crate::out_dir().join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, value: &Value| {
            let path = dir.join(name);
            std::fs::write(&path, serde_json::to_string(value).unwrap()).unwrap();
            path.to_str().unwrap().to_string()
        };
        let a = write("a.json", &result(2.0, "fig1_cold"));
        let b = write("b.json", &result(4.0, "fig1_cold"));
        assert_eq!(compare(&a, &b), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
