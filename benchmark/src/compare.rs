//! `--compare A B`: applies the regression bounds of `BENCHMARK.json` to two
//! result sets, per (end-to-end metric, workload).

use std::path::Path;

use crate::json::{self, Value};

/// The benchmark's contract, embedded so the bounds applied are always the
/// ones of the commit the binary was built from.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Differences smaller than this many units are unchanged whatever their
/// relative size: set-up takes tens of milliseconds, where a relative bound
/// alone would flag timer noise.
const ABS_FLOOR: [(&str, f64); 1] = [("setup_s", 0.02)];

/// The regression bound of one end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's value by which B may be worse.
    pub bound: f64,
}

/// The end-to-end bounds declared in `BENCHMARK.json`.
pub fn bounds() -> Vec<Bound> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Regressed,
    /// The repetitions of one side spread wider than the bound, so the
    /// medians cannot resolve a change of that size.
    Unresolved,
}

/// One side of a comparison: a metric's median and its spread over reps.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub spread_frac: f64,
}

pub fn judge(bound: &Bound, a: Side, b: Side) -> Verdict {
    let floor = ABS_FLOOR
        .iter()
        .find(|(name, _)| *name == bound.name)
        .map_or(0.0, |(_, floor)| *floor);
    if (b.value - a.value).abs() < floor {
        return Verdict::Unchanged;
    }
    if a.spread_frac.max(b.spread_frac) > bound.bound {
        return Verdict::Unresolved;
    }
    let worse = if bound.higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    };
    if worse > bound.bound * a.value.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Result documents under `path`: the file itself, or every `*.json` in the
/// directory, keyed by workload name.
fn load(path: &str) -> Result<Vec<(String, Value)>, String> {
    let mut files = Vec::new();
    if Path::new(path).is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{path}: {e}"))?;
        for entry in entries {
            let file = entry.map_err(|e| format!("{path}: {e}"))?.path();
            if file.extension().is_some_and(|ext| ext == "json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.into());
    }
    let mut docs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if let Some(workload) = doc.get("workload").and_then(Value::as_str) {
            docs.push((workload.to_string(), doc));
        }
    }
    if docs.is_empty() {
        return Err(format!("{path}: no result documents"));
    }
    Ok(docs)
}

fn side(doc: &Value, metric: &str) -> Option<Side> {
    let m = doc.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        spread_frac: m.get("spread_frac").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

/// Prints one row per workload and one line per metric; `Ok(true)` when no
/// pair regressed or stayed unresolved.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a_docs, b_docs) = (load(a_path)?, load(b_path)?);
    let bounds = bounds();
    let mut clean = true;
    for (workload, a) in &a_docs {
        let Some((_, b)) = b_docs.iter().find(|(name, _)| name == workload) else {
            println!("{workload}: missing from {b_path}");
            clean = false;
            continue;
        };
        let mut lines = Vec::new();
        let (mut regressed, mut unresolved, mut unchanged) = (Vec::new(), Vec::new(), 0);
        for bound in &bounds {
            let (Some(sa), Some(sb)) = (side(a, &bound.name), side(b, &bound.name)) else {
                lines.push(format!("  {:<18} missing on one side", bound.name));
                unresolved.push(bound.name.as_str());
                continue;
            };
            let verdict = judge(bound, sa, sb);
            match verdict {
                Verdict::Unchanged => unchanged += 1,
                Verdict::Regressed => regressed.push(bound.name.as_str()),
                Verdict::Unresolved => unresolved.push(bound.name.as_str()),
            }
            lines.push(format!(
                "  {:<18} A={:<14} B={:<14} change={:+.4} bound={} ({}) spread A={:.4} B={:.4}  {:?}",
                bound.name,
                sa.value,
                sb.value,
                if sa.value != 0.0 { sb.value / sa.value - 1.0 } else { 0.0 },
                bound.bound,
                if bound.higher_is_better { "higher is better" } else { "lower is better" },
                sa.spread_frac,
                sb.spread_frac,
                verdict
            ));
        }
        let digests = (a.get("digest"), b.get("digest"));
        println!(
            "{workload}: regressed={regressed:?} unresolved={unresolved:?} unchanged={unchanged}/{} digest {}",
            bounds.len(),
            if digests.0 == digests.1 { "equal" } else { "DIFFERS" }
        );
        for line in lines {
            println!("{line}");
        }
        clean &= regressed.is_empty() && unresolved.is_empty();
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, higher_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: name.to_string(),
            higher_is_better,
            bound,
        }
    }

    fn steady(value: f64) -> Side {
        Side {
            value,
            spread_frac: 0.0,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let wall = bound("run_wall_s", false, 0.10);
        assert_eq!(judge(&wall, steady(10.0), steady(10.9)), Verdict::Unchanged);
        assert_eq!(judge(&wall, steady(10.0), steady(11.1)), Verdict::Regressed);
        assert_eq!(judge(&wall, steady(10.0), steady(5.0)), Verdict::Unchanged);
        let goodput = bound("goodput_rps", true, 0.05);
        assert_eq!(
            judge(&goodput, steady(100.0), steady(96.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&goodput, steady(100.0), steady(94.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&goodput, steady(100.0), steady(200.0)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let wall = bound("run_wall_s", false, 0.10);
        let noisy = Side {
            value: 10.0,
            spread_frac: 0.15,
        };
        assert_eq!(judge(&wall, noisy, steady(10.1)), Verdict::Unresolved);
        assert_eq!(judge(&wall, steady(10.0), noisy), Verdict::Unresolved);
    }

    #[test]
    fn the_absolute_floor_absorbs_small_set_up_differences() {
        let setup = bound("setup_s", false, 0.25);
        // 40 % worse, but 16 ms: timer noise at this size.
        assert_eq!(
            judge(&setup, steady(0.040), steady(0.056)),
            Verdict::Unchanged
        );
        // Past the floor the relative bound applies again.
        assert_eq!(
            judge(&setup, steady(0.040), steady(0.070)),
            Verdict::Regressed
        );
        assert_eq!(judge(&setup, steady(1.0), steady(1.2)), Verdict::Unchanged);
        // The floor also outranks a wide spread: nothing to resolve.
        let noisy = Side {
            value: 0.040,
            spread_frac: 0.5,
        };
        assert_eq!(judge(&setup, noisy, steady(0.050)), Verdict::Unchanged);
        // Other metrics have no floor.
        let wall = bound("run_wall_s", false, 0.10);
        assert_eq!(
            judge(&wall, steady(0.040), steady(0.056)),
            Verdict::Regressed
        );
    }

    #[test]
    fn benchmark_json_declares_a_bound_for_every_end_to_end_metric() {
        let bounds = bounds();
        assert!(bounds
            .iter()
            .any(|b| b.name == "setup_s" && !b.higher_is_better));
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
