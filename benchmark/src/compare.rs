//! `compare A.json B.json`: two results of `run`, row by row.
//!
//! One row per workload and end-to-end metric: both medians, B as a ratio
//! of A (A is the base), the bound, and a verdict. A metric that repeats
//! exactly is compared for equality; any other is `unresolved` when
//! either side's own quartile spread is wider than the bound, because a
//! difference smaller than the noise cannot be told from none.

use std::path::Path;

use crate::json::Json;
use crate::orchestrate::read_results;
use crate::spec::Better;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    /// Interquartile distance as a share of the median.
    pub spread: f64,
}

/// The verdict on B against the base A.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64, exact: bool) -> Verdict {
    let gain = match better {
        Better::Higher => b.median - a.median,
        Better::Lower => a.median - b.median,
    };
    if exact {
        return if gain == 0.0 {
            Verdict::Same
        } else if gain > 0.0 {
            Verdict::Better
        } else {
            Verdict::Worse
        };
    }
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    let relative = gain / a.median.abs();
    if relative < -bound {
        Verdict::Worse
    } else if relative > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        median: metric.get("median")?.as_f64()?,
        spread: metric.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Prints the comparison. `Ok(true)` when no row is `worse` or
/// `unresolved`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_results(a_path)?, read_results(b_path)?);
    for key in ["seed", "quick", "rounds"] {
        if a.get(key) != b.get(key) {
            println!(
                "# note: {key} differs ({:?} against {:?}); exact metrics only repeat at equal seeds",
                a.get(key),
                b.get(key)
            );
        }
    }
    println!(
        "# A = {} (the base), B = {}",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<13} {:<14} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let workloads = |r: &Json| r.get("workloads").and_then(Json::as_obj).cloned();
    let (wa, wb) = (
        workloads(&a).ok_or("A has no workloads")?,
        workloads(&b).ok_or("B has no workloads")?,
    );
    let mut clean = true;
    for (name, in_a) in &wa {
        let metrics = in_a.get("end_to_end").and_then(Json::as_obj);
        for (metric, ma) in metrics.into_iter().flatten() {
            let mb = wb
                .get(name)
                .and_then(|w| w.get("end_to_end"))
                .and_then(|e| e.get(metric));
            let (Some(sa), Some(sb)) = (side(ma), mb.and_then(side)) else {
                println!("{name:<13} {metric:<14} missing on one side");
                clean = false;
                continue;
            };
            let better = match ma.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let exact = ma.get("exact") == Some(&Json::Bool(true));
            let v = verdict(sa, sb, better, bound, exact);
            clean &= !matches!(v, Verdict::Worse | Verdict::Unresolved);
            println!(
                "{name:<13} {metric:<14} {:>16.6} {:>16.6} {:>9.4} {:>7}  {}{}",
                sa.median,
                sb.median,
                sb.median / sa.median,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{bound}")
                },
                v.label(),
                if v == Verdict::Unresolved {
                    format!(" (spread A {:.3}, B {:.3})", sa.spread, sb.spread)
                } else {
                    String::new()
                },
            );
        }
    }
    println!("# per-layer metrics (no bound: they say where a change landed)");
    println!("{:<44} {:>14} {:>14} {:>9}", "metric", "A", "B", "B/A");
    let layers = |r: &Json| {
        r.get("per_layer")
            .and_then(Json::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let (la, lb) = (layers(&a), layers(&b));
    for (name, ma) in &la {
        if let (Some(sa), Some(sb)) = (side(ma), lb.get(name).and_then(side)) {
            println!(
                "{name:<44} {:>14.4} {:>14.4} {:>9.4}",
                sa.median,
                sb.median,
                sb.median / sa.median
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let (hi, lo) = (Better::Higher, Better::Lower);
        assert_eq!(
            verdict(s(100.0, 0.01), s(95.0, 0.01), hi, 0.10, false),
            Verdict::Same
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(85.0, 0.01), hi, 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(115.0, 0.01), hi, 0.10, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(115.0, 0.01), lo, 0.10, false),
            Verdict::Worse
        );
        // A difference inside either side's own noise is not a finding.
        assert_eq!(
            verdict(s(100.0, 0.2), s(50.0, 0.01), hi, 0.10, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(50.0, 0.2), hi, 0.10, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_compare_for_equality() {
        let lo = Better::Lower;
        assert_eq!(
            verdict(s(5.1276, 0.0), s(5.1276, 0.0), lo, 0.1, true),
            Verdict::Same
        );
        assert_eq!(
            verdict(s(5.1276, 0.0), s(5.1277, 0.0), lo, 0.1, true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(5.1276, 0.0), s(5.1275, 0.0), lo, 0.1, true),
            Verdict::Better
        );
    }
}
