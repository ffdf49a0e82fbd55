//! `benchmark compare A.json B.json`: B against the baseline A, one row
//! per (workload, metric), each end-to-end metric judged by its direction
//! and bound. Per-layer figures and probes have no bound; rows that
//! changed are listed for attribution.

use crate::catalog::{self, Better};
use crate::json::Json;
use crate::report;

/// How B's value stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Identical to the last digit.
    Same,
    /// Different, but not worse by more than the bound.
    Within,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Within => "within",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// Judges `b` against the baseline `a`. `bound` is a share of `a`; a bound
/// of 0 is absolute (any worsening regresses), which is how
/// `failed_ops_share` is held at zero.
pub fn judge(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    if a == b {
        return Verdict::Same;
    }
    let change = (b - a).abs();
    let beyond = if a == 0.0 || bound == 0.0 {
        change > 0.0
    } else {
        change / a.abs() > bound
    };
    match (better.worse(a, b), beyond) {
        (true, true) => Verdict::Regressed,
        (false, true) => Verdict::Improved,
        (_, false) => Verdict::Within,
    }
}

fn value(metrics: Option<&Json>, name: &str) -> Option<f64> {
    metrics?.get(name)?.get("value")?.as_f64()
}

fn row(workload: &str, name: &str, unit: &str, a: f64, b: f64, verdict: &str) {
    let ratio = if a == 0.0 {
        "     n/a".to_string()
    } else {
        format!("{:8.4}", b / a)
    };
    println!(
        "{workload:<16} {name:<44} {a:>16.4} {b:>16.4}  B/A {ratio} (base {a:.4} {unit})  {verdict}"
    );
}

/// Compares two result files; returns the number of regressions.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    report::validate_results(a).map_err(|e| format!("A: {e}"))?;
    report::validate_results(b).map_err(|e| format!("B: {e}"))?;
    let (wa, wb) = (
        a.get("workloads").expect("validated"),
        b.get("workloads").expect("validated"),
    );
    let mut regressions = 0;
    println!(
        "{:<16} {:<44} {:>16} {:>16}",
        "workload", "metric", "A", "B"
    );
    for (workload, ra) in wa.entries() {
        let Some(rb) = wb.get(workload) else {
            println!("{workload:<16} missing from B");
            regressions += 1;
            continue;
        };
        let (ea, eb) = (ra.get("end_to_end"), rb.get("end_to_end"));
        let gated = catalog::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, m.bound))
            .chain(std::iter::once((
                "failed_ops_share",
                "ratio",
                Better::Lower,
                0.0,
            )));
        for (name, unit, better, bound) in gated {
            let (Some(x), Some(y)) = (value(ea, name), value(eb, name)) else {
                println!("{workload:<16} {name:<44} missing");
                regressions += 1;
                continue;
            };
            let verdict = judge(x, y, better, bound);
            if verdict == Verdict::Regressed {
                regressions += 1;
            }
            row(workload, name, unit, x, y, verdict.label());
        }
        // Per-layer figures: no bound, so no verdict beyond same/changed.
        let (la, lb) = (ra.get("per_layer"), rb.get("per_layer"));
        let mut same = 0;
        for (name, entry) in la.map(Json::entries).unwrap_or_default() {
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            match (value(la, name), value(lb, name)) {
                (Some(x), Some(y)) if x == y => same += 1,
                (Some(x), Some(y)) => row(workload, name, unit, x, y, "changed"),
                _ => println!("{workload:<16} {name:<44} missing from B"),
            }
        }
        if la.is_some() {
            println!("{workload:<16} {same} per-layer figures identical");
        }
    }
    if let (Some(pa), Some(pb)) = (a.get("probes"), b.get("probes")) {
        for (name, entry) in pa.entries() {
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            if let (Some(x), Some(y)) = (value(Some(pa), name), value(Some(pb), name)) {
                row(
                    "probes",
                    name,
                    unit,
                    x,
                    y,
                    if x == y { "same" } else { "changed" },
                );
            }
        }
    }
    println!(
        "\n{regressions} regression(s) beyond the bounds{}",
        if regressions == 0 { "" } else { " — FAIL" }
    );
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 100.0, Lower, 0.01), Verdict::Same);
        assert_eq!(judge(100.0, 100.5, Lower, 0.01), Verdict::Within);
        assert_eq!(judge(100.0, 99.5, Lower, 0.01), Verdict::Within);
        assert_eq!(judge(100.0, 101.5, Lower, 0.01), Verdict::Regressed);
        assert_eq!(judge(100.0, 98.0, Lower, 0.01), Verdict::Improved);
        assert_eq!(judge(100.0, 98.0, Higher, 0.01), Verdict::Regressed);
        assert_eq!(judge(100.0, 102.0, Higher, 0.01), Verdict::Improved);
        // Absolute zero bound: any failed op regresses.
        assert_eq!(judge(0.0, 0.001, Lower, 0.0), Verdict::Regressed);
        assert_eq!(judge(0.0, 0.0, Lower, 0.0), Verdict::Same);
    }
}
