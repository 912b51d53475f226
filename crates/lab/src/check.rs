//! `lab --check`: acceptance claims and baseline regression diffs.
//!
//! Two independent gates, both driven from the scenario spec so a new
//! scenario file automatically becomes a CI gate:
//!
//! * [`check_claims`] — the scenario's `[[claim]]`s
//!   ([`crate::spec::Claim`]: compare / recovers / settles) evaluated
//!   over the fresh report by one generic evaluator: bounded admitted
//!   tails at overload, diverging uncontrolled baselines, recovered tail
//!   gaps, settled series. These encode *what the experiment is supposed
//!   to show*; a refactor that silently changes the outcome fails here
//!   with the claim's own keys, the case, the load and both sides.
//! * [`check_baseline`] — structural and numeric comparison against a
//!   committed baseline JSON: same series, same grid, and (for
//!   deterministic hosts) headline metrics within the scenario's
//!   tolerance. This catches quiet drift that no claim covers.

use crate::report::{Drift, PointMetrics, Report, Series, SCALARS};
use crate::spec::{Claim, HostSpec, Op, Readers, Rhs, Scenario};

/// Evaluates the scenario's claims over a report. Returns every
/// violation (empty = pass); each one prints the claim's own keys, the
/// case, the load and both sides of the comparison that failed.
pub fn check_claims(sc: &Scenario, report: &Report) -> Vec<String> {
    let mut errs = Vec::new();
    for (i, claim) in sc.claims.iter().enumerate() {
        let prefix = format!("claim #{} {{{claim}}}", i + 1);
        match comparisons(claim, sc, report) {
            Ok(found) => {
                for c in found.iter().filter(|c| !c.op.holds(c.lhs, c.rhs)) {
                    let (case, load, what, op) = (&c.case, c.load, &c.what, c.op.symbol());
                    errs.push(format!(
                        "{prefix}: [{case}] load {load:.2}: {what} {:.3} is not {op} {}{:.3}",
                        c.lhs, c.rhs_from, c.rhs
                    ));
                }
            }
            Err(e) => errs.push(format!("{prefix}: {e}")),
        }
    }
    errs
}

/// One comparison a claim makes: a case at a load, and both sides.
struct Comparison {
    case: String,
    load: f64,
    /// What the left-hand side measures.
    what: String,
    lhs: f64,
    op: Op,
    rhs: f64,
    /// How the right-hand side was derived (empty for a constant).
    rhs_from: String,
}

/// Every comparison `claim` makes over `report`, or the reason it cannot
/// be evaluated (a named case, load or metric the report lacks — loud,
/// never silently skipped).
fn comparisons(claim: &Claim, sc: &Scenario, report: &Report) -> Result<Vec<Comparison>, String> {
    let series = |label: &str| {
        report
            .series(label)
            .ok_or_else(|| format!("case {label:?} is missing from the report"))
    };
    fn at_load(s: &Series, load: f64) -> Result<&PointMetrics, String> {
        s.points
            .iter()
            .find(|q| (q.load - load).abs() < 1e-9)
            .ok_or_else(|| format!("[{}] has no point at load {load:.2}", s.label))
    }
    let read = |s: &Series, p: &PointMetrics, metric: &str| {
        p.metric(metric).ok_or_else(|| {
            format!(
                "[{}] load {:.2}: the point has no {metric}",
                s.label, p.load
            )
        })
    };
    let mut out = Vec::new();
    match claim {
        Claim::Compare(c) => {
            for label in &c.cases {
                let s = series(label)?;
                let loads: Vec<f64> = s.points.iter().map(|p| p.load).collect();
                let picked = c.select.indices(&loads);
                if picked.is_empty() {
                    return Err(format!(
                        "[{label}] the load window selects no point of {loads:?}"
                    ));
                }
                for p in picked.into_iter().map(|i| &s.points[i]) {
                    let (rhs, rhs_from) = match &c.rhs {
                        Rhs::Value(v) => (*v, String::new()),
                        Rhs::Times {
                            times,
                            of,
                            of_metric,
                        } => {
                            let rs = series(of.as_ref().unwrap_or(label))?;
                            let rm = of_metric.as_ref().unwrap_or(&c.metric);
                            let r = read(rs, at_load(rs, p.load)?, rm)?;
                            let from = format!("{times} x {rm} of [{}] {r:.3} = ", rs.label);
                            (times * r, from)
                        }
                    };
                    out.push(Comparison {
                        case: label.clone(),
                        load: p.load,
                        what: c.metric.clone(),
                        lhs: read(s, p, &c.metric)?,
                        op: c.op,
                        rhs,
                        rhs_from,
                    });
                }
            }
        }
        Claim::Recovers(r) => {
            let (metric, base, worse) = (&r.metric, &r.base, &r.worse);
            let (b, w, f) = (series(base)?, series(worse)?, series(&r.fixed)?);
            for wp in &w.points {
                let wv = read(w, wp, metric)?;
                let bv = read(b, at_load(b, wp.load)?, metric)?;
                let fv = read(f, at_load(f, wp.load)?, metric)?;
                out.push(Comparison {
                    case: r.fixed.clone(),
                    load: wp.load,
                    what: format!("{metric} recovery ([{worse}] {wv:.3} - {fv:.3}) ="),
                    lhs: wv - fv,
                    op: Op::Ge,
                    rhs: r.fraction * (wv - bv),
                    rhs_from: format!("{} x the gap ({wv:.3} - [{base}] {bv:.3}) = ", r.fraction),
                });
            }
        }
        Claim::Settles(c) => {
            let (name, case, value) = (&c.series, &c.case, c.value);
            let (at_us, duration_us, _) = sc
                .faults
                .as_ref()
                .and_then(|f| f.burst)
                .ok_or("the scenario has no [faults] burst to settle after")?;
            for p in &series(case)?.points {
                let here = format!("[{case}] load {:.2}", p.load);
                let ts = p
                    .timeseries
                    .iter()
                    .find(|ts| &ts.name == name)
                    .map(|ts| ts.points.as_slice())
                    .ok_or_else(|| format!("{here}: the point has no {name} series"))?;
                // The deadline is counted in series intervals read off the
                // harvested series itself.
                let dt = series_dt(ts)
                    .ok_or_else(|| format!("{here}: {name} has too few samples for an interval"))?;
                let deadline_us = at_us + duration_us + c.settle_windows as f64 * dt;
                let (Some(pre), Some(post)) = (
                    mean_where(ts, |t| t < at_us),
                    mean_where(ts, |t| t >= deadline_us),
                ) else {
                    return Err(format!(
                        "{here}: {name} has no pre-burst or post-deadline samples \
                         (burst at {at_us:.0}us, deadline {deadline_us:.0}us)"
                    ));
                };
                out.push(Comparison {
                    case: case.clone(),
                    load: p.load,
                    what: format!("{name} mean past the {deadline_us:.0}us settling deadline"),
                    lhs: post,
                    op: c.op,
                    rhs: value * pre,
                    rhs_from: format!("{value} x the pre-burst mean {pre:.3} = "),
                });
            }
        }
    }
    Ok(out)
}

/// Pins the telemetry the scenario requested: every simulated series must
/// carry one non-empty time-series per requested kind, and every traced
/// one the p99 sojourn decomposition (components summing to the measured
/// p99 within 1% — the attribution is an exact partition, so the bound
/// only absorbs histogram bucketing). Returns every violation.
pub fn check_telemetry(sc: &Scenario, report: &Report) -> Vec<String> {
    let Some(tel) = &sc.telemetry else {
        return Vec::new();
    };
    let mut errs = Vec::new();
    for s in &report.series {
        let Some(case) = sc.case(&s.label) else {
            continue;
        };
        if !Readers::Simulated.reads(case.host) {
            continue;
        }
        let traced = tel.trace && matches!(case.host, HostSpec::Sim(_));
        for p in &s.points {
            if traced && p.p99_us > 0.0 {
                let sum = p.p99_queue_us + p.p99_service_us + p.p99_steal_us + p.p99_preempt_us;
                if (sum - p.p99_us).abs() > 0.01 * p.p99_us {
                    errs.push(format!(
                        "[{}] load {:.2}: decomposition sum {sum:.2}us does not match the \
                         measured p99 {:.2}us (must agree within 1%)",
                        s.label, p.load, p.p99_us
                    ));
                }
            }
            for kind in &tel.series {
                // Per-class kinds register one series per class, and fleet
                // series carry a `shard<i>/` namespace; a prefix match on
                // the last path segment covers every spelling.
                let present = p.timeseries.iter().any(|ts| {
                    let name = ts.name.rsplit('/').next().unwrap_or_default();
                    name.starts_with(kind.name()) && !ts.points.is_empty()
                });
                if !present {
                    errs.push(format!(
                        "[{}] load {:.2}: requested series {:?} is missing or empty",
                        s.label,
                        p.load,
                        kind.name()
                    ));
                }
            }
        }
    }
    errs
}

/// Compares a fresh report against a committed baseline. Structure must
/// match exactly; deterministic series additionally compare headline
/// numbers within `sc.check_tolerance` (relative, with small absolute
/// floors so near-zero metrics do not produce infinite ratios).
pub fn check_baseline(sc: &Scenario, fresh: &Report, baseline: &Report) -> Vec<String> {
    let mut errs = Vec::new();
    if baseline.scenario != fresh.scenario {
        errs.push(format!(
            "baseline is for scenario {:?}, report is {:?}",
            baseline.scenario, fresh.scenario
        ));
        return errs;
    }
    if baseline.smoke != fresh.smoke {
        errs.push(format!(
            "baseline was recorded at {} scale, this run is {} — rerun with the matching mode \
             or regenerate with --write-baselines",
            mode(baseline.smoke),
            mode(fresh.smoke)
        ));
        return errs;
    }
    if baseline.series.len() != fresh.series.len() {
        errs.push(format!(
            "series count changed: baseline {}, report {} — regenerate the baseline",
            baseline.series.len(),
            fresh.series.len()
        ));
        return errs;
    }
    for (b, f) in baseline.series.iter().zip(&fresh.series) {
        if b.label != f.label || b.host != f.host {
            errs.push(format!(
                "series changed: baseline {:?}@{} vs report {:?}@{}",
                b.label, b.host, f.label, f.host
            ));
            continue;
        }
        if b.points.len() != f.points.len() {
            errs.push(format!(
                "[{}] grid changed: baseline {} points, report {}",
                f.label,
                b.points.len(),
                f.points.len()
            ));
            continue;
        }
        for (bp, fp) in b.points.iter().zip(&f.points) {
            if (bp.load - fp.load).abs() > 1e-9 {
                errs.push(format!(
                    "[{}] grid changed: baseline load {:.4}, report {:.4}",
                    f.label, bp.load, fp.load
                ));
                continue;
            }
            if !(b.deterministic && f.deterministic) {
                continue; // Wall-clock series: structural compare only.
            }
            // Headline metrics only (the table's non-`Free` entries): the
            // point is catching regressions, not entombing every digit.
            for (m, drift) in SCALARS {
                let (bv, fv) = (*(m.get)(bp), *(m.get)(fp));
                let failure = match *drift {
                    // NaN: the baseline predates this metric.
                    _ if bv.is_nan() => None,
                    Drift::Free => None,
                    Drift::Within(floor) => drifted(sc, m.name, bv, fv, floor),
                    Drift::Sign => ((bv > 0.0) != (fv > 0.0))
                        .then(|| format!("{} changed sign class ({bv:.0} vs {fv:.0})", m.name)),
                };
                if let Some(e) = failure {
                    errs.push(format!("[{}] load {:.2}: {e}", f.label, bp.load));
                }
            }
        }
        // Search and tail results: presence is structural; values compare
        // within the same tolerance. Probe counts are deliberately not
        // compared — they are pinned by unit tests, not baselines.
        if b.search.is_some() != f.search.is_some() {
            errs.push(format!(
                "[{}] search result presence changed — regenerate the baseline",
                f.label
            ));
        }
        if b.tail.is_some() != f.tail.is_some() {
            errs.push(format!(
                "[{}] tail result presence changed — regenerate the baseline",
                f.label
            ));
        }
        if b.deterministic && f.deterministic {
            let mut results = Vec::new();
            if let (Some(bs), Some(fs)) = (&b.search, &f.search) {
                results.push(("search.max_load", bs.max_load, fs.max_load, 0.05));
            }
            if let (Some(bt), Some(ft)) = (&b.tail, &f.tail) {
                results.push(("tail.value_us", bt.value_us, ft.value_us, 5.0));
                let (bv, fv) = (bt.brute_value_us, ft.brute_value_us);
                results.push(("tail.brute_value_us", bv, fv, 5.0));
            }
            for (name, bv, fv, floor) in results {
                if let Some(e) = drifted(sc, name, bv, fv, floor) {
                    errs.push(format!("[{}] {e}", f.label));
                }
            }
        }
    }
    errs
}

/// `Some(description)` when `fv` left `bv` by more than the scenario's
/// relative tolerance (`floor` keeps near-zero values from producing
/// infinite ratios).
fn drifted(sc: &Scenario, name: &str, bv: f64, fv: f64, floor: f64) -> Option<String> {
    let scale = bv.abs().max(fv.abs()).max(floor);
    ((bv - fv).abs() > sc.check_tolerance * scale).then(|| {
        format!(
            "{name} drifted from {bv:.3} to {fv:.3} (tolerance {:.0}%)",
            sc.check_tolerance * 100.0
        )
    })
}

fn mode(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// Median spacing between consecutive series samples, µs. Median rather
/// than mean: the window-p99 harvest skips empty windows, so gaps can be
/// multiples of the tick interval.
fn series_dt(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let mut gaps: Vec<f64> = points.windows(2).map(|w| w[1].0 - w[0].0).collect();
    gaps.sort_by(f64::total_cmp);
    Some(gaps[gaps.len() / 2])
}

/// Mean of series values at times satisfying `pred` (`None` if no sample
/// does).
fn mean_where(points: &[(f64, f64)], pred: impl Fn(f64) -> bool) -> Option<f64> {
    let vals: Vec<f64> = points
        .iter()
        .filter(|(t, _)| pred(*t))
        .map(|&(_, v)| v)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{TraceSeries, SCHEMA_VERSION};
    use crate::scenario_from_toml;

    /// `sim:zygos` cases `labels` over `loads`, then `rest` — further
    /// TOML tables, here the `[[claim]]`s under test.
    fn scenario_of(loads: &str, labels: &[&str], rest: &str) -> Scenario {
        let case = |l: &&str| format!("[[case]]\nlabel = \"{l}\"\nhost = \"sim:zygos\"\n");
        let cases: String = labels.iter().map(case).collect();
        let head = "name = \"chk\"\n[workload]\nservice = \"exponential\"\nmean_us = 10.0";
        scenario_from_toml(&format!("{head}\nloads = {loads}\n{cases}{rest}")).expect("valid")
    }

    fn scenario() -> Scenario {
        let claims = "[[claim]]\nmetric = \"p99_us\"\ncases = [\"credits\"]\nop = \"<=\"\n\
                      value = 200.0\nmin_load = 1.19\n\
                      [[claim]]\nmetric = \"p99_us\"\ncases = [\"static\"]\nop = \">=\"\n\
                      times = 2.0\nof = \"credits\"\n";
        scenario_of("[1.2]", &["static", "credits"], claims)
    }

    /// One deterministic series per `(label, [(load, p99_us)])`.
    fn p99_report(curves: &[(&str, &[(f64, f64)])]) -> Report {
        let point = |&(load, p99_us): &(f64, f64)| PointMetrics {
            load,
            p99_us,
            ..PointMetrics::default()
        };
        let series = |(label, curve): &(&str, &[(f64, f64)])| Series {
            label: label.to_string(),
            host: "sim:zygos".into(),
            deterministic: true,
            points: curve.iter().map(point).collect(),
            search: None,
            tail: None,
        };
        Report {
            schema: SCHEMA_VERSION,
            scenario: "chk".into(),
            smoke: true,
            series: curves.iter().map(series).collect(),
        }
    }

    fn report(static_p99: f64, credits_p99: f64, shed: f64) -> Report {
        let (s, c) = ([(1.2, static_p99)], [(1.2, credits_p99)]);
        let mut r = p99_report(&[("static", &s), ("credits", &c)]);
        for s in &mut r.series {
            s.points[0].mrps = 1.0;
            s.points[0].avg_cores = 16.0;
        }
        r.series[1].points[0].shed_fraction = shed;
        r
    }

    /// Asserts exactly one violation, naming every needle.
    fn assert_one(errs: &[String], needles: &[&str]) {
        assert_eq!(errs.len(), 1, "{errs:?}");
        for n in needles {
            assert!(errs[0].contains(n), "{n:?} not in {:?}", errs[0]);
        }
    }

    #[test]
    fn compare_claims_name_case_load_and_both_sides() {
        let sc = scenario();
        assert!(check_claims(&sc, &report(2_500.0, 90.0, 0.3)).is_empty());
        assert_one(
            &check_claims(&sc, &report(2_500.0, 400.0, 0.3)),
            &[
                "claim #1 {metric = \"p99_us\", cases = [\"credits\"], op = \"<=\", value = 200.0",
                "[credits] load 1.20: p99_us 400.000 is not <= 200.000",
            ],
        );
        let side = "p99_us 150.000 is not >= 2 x p99_us of [credits] 90.000 = 180.000";
        assert_one(
            &check_claims(&sc, &report(150.0, 90.0, 0.3)),
            &["claim #2", "[static] load 1.20:", side],
        );
        // A renamed series is loud, not silently skipped.
        let mut renamed = report(2_500.0, 90.0, 0.3);
        renamed.series[1].label = "renamed".into();
        let errs = check_claims(&sc, &renamed);
        assert_eq!(errs.len(), 2, "both claims read it: {errs:?}");
        assert!(errs[0].contains("\"credits\" is missing from the report"));
    }

    #[test]
    fn compare_claims_read_grid_extremes() {
        let claims = "[[claim]]\nmetric = \"p99_us\"\ncases = [\"split\"]\nop = \">=\"\n\
                      times = 1.0\nof = \"unified\"\nat = \"lowest\"\n\
                      [[claim]]\nmetric = \"p99_us\"\ncases = [\"unified\"]\nop = \">=\"\n\
                      times = 1.1\nof = \"split\"\nat = \"highest\"\n";
        let sc = scenario_of("[0.5, 0.8]", &["unified", "split"], claims);
        let report = |u: [f64; 2], s: [f64; 2]| {
            let (u, s) = ([(0.5, u[0]), (0.8, u[1])], [(0.5, s[0]), (0.8, s[1])]);
            p99_report(&[("unified", &u), ("split", &s)])
        };
        // Unified wins low, loses high by >1.1x: the claimed crossover.
        assert!(check_claims(&sc, &report([200.0, 550.0], [210.0, 450.0])).is_empty());
        // Split beats unified at the lowest load only: claim #1 fires there.
        assert_one(
            &check_claims(&sc, &report([200.0, 550.0], [180.0, 450.0])),
            &[
                "at = \"lowest\"",
                "[split] load 0.50: p99_us 180.000",
                "[unified] 200.000",
            ],
        );
        // No gap at the highest load: claim #2 fires there.
        assert_one(
            &check_claims(&sc, &report([200.0, 460.0], [210.0, 450.0])),
            &[
                "at = \"highest\"",
                "[unified] load 0.80: p99_us 460.000",
                "= 495.000",
            ],
        );
    }

    #[test]
    fn recovers_claims_measure_the_closed_gap() {
        let claim = "[[claim]]\nrecovers = [\"base\", \"worse\", \"fixed\"]\nmetric = \"p99_us\"\n\
                     fraction = 0.5\n";
        let sc = scenario_of("[0.5]", &["base", "worse", "fixed"], claim);
        let report = |fixed: f64| {
            let (b, w, f) = ([(0.5, 100.0)], [(0.5, 300.0)], [(0.5, fixed)]);
            p99_report(&[("base", &b), ("worse", &w), ("fixed", &f)])
        };
        // 150 of the 200us gap closed; then only 50.
        assert!(check_claims(&sc, &report(150.0)).is_empty());
        assert_one(
            &check_claims(&sc, &report(250.0)),
            &[
                "recovers = [\"base\", \"worse\", \"fixed\"]",
                "[fixed] load 0.50: p99_us recovery ([worse] 300.000 - 250.000) = 50.000 is not >= \
                 0.5 x the gap (300.000 - [base] 100.000) = 100.000",
            ],
        );
    }

    #[test]
    fn settles_claims_compare_post_deadline_to_pre_burst() {
        // Burst over [1000, 2000)us; samples every 200us, so two windows
        // put the settling deadline at 2400us.
        let rest = "[faults]\nburst = [1000.0, 1000.0, 2.0]\n\
                    [telemetry]\ntrace = false\nseries = [\"window_p99_us\"]\n\
                    [[claim]]\nseries = \"window_p99_us\"\ncase = \"gated\"\nsettle_windows = 2\n\
                    op = \"<=\"\nvalue = 1.5\n";
        let sc = scenario_of("[0.5]", &["gated"], rest);
        let bare = || p99_report(&[("gated", &[(0.5, 80.0)])]);
        let report = |settled: f64| {
            let level = |t: f64| match t {
                t if t < 1_000.0 => 50.0,
                t if t < 2_400.0 => 900.0,
                _ => settled,
            };
            let times = (0..20).map(|i| i as f64 * 200.0);
            let mut r = bare();
            r.series[0].points[0].timeseries = vec![TraceSeries {
                name: "window_p99_us".into(),
                points: times.map(|t| (t, level(t))).collect(),
            }];
            r
        };
        assert!(check_claims(&sc, &report(60.0)).is_empty());
        assert_one(
            &check_claims(&sc, &report(200.0)),
            &[
                "series = \"window_p99_us\", case = \"gated\", settle_windows = 2",
                "[gated] load 0.50: window_p99_us mean past the 2400us settling deadline 200.000 \
                 is not <= 1.5 x the pre-burst mean 50.000 = 75.000",
            ],
        );
        // A point without the series is loud.
        let needle = "[gated] load 0.50: the point has no window_p99_us series";
        assert_one(&check_claims(&sc, &bare()), &[needle]);
    }

    /// The committed `(scenario, baseline report)` pairs under `scenarios/`.
    fn committed() -> Vec<(Scenario, Report)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("scenarios/") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "toml") {
                let text = std::fs::read_to_string(&path).expect("reads");
                let sc = scenario_from_toml(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                let json = dir.join("baselines").join(format!("{}.json", sc.name));
                let json = std::fs::read_to_string(json).expect("baseline");
                out.push((sc, Report::from_json(&json).expect("parses")));
            }
        }
        out
    }

    #[test]
    fn every_committed_claim_holds_and_can_fail() {
        // Non-vacuity: against its committed baseline each claim passes,
        // and with its comparator negated it yields a violation — so no
        // claim is satisfied merely by comparing nothing.
        let negated = |op: Op| match op {
            Op::Lt => Op::Ge,
            Op::Le => Op::Gt,
            Op::Gt => Op::Le,
            Op::Ge => Op::Lt,
        };
        let mut claims = 0;
        for (sc, baseline) in committed() {
            assert!(check_claims(&sc, &baseline).is_empty(), "{}", sc.name);
            for claim in &sc.claims {
                let found = comparisons(claim, &sc, &baseline)
                    .unwrap_or_else(|e| panic!("{} {{{claim}}}: {e}", sc.name));
                assert!(
                    found.iter().any(|c| !negated(c.op).holds(c.lhs, c.rhs)),
                    "{} {{{claim}}} cannot fail",
                    sc.name
                );
                claims += 1;
            }
        }
        assert!(claims >= 21, "every ported claim is exercised: {claims}");
    }

    #[test]
    fn baselines_grow_additively() {
        let (sc, fresh) = committed()
            .into_iter()
            .find(|(sc, _)| sc.name == "retry-storm")
            .expect("committed");
        let json = fresh.to_json();
        assert!(fresh.series[0].points[0].goodput > 0.0, "worth comparing");
        // An older baseline that predates `goodput`: the key is absent
        // from every point, so the value parses as absent and is skipped.
        let mut older = String::new();
        for (i, piece) in json.split("\"goodput\": ").enumerate() {
            older += if i == 0 {
                piece
            } else {
                piece.split_once(", ").expect("more keys").1
            };
        }
        let older = Report::from_json(&older).expect("a missing scalar is not an error");
        assert!(older.series[0].points[0].goodput.is_nan());
        assert!(check_baseline(&sc, &fresh, &older).is_empty());
        // A newer baseline with a key this binary does not know.
        let newer = json.replace("\"load\": ", "\"p9999_us\": 1.5, \"load\": ");
        let newer = Report::from_json(&newer).expect("unknown keys are ignored");
        assert_eq!(newer, fresh);
        // Real drift still fails.
        let mut drifted = fresh.clone();
        drifted.series[0].points[0].p99_us *= 3.0;
        let errs = check_baseline(&sc, &fresh, &drifted);
        assert_one(&errs, &["[backoff] load 0.80: p99_us drifted"]);
    }

    #[test]
    fn telemetry_pins_catch_bad_decomposition_and_missing_series() {
        use crate::spec::TelemetrySpec;
        use zygos_sysim::SeriesKind;
        let mut sc = scenario();
        sc.telemetry = Some(TelemetrySpec {
            series: vec![SeriesKind::AdmittedRate],
            ..TelemetrySpec::default()
        });
        // Bare points: no decomposition, no series — both pins fire.
        let bare = report(2_500.0, 90.0, 0.3);
        let errs = check_telemetry(&sc, &bare);
        assert!(errs.iter().any(|e| e.contains("decomposition")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("admitted_rate")), "{errs:?}");
        // Faithful points: components partition the p99, series present.
        let mut good = bare.clone();
        for s in &mut good.series {
            for p in &mut s.points {
                p.p99_queue_us = 0.6 * p.p99_us;
                p.p99_service_us = 0.4 * p.p99_us;
                p.timeseries = vec![TraceSeries {
                    name: "admitted_rate".into(),
                    points: vec![(25.0, 1.2)],
                }];
            }
        }
        assert!(check_telemetry(&sc, &good).is_empty());
        // A scenario without telemetry pins nothing.
        let plain = scenario();
        assert!(check_telemetry(&plain, &bare).is_empty());
    }

    #[test]
    fn baseline_diff_tolerates_noise_but_not_drift() {
        let sc = scenario();
        let base = report(2_500.0, 90.0, 0.3);
        // Within 50% tolerance.
        assert!(check_baseline(&sc, &report(2_600.0, 100.0, 0.35), &base).is_empty());
        // p99 doubled: drift.
        let errs = check_baseline(&sc, &report(2_500.0, 190.0, 0.3), &base);
        assert!(
            errs.iter().any(|e| e.contains("p99_us drifted")),
            "{errs:?}"
        );
        // Structural changes are loud.
        let mut renamed = base.clone();
        renamed.series[0].label = "renamed".into();
        let errs = check_baseline(&sc, &base, &renamed);
        assert!(
            errs.iter().any(|e| e.contains("series changed")),
            "{errs:?}"
        );
    }

    #[test]
    fn baseline_gates_search_and_tail_results() {
        use crate::report::{SearchResult, TailResult};
        let sc = scenario();
        let mut base = report(2_500.0, 90.0, 0.3);
        base.series[0].search = Some(SearchResult {
            quantile: 0.99,
            bound_us: 100.0,
            resolution: 16,
            max_load: 0.8125,
            probes: 5,
            cold_probes: 1,
        });
        base.series[0].tail = Some(TailResult {
            load: 0.8,
            quantile: 0.999,
            value_us: 200.0,
            brute_value_us: 195.0,
            samples: 10_000,
            total_weight: 9_000.0,
            clones: 40,
            truncated: 0,
            master_events: 80_000,
            clone_events: 20_000,
            max_backlog: 50,
        });
        // Identical results pass; probe counts are free to differ.
        let mut fresh = base.clone();
        fresh.series[0].search.as_mut().expect("set").probes = 7;
        assert!(check_baseline(&sc, &fresh, &base).is_empty());
        // A drifted search load or tail estimate fails.
        let mut drifted = base.clone();
        drifted.series[0].search.as_mut().expect("set").max_load = 0.25;
        let errs = check_baseline(&sc, &drifted, &base);
        assert!(
            errs.iter().any(|e| e.contains("search.max_load")),
            "{errs:?}"
        );
        let mut drifted = base.clone();
        drifted.series[0].tail.as_mut().expect("set").value_us = 900.0;
        let errs = check_baseline(&sc, &drifted, &base);
        assert!(errs.iter().any(|e| e.contains("tail.value_us")), "{errs:?}");
        // Dropping a result entirely is structural.
        let mut missing = base.clone();
        missing.series[0].search = None;
        let errs = check_baseline(&sc, &missing, &base);
        assert!(
            errs.iter().any(|e| e.contains("search result presence")),
            "{errs:?}"
        );
    }
}
