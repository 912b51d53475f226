//! `lab` — run declarative scenarios, check claims and baselines.
//!
//! ```text
//! lab run <spec.toml>... [--smoke] [--check] [--baselines DIR] [--write-baselines] [--json]
//! lab trace <spec.toml> [--smoke] [--chrome FILE]
//! lab gen-trace [--out FILE]
//! ```
//!
//! * `run` executes each scenario (every case × every load) and prints
//!   the unified series in the workspace's grep-friendly layout. With
//!   `--check` it evaluates the scenario's claims and diffs the report
//!   against `DIR/<name>.json` (default `scenarios/baselines`), exiting
//!   nonzero on any violation — the CI gate. `--write-baselines`
//!   (re)writes the baseline files instead of comparing — unless the
//!   report violates its claims or telemetry pins, which is never pinned.
//! * `trace` re-runs the scenario's `sim:*` cases with the lifecycle
//!   tracer at full fidelity and prints the p50/p99 sojourn
//!   decomposition (queueing vs service vs steal/IPI vs preemption) per
//!   case × load, failing if a case × load yields no decomposition. `--chrome FILE` additionally writes
//!   the raw lifecycle events in Chrome trace-event format — load the
//!   file in `chrome://tracing` or Perfetto. See `docs/OBSERVABILITY.md`.
//! * `gen-trace` regenerates the bundled diurnal trace file.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zygos_lab::{
    check_baseline, check_claims, check_telemetry, run_scenario, scenario_from_toml,
    sys_config_for, HostSpec, Report, Scenario,
};
use zygos_net::cost::CostModel;
use zygos_sysim::{run_system, StagedConfig, TelemetryConfig};
use zygos_telemetry::{decompose, decomposition_at_quantile, ChromeTrace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("gen-trace") => cmd_gen_trace(&args[1..]),
        _ => {
            eprintln!(
                "usage: lab run <spec.toml>... [--smoke] [--check] [--baselines DIR] \
                 [--write-baselines] [--json]\n       lab trace <spec.toml> [--smoke] \
                 [--chrome FILE]\n       lab gen-trace [--out FILE]"
            );
            ExitCode::from(2)
        }
    }
}

/// `lab trace`: full-fidelity lifecycle tracing of a scenario's
/// simulator cases, independent of whatever `[telemetry]` block the
/// spec carries (tracing here is forced on, series stay off so the
/// engine event stream is untouched).
fn cmd_trace(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) if f.specs.len() == 1 && !(f.check || f.write_baselines || f.json) => f,
        Ok(_) => {
            eprintln!("usage: lab trace <spec.toml> [--smoke] [--chrome FILE]");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let spec = &flags.specs[0];
    match run_trace(spec, flags.smoke, flags.chrome.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lab trace FAILED [{}]: {e}", spec.display());
            ExitCode::FAILURE
        }
    }
}

fn run_trace(spec_path: &Path, smoke: bool, chrome: Option<&Path>) -> Result<(), String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("reading {}: {e}", spec_path.display()))?;
    let sc: Scenario = scenario_from_toml(&text).map_err(|e| e.to_string())?;
    println!(
        "# lab trace {} ({} scale)",
        sc.name,
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "# columns: scenario\tseries\tload\tquantile\ttotal_us\tqueue_us\tservice_us\t\
         steal_us\tpreempt_us"
    );
    let mut ct = ChromeTrace::new();
    let mut pid = 0u32;
    let mut traced = 0usize;
    for case in &sc.cases {
        if !matches!(case.host, HostSpec::Sim(_)) {
            continue;
        }
        for &load in sc.loads(smoke) {
            let mut cfg = sys_config_for(&sc, case, load, smoke).map_err(|e| e.to_string())?;
            cfg.telemetry = Some(TelemetryConfig::full_trace());
            let out = run_system(&cfg);
            let tel = out
                .telemetry
                .ok_or_else(|| format!("case {:?} produced no telemetry", case.label))?;
            if tel.dropped > 0 {
                eprintln!(
                    "# note: {} @ load {:.2} dropped {} lifecycle events (ring full)",
                    case.label, load, tel.dropped
                );
            }
            let mut decomps = decompose(&tel.events);
            if decomps.is_empty() {
                return Err(format!(
                    "case {:?} @ load {load:.2} traced no complete lifecycle",
                    case.label
                ));
            }
            for q in [0.50, 0.99] {
                if let Some(d) = decomposition_at_quantile(&mut decomps, q) {
                    let (queue_us, service_us, steal_us, preempt_us) = d.as_us();
                    println!(
                        "{}\t{}\t{:.4}\tp{:.0}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
                        sc.name,
                        case.label,
                        load,
                        q * 100.0,
                        d.total_ns as f64 / 1_000.0,
                        queue_us,
                        service_us,
                        steal_us,
                        preempt_us,
                    );
                }
            }
            if chrome.is_some() {
                pid += 1;
                ct.add_process(pid, &format!("{} @ load {:.2}", case.label, load));
                ct.add_events(pid, &tel.events);
            }
            traced += 1;
        }
    }
    if traced == 0 {
        return Err("no sim:* case to trace".to_string());
    }
    if let Some(path) = chrome {
        std::fs::write(path, ct.finish())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "# wrote chrome trace {} ({} process(es))",
            path.display(),
            pid
        );
    }
    Ok(())
}

fn cmd_gen_trace(args: &[String]) -> ExitCode {
    let mut out = PathBuf::from("crates/lab/traces/diurnal.trace");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let text = zygos_lab::traces::regenerate_diurnal();
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("writing {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# wrote {} ({} arrivals, seed {:#x})",
        out.display(),
        zygos_lab::traces::DIURNAL_ARRIVALS,
        zygos_lab::traces::DIURNAL_SEED
    );
    ExitCode::SUCCESS
}

/// The flags of `lab run` and `lab trace`; each command rejects the ones
/// it does not read.
struct Flags {
    smoke: bool,
    chrome: Option<PathBuf>,
    check: bool,
    write_baselines: bool,
    json: bool,
    baselines: PathBuf,
    specs: Vec<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        smoke: false,
        chrome: None,
        check: false,
        write_baselines: false,
        json: false,
        baselines: PathBuf::from("scenarios/baselines"),
        specs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => flags.smoke = true,
            "--check" => flags.check = true,
            "--write-baselines" => flags.write_baselines = true,
            "--json" => flags.json = true,
            "--chrome" => {
                let path = it
                    .next()
                    .ok_or_else(|| "--chrome needs a path".to_string())?;
                flags.chrome = Some(PathBuf::from(path));
            }
            "--baselines" => {
                flags.baselines = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--baselines needs a dir".to_string())?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            spec => flags.specs.push(PathBuf::from(spec)),
        }
    }
    if flags.specs.is_empty() {
        return Err("no scenario files given".to_string());
    }
    Ok(flags)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) if f.chrome.is_none() => f,
        Ok(_) => {
            eprintln!("--chrome is a lab trace flag");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = 0usize;
    for spec in &flags.specs {
        match run_one(spec, &flags) {
            Ok(errs) if errs.is_empty() => {}
            Ok(errs) => {
                failures += errs.len();
                for e in errs {
                    eprintln!("lab check FAILED [{}]: {e}", spec.display());
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("lab FAILED [{}]: {e}", spec.display());
            }
        }
    }
    if failures == 0 {
        if flags.check {
            println!("# lab check OK ({} scenario(s))", flags.specs.len());
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one scenario file; returns check violations (empty = pass).
fn run_one(spec_path: &Path, flags: &Flags) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("reading {}: {e}", spec_path.display()))?;
    let sc: Scenario = scenario_from_toml(&text).map_err(|e| e.to_string())?;
    let report = run_scenario(&sc, flags.smoke).map_err(|e| e.to_string())?;

    if flags.json {
        print!("{}", report.to_json());
    } else {
        print_report(&sc, &report);
    }

    let mut errs = Vec::new();
    if flags.check || flags.write_baselines {
        errs.extend(check_claims(&sc, &report));
        errs.extend(check_telemetry(&sc, &report));
    }
    if flags.write_baselines {
        let path = flags.baselines.join(format!("{}.json", sc.name));
        if !errs.is_empty() {
            // A baseline pins what the claims accept; never pin a report
            // they reject.
            errs.push(format!(
                "refusing to write {}: the report violates its claims or telemetry pins",
                path.display()
            ));
            return Ok(errs);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, report.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# wrote baseline {}", path.display());
    } else if flags.check {
        let path = flags.baselines.join(format!("{}.json", sc.name));
        let baseline_text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "no baseline {} ({e}); create it with --write-baselines",
                path.display()
            )
        })?;
        let baseline = Report::from_json(&baseline_text)
            .map_err(|e| format!("parsing baseline {}: {e}", path.display()))?;
        errs.extend(check_baseline(&sc, &report, &baseline));
    }
    Ok(errs)
}

/// Prints a report in the workspace's grep-friendly series layout.
fn print_report(sc: &Scenario, report: &Report) {
    println!(
        "# scenario {} ({} mode): {} case(s), arrivals {}",
        report.scenario,
        if report.smoke { "smoke" } else { "full" },
        report.series.len(),
        sc.workload.arrivals.label(),
    );
    println!("# columns: scenario\tseries\tmetric\tload\tvalue");
    for s in &report.series {
        // One row; the load-free [search] and [tail] headline rows carry
        // the search answer / the studied load in the load column.
        let row = |metric: &str, load: f64, value: &str| {
            println!(
                "{}\t{}\t{metric}\t{load:.4}\t{value}",
                report.scenario, s.label
            )
        };
        if let Some(sr) = &s.search {
            let metric = format!(
                "max_load_at_slo(p{}<={:.0}us)",
                sr.quantile * 100.0,
                sr.bound_us
            );
            let probes = format!("{} probe(s), {} cold", sr.probes, sr.cold_probes);
            row(&metric, sr.max_load, &probes);
        }
        if let Some(t) = &s.tail {
            let q = t.quantile * 100.0;
            row(
                &format!("tail_p{q}_us"),
                t.load,
                &format!("{:.3}", t.value_us),
            );
            row(
                &format!("tail_p{q}_brute_us"),
                t.load,
                &format!("{:.3}", t.brute_value_us),
            );
            let clones = format!(
                "{} ({} truncated), {} clone event(s)",
                t.clones, t.truncated, t.clone_events
            );
            row("tail_clones", t.load, &clones);
        }
        // Stage names for the per-stage rows: the scenario's [[stages]] on
        // `sim:staged`; `sim:ix` always runs the paper pipeline.
        let stage_names: Vec<String> = match (&sc.stages, s.host.as_str()) {
            (Some(stages), "sim:staged") => stages.iter().map(|st| st.name.clone()).collect(),
            _ => StagedConfig::paper_pipeline(&CostModel::ix())
                .stages
                .into_iter()
                .map(|st| st.name)
                .collect(),
        };
        for p in &s.points {
            let num = |metric: &str, v: f64| row(metric, p.load, &format!("{v:.3}"));
            let metrics = [
                ("p99_us", p.p99_us),
                ("p50_us", p.p50_us),
                ("mrps", p.mrps),
                ("shed", p.shed_fraction),
                ("wire_waste_us", p.wasted_wire_us),
                ("cores", p.avg_cores),
                ("steal", p.steal_fraction),
            ];
            for (name, v) in metrics {
                num(name, v);
            }
            for (c, share) in p.shed_share_by_class.iter().enumerate() {
                num(&format!("shed_share_class{c}"), *share);
            }
            // Retry-plane rows only when the client plane actually
            // re-issued or abandoned (open-loop points stay 7 rows).
            if p.retry_rate > 0.0 || p.give_up_rate > 0.0 {
                num("retry_rate", p.retry_rate);
                num("give_up_rate", p.give_up_rate);
                num("goodput", p.goodput);
            }
            // Staged-engine hosts: the per-stage queueing decomposition.
            for (stage, wait) in stage_names.iter().zip(&p.stage_p99_wait_us) {
                num(&format!("stage_p99_wait_us:{stage}"), *wait);
            }
            // Decomposition rows only when the point was actually traced
            // (untraced points carry honest zeros, not measurements).
            let decomp = [
                ("p99_queue_us", p.p99_queue_us),
                ("p99_service_us", p.p99_service_us),
                ("p99_steal_us", p.p99_steal_us),
                ("p99_preempt_us", p.p99_preempt_us),
            ];
            if decomp.iter().any(|(_, v)| *v > 0.0) {
                for (name, v) in decomp {
                    num(name, v);
                }
            }
            for ts in &p.timeseries {
                let last = ts.points.last().map_or(0.0, |&(_, v)| v);
                let value = format!("{} point(s), last {last:.3}", ts.points.len());
                row(&format!("series:{}", ts.name), p.load, &value);
            }
        }
    }
}
