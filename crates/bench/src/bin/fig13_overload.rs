//! Regenerates Figure 13 (extension): overload behavior with and without
//! credit-based admission control — server-edge vs client-side credits,
//! plus the two-tenant weighted-fair-shedding panel.
//!
//! The whole experiment is one `zygos_lab` scenario — the committed
//! `scenarios/fig13_overload.toml`, re-scaled by
//! `zygos_bench::fig13::scenario`; this binary is a thin wrapper that
//! runs it and renders the paper-style series.
//!
//! Flags:
//!
//! * `--smoke` — reduced duration/arrival count and a 3-point load grid
//!   (CI runs the equivalent through `lab run scenarios/fig13_overload.toml
//!   --smoke --check`);
//! * `--check` — exit nonzero unless the spec's `[[claim]]`s hold: admitted
//!   p99 within 2× the SLO at offered load ≥ 1.2 while the uncontrolled
//!   policies diverge, client-side credits strictly below server-edge
//!   wasted wire time, and the loosest tenant class shedding first while
//!   keeping its admission floor.
//!
//! `ZYGOS_FAST=1` also selects the reduced grid at the standard fast
//! scale. See `docs/FIGURES.md` for expected headline numbers and what a
//! regression here means.

use zygos_bench::{fig13, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let (scale, fast) = if smoke {
        // Small enough for CI, large enough for the AIMD loop to settle
        // (~50 control windows inside the warmup alone).
        let scale = Scale {
            requests: 8_000,
            warmup: 2_000,
            ..Scale::smoke()
        };
        (scale, true)
    } else {
        let fast = std::env::var("ZYGOS_FAST").is_ok_and(|v| v == "1");
        (Scale::from_env(), fast)
    };
    let sc = fig13::scenario(&scale, fast);
    let report = zygos_bench::run(&sc);
    let violations = zygos_lab::check_claims(&sc, &report);
    let (curves, tenants) = fig13::panels(report);
    fig13::print(&curves, &tenants);
    if check {
        if violations.is_empty() {
            println!("# fig13 check OK");
        } else {
            for v in &violations {
                eprintln!("fig13 check FAILED: {v}");
            }
            std::process::exit(1);
        }
    }
}
