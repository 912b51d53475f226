//! Cross-crate tests of the paper's quantitative claims, using the same
//! public APIs the figure binaries use. These are the repository's
//! regression net for the reproduction itself.

use zygos::kv::workload::{KvWorkload, WorkloadKind};
use zygos::silo::tpcc::{Tpcc, TpccConfig, TpccRng, TxnType};
use zygos::sim::dist::ServiceDist;
use zygos::sim::queueing::theory;
use zygos::sysim::{latency_throughput_sweep, SysConfig, SystemKind};

fn small_cfg(system: SystemKind, service: ServiceDist) -> SysConfig {
    let mut cfg = SysConfig::paper(system, service, 0.5);
    cfg.requests = 20_000;
    cfg.warmup = 4_000;
    cfg
}

/// §3.1: the quoted theory operating points for the exponential
/// distribution at SLO 10·S̄: 53.7% partitioned, 96.3% centralized.
#[test]
fn quoted_theory_loads() {
    assert!((theory::mm1_max_load_at_p99_slo(10.0) - 0.537).abs() < 0.005);
    assert!((theory::mmn_max_load_at_p99_slo(16, 10.0) - 0.963).abs() < 0.005);
}

/// Figure 6's qualitative content: at 10µs exponential, ZygOS sustains low
/// p99 at loads where IX has already blown through the SLO.
#[test]
fn fig6_zygos_vs_ix_tail() {
    let loads = [0.7];
    let zygos = latency_throughput_sweep(
        &small_cfg(SystemKind::Zygos, ServiceDist::exponential_us(10.0)),
        &loads,
    );
    let ix = latency_throughput_sweep(
        &small_cfg(SystemKind::Ix, ServiceDist::exponential_us(10.0)),
        &loads,
    );
    assert!(
        zygos[0].p99_us < 100.0,
        "ZygOS meets the 10x SLO at 70% load: {}",
        zygos[0].p99_us
    );
    assert!(
        ix[0].p99_us > 100.0,
        "IX violates the 10x SLO at 70% load: {}",
        ix[0].p99_us
    );
}

/// Figure 8's two properties: the cooperative steal rate peaks around a
/// third of events, and IPIs raise it substantially.
#[test]
fn fig8_steal_rate_shape() {
    let loads: Vec<f64> = (1..=9).map(|i| i as f64 * 0.1).collect();
    let coop = latency_throughput_sweep(
        &small_cfg(
            SystemKind::ZygosNoInterrupts,
            ServiceDist::exponential_us(25.0),
        ),
        &loads,
    );
    let ipi = latency_throughput_sweep(
        &small_cfg(SystemKind::Zygos, ServiceDist::exponential_us(25.0)),
        &loads,
    );
    let coop_peak = coop.iter().map(|p| p.steal_fraction).fold(0.0, f64::max);
    let ipi_peak = ipi.iter().map(|p| p.steal_fraction).fold(0.0, f64::max);
    assert!(
        (0.20..0.50).contains(&coop_peak),
        "cooperative peak steal rate ~33% (paper): {coop_peak}"
    );
    assert!(
        ipi_peak > coop_peak + 0.15,
        "interrupts substantially raise stealing: {ipi_peak} vs {coop_peak}"
    );
    // Steals vanish toward saturation.
    assert!(ipi.last().unwrap().steal_fraction < ipi_peak * 0.8);
}

/// Figure 9's qualitative ordering at tiny task sizes: IX B=64 sustains
/// more load than ZygOS, which beats IX B=1.
#[test]
fn fig9_tiny_task_ordering() {
    let service = KvWorkload::new(WorkloadKind::Usr).service_dist(30_000, 3);
    let loads: Vec<f64> = (1..=9).map(|i| i as f64 * 0.1).collect();
    let max_under = |system, batch: u64| {
        let mut cfg = small_cfg(system, service.clone());
        cfg.rx_batch = batch;
        latency_throughput_sweep(&cfg, &loads)
            .iter()
            .filter(|p| p.p99_us <= 500.0)
            .map(|p| p.mrps)
            .fold(0.0, f64::max)
    };
    let ix_b64 = max_under(SystemKind::Ix, 64);
    let ix_b1 = max_under(SystemKind::Ix, 1);
    let zygos = max_under(SystemKind::Zygos, 64);
    assert!(
        ix_b64 >= zygos * 0.98,
        "batching wins for tiny tasks: IX B=64 {ix_b64} vs ZygOS {zygos}"
    );
    assert!(
        zygos > ix_b1 * 0.95,
        "ZygOS at least matches IX B=1: {zygos} vs {ix_b1}"
    );
}

/// Figure 10a's content: the TPC-C mix is multimodal with Delivery and
/// StockLevel far in the tail relative to Payment/OrderStatus.
#[test]
fn fig10a_multimodal_service_times() {
    let tpcc = Tpcc::load(TpccConfig {
        warehouses: 1,
        districts: 10,
        customers_per_district: 300,
        items: 2_000,
        initial_orders: 300,
        seed: 9,
    });
    let mut rng = TpccRng::new(17);
    // Rows touched, not wall time, so a busy box cannot flip the
    // ordering (measured 5 / 56 / 392 for Payment / Delivery /
    // StockLevel).
    let mean_rows = |kind: TxnType, rng: &mut TpccRng| {
        let n = 40;
        let rows: u64 = (0..n)
            .map(|_| tpcc.run(kind, rng).rows_touched as u64)
            .sum();
        rows as f64 / n as f64
    };
    let payment = mean_rows(TxnType::Payment, &mut rng);
    let delivery = mean_rows(TxnType::Delivery, &mut rng);
    let stock = mean_rows(TxnType::StockLevel, &mut rng);
    assert!(
        delivery > 1.5 * payment,
        "delivery {delivery} rows vs payment {payment} rows"
    );
    assert!(
        stock > 1.5 * payment,
        "stock {stock} rows vs payment {payment} rows"
    );
}

/// Table 1's ordering: serving the measured TPC-C mix, ZygOS sustains more
/// load under the 1000µs SLO than IX, which beats Linux.
#[test]
fn table1_system_ordering() {
    // A synthetic stand-in for the measured mix: multimodal with the
    // paper's reported moments (mean 33µs, p99 ≈ 200µs).
    let service = ServiceDist::empirical_us(
        (0..10_000)
            .map(|i| match i % 100 {
                0..=44 => 25.0,   // NewOrder-ish.
                45..=87 => 12.0,  // Payment-ish.
                88..=91 => 20.0,  // OrderStatus-ish.
                92..=95 => 220.0, // Delivery-ish.
                _ => 120.0,       // StockLevel-ish.
            })
            .collect(),
    );
    let loads: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();
    let max_under = |system| {
        latency_throughput_sweep(&small_cfg(system, service.clone()), &loads)
            .iter()
            .filter(|p| p.p99_us <= 1_000.0)
            .map(|p| p.mrps)
            .fold(0.0, f64::max)
    };
    let zygos = max_under(SystemKind::Zygos);
    let ix = max_under(SystemKind::Ix);
    let linux = max_under(SystemKind::LinuxFloating);
    assert!(zygos > ix, "zygos {zygos} vs ix {ix}");
    assert!(zygos > linux, "zygos {zygos} vs linux {linux}");
}
