//! Service-level objectives.
//!
//! The paper's SLOs are all of the form "the 99th percentile of end-to-end
//! latency must not exceed a bound": `10·S̄` for the microbenchmarks
//! (Figures 3, 6, 7), 500µs for memcached (Figure 9), 1000µs for
//! Silo/TPC-C (Figure 10b, Table 1).
//!
//! Beyond the paper, [`TenantSlos`] models a multi-tenant deployment where
//! connections belong to named SLO classes with different bounds (e.g. an
//! interactive class at `10·S̄` next to a batch class at `100·S̄`). The
//! registry is the single source of truth for every per-tenant policy
//! decision in the workspace:
//!
//! * the SLO-driven allocation policy (`zygos_sched::SloController`)
//!   staffs on the **worst relative margin** across classes — the maximum
//!   of `p99 / bound` ([`WindowSignals::slo_ratio`]) — so one violated
//!   tenant is enough to hold or grant cores;
//! * the credit-admission AIMD loop steers to **per-class latency
//!   targets** derived from the bounds ([`TenantSlos::aimd_targets_us`])
//!   instead of a fixed µs constant, and compares the measured per-class
//!   tails against them ([`WindowSignals::credit_ratio`]);
//! * under overload, **weighted fair shedding** caps each class at a
//!   fraction of the credit pool ([`TenantSlos::admit_fractions`]) such
//!   that the *loosest* class (the one with the most latency headroom) is
//!   shed first, rather than FIFO-blind rejection across all tenants.
//!
//! ```
//! use zygos_load::slo::{Slo, SloClass, TenantSlos};
//!
//! let slos = TenantSlos::new(vec![
//!     SloClass::new("interactive", Slo::p99(100.0)),
//!     SloClass::new("batch", Slo::p99(1000.0)),
//! ]);
//! // Connections map to classes round-robin by id.
//! assert_eq!(slos.class_of(0), 0);
//! assert_eq!(slos.class_of(1), 1);
//! // The AIMD loop targets 70% of each bound.
//! assert_eq!(slos.aimd_targets_us(0.7), vec![70.0, 700.0]);
//! // The batch class is capped at half the pool, so it sheds first.
//! assert_eq!(slos.admit_fractions(), vec![1.0, 0.5]);
//! ```
//!
//! [`ControlWindow`] is the control tick's latency window both hosts read
//! these signals from: the simulator's client edge every 25 µs of virtual
//! time, the live runtime's worker 0 every millisecond.

use zygos_sim::stats::{LatencyHistogram, WindowHistogram};

/// Headroom factor applied to each tenant class's SLO bound to obtain its
/// credit-AIMD latency target ([`TenantSlos::aimd_targets_us`]): the
/// admission loop steers the measured per-class window tail to
/// `CREDIT_HEADROOM × bound`, shedding *before* the bound is breached
/// (the window tail is a noisy estimator and the AIMD reaction lags a
/// control period). Defined here — next to the arithmetic that consumes
/// it — so the simulator and the live runtime cannot drift apart.
pub const CREDIT_HEADROOM: f64 = 0.7;

/// Minimum completions in a control window before its tail is trusted as
/// a policy signal: below this, the window p99 is the max of a handful
/// of samples — too noisy to staff or shed on. Shared by both hosts'
/// control ticks.
pub const MIN_WINDOW_SAMPLES: usize = 8;

/// An SLO: `quantile(percentile) ≤ bound_us`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slo {
    /// The percentile checked, in `(0, 1)` (paper: 0.99).
    pub percentile: f64,
    /// The latency bound in microseconds.
    pub bound_us: f64,
}

impl Slo {
    /// The paper's microbenchmark SLO: p99 ≤ `multiple`·S̄.
    pub fn multiple_of_mean(mean_service_us: f64, multiple: f64) -> Slo {
        Slo {
            percentile: 0.99,
            bound_us: multiple * mean_service_us,
        }
    }

    /// A fixed p99 bound (e.g. 500µs for memcached, 1000µs for Silo).
    pub fn p99(bound_us: f64) -> Slo {
        Slo {
            percentile: 0.99,
            bound_us,
        }
    }

    /// True if the recorded latencies meet the SLO.
    pub fn met_by(&self, hist: &LatencyHistogram) -> bool {
        hist.quantile_us(self.percentile) <= self.bound_us
    }

    /// The measured margin: `bound − quantile` (negative = violated), µs.
    pub fn margin_us(&self, hist: &LatencyHistogram) -> f64 {
        self.bound_us - hist.quantile_us(self.percentile)
    }
}

/// One named SLO class in a multi-tenant deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct SloClass {
    /// Operator-facing class name (e.g. `"interactive"`, `"batch"`).
    pub name: String,
    /// The class's objective.
    pub slo: Slo,
}

impl SloClass {
    /// Creates a class.
    pub fn new(name: impl Into<String>, slo: Slo) -> Self {
        SloClass {
            name: name.into(),
            slo,
        }
    }
}

/// Per-tenant SLO classes: tenants (connections) are assigned to classes
/// round-robin by id, which spreads every class across all home cores —
/// the interesting regime, since a violated class then cannot be fixed by
/// repartitioning alone.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSlos {
    classes: Vec<SloClass>,
}

impl TenantSlos {
    /// Builds a registry from at least one class.
    pub fn new(classes: Vec<SloClass>) -> Self {
        assert!(!classes.is_empty(), "need at least one SLO class");
        TenantSlos { classes }
    }

    /// A single uniform class covering every tenant.
    pub fn uniform(slo: Slo) -> Self {
        TenantSlos::new(vec![SloClass::new("default", slo)])
    }

    /// The classes, in assignment order.
    pub fn classes(&self) -> &[SloClass] {
        &self.classes
    }

    /// The class index a tenant id maps to (round-robin).
    pub fn class_of(&self, tenant: u32) -> usize {
        tenant as usize % self.classes.len()
    }

    /// The strictest (lowest-bound) objective across classes — what a
    /// single-histogram host must meet to satisfy every tenant.
    pub fn strictest(&self) -> Slo {
        self.classes
            .iter()
            .map(|c| c.slo)
            .min_by(|a, b| a.bound_us.total_cmp(&b.bound_us))
            .expect("non-empty")
    }

    /// Per-class latency targets (µs) for the credit-admission AIMD loop:
    /// `headroom × bound` for each class, in class order.
    ///
    /// The headroom sits below 1.0 by design — the admission controller
    /// must start shedding *before* the measured tail reaches the bound,
    /// because the window tail is a noisy small-sample estimator and the
    /// AIMD reaction lags by a control period.
    ///
    /// ```
    /// use zygos_load::slo::{Slo, TenantSlos};
    /// let t = TenantSlos::uniform(Slo::p99(100.0));
    /// assert_eq!(t.aimd_targets_us(0.7), vec![70.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `headroom` is in `(0, 1]`.
    pub fn aimd_targets_us(&self, headroom: f64) -> Vec<f64> {
        assert!(
            headroom > 0.0 && headroom <= 1.0,
            "headroom must be in (0, 1]"
        );
        self.classes
            .iter()
            .map(|c| headroom * c.slo.bound_us)
            .collect()
    }

    /// Per-class admission fractions for weighted fair shedding: the share
    /// of the credit pool each class may occupy, in class order.
    ///
    /// Classes are ranked by bound: the **strictest** class may use the
    /// whole pool (fraction 1.0); each looser class is capped at a
    /// progressively smaller share, so as the pool fills under overload
    /// the loosest class hits its cap — and starts shedding — first. A
    /// class with the most latency headroom is the one whose users suffer
    /// least from a retry, which is exactly who should absorb the
    /// overload. Ties in the bound share a rank (equal bounds shed
    /// together).
    ///
    /// ```
    /// use zygos_load::slo::{Slo, SloClass, TenantSlos};
    /// let t = TenantSlos::new(vec![
    ///     SloClass::new("batch", Slo::p99(1000.0)),
    ///     SloClass::new("interactive", Slo::p99(100.0)),
    ///     SloClass::new("background", Slo::p99(10_000.0)),
    /// ]);
    /// // Strictest (interactive) gets the full pool; looser classes are
    /// // capped harder the more headroom their bound leaves them.
    /// assert_eq!(t.admit_fractions(), vec![2.0 / 3.0, 1.0, 1.0 / 3.0]);
    /// ```
    pub fn admit_fractions(&self) -> Vec<f64> {
        let k = self.classes.len();
        self.classes
            .iter()
            .map(|c| {
                // Rank = number of classes strictly stricter than this one.
                let rank = self
                    .classes
                    .iter()
                    .filter(|o| o.slo.bound_us < c.slo.bound_us)
                    .count();
                (k - rank) as f64 / k as f64
            })
            .collect()
    }
}

/// The three signals one control tick reads off a [`ControlWindow`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowSignals {
    /// Worst `quantile_i(percentile_i) / bound_i` across tenant classes —
    /// what `zygos_sched::SloController` staffs on. `> 1.0` means some
    /// tenant's SLO is violated; `None` without tenant SLOs or when no
    /// class holds [`MIN_WINDOW_SAMPLES`].
    pub slo_ratio: Option<f64>,
    /// The same tails against the credit targets
    /// ([`TenantSlos::aimd_targets_us`] at [`CREDIT_HEADROOM`]): 1.0 means
    /// the worst class sits exactly at its target. The credit AIMD's input
    /// with tenant SLOs.
    pub credit_ratio: Option<f64>,
    /// The p99 (µs) of a single-class window: the credit AIMD's input
    /// without tenant SLOs, steered to `CreditConfig::target`.
    pub tail_us: Option<f64>,
}

/// The control tick's latency window: one constant-memory
/// [`WindowHistogram`] per tenant class (one class without tenant SLOs),
/// plus what the credit gate derives from the classes — the weighted-fair
/// admit fractions and the credit targets. Recording is O(1); a quantile
/// sorts only the touched buckets (~0.1 % relative error).
///
/// Both hosts hold one. Each keeps its own clearing rule:
/// [`ControlWindow::clear`] (the simulator, every tick) or
/// [`ControlWindow::clear_judged`] (the live runtime, whose 1 ms windows
/// can be thin).
///
/// ```
/// use zygos_load::slo::{ControlWindow, Slo, TenantSlos};
///
/// let slos = TenantSlos::uniform(Slo::p99(100.0));
/// let mut w = ControlWindow::new(Some(&slos));
/// for _ in 0..8 {
///     w.record_nanos(w.class_of(3), 140_000);
/// }
/// let s = w.signals();
/// assert!((s.slo_ratio.unwrap() - 1.4).abs() < 0.01);
/// assert!((s.credit_ratio.unwrap() - 2.0).abs() < 0.01); // target 70 µs
/// ```
#[derive(Clone)]
pub struct ControlWindow {
    slos: Option<TenantSlos>,
    /// Per-class pool fractions for weighted fair shedding (`[1.0]`
    /// without tenant SLOs).
    admit_fractions: Vec<f64>,
    /// Per-class credit-AIMD targets (µs); empty without tenant SLOs.
    credit_targets_us: Vec<f64>,
    win: Vec<WindowHistogram>,
}

impl ControlWindow {
    /// A window over `slos`' classes, or one untargeted class.
    pub fn new(slos: Option<&TenantSlos>) -> Self {
        let classes = slos.map_or(1, |t| t.classes().len());
        ControlWindow {
            admit_fractions: slos.map_or_else(|| vec![1.0], TenantSlos::admit_fractions),
            credit_targets_us: slos.map_or_else(Vec::new, |t| t.aimd_targets_us(CREDIT_HEADROOM)),
            win: (0..classes).map(|_| WindowHistogram::new()).collect(),
            slos: slos.cloned(),
        }
    }

    /// The class a tenant (connection) id maps to; 0 without tenant SLOs.
    #[inline]
    pub fn class_of(&self, tenant: u32) -> usize {
        self.slos.as_ref().map_or(0, |t| t.class_of(tenant))
    }

    /// The per-class pool fractions for weighted fair shedding.
    pub fn admit_fractions(&self) -> &[f64] {
        &self.admit_fractions
    }

    /// Records one latency sample of class `class`.
    #[inline]
    pub fn record_nanos(&mut self, class: usize, ns: u64) {
        self.win[class].record_nanos(ns);
    }

    /// The window's signals. A class is judged once it holds
    /// [`MIN_WINDOW_SAMPLES`]; below that its tail is the max of a handful
    /// of samples.
    pub fn signals(&mut self) -> WindowSignals {
        let judged = |w: &WindowHistogram| w.count() >= MIN_WINDOW_SAMPLES as u64;
        let mut s = WindowSignals::default();
        if let Some(slos) = &self.slos {
            let classes = slos.classes().iter().zip(&self.credit_targets_us);
            for ((c, &target), win) in classes.zip(&mut self.win) {
                if judged(win) {
                    let q = win.quantile_us(c.slo.percentile);
                    let (r, cr) = (q / c.slo.bound_us, q / target);
                    s.slo_ratio = Some(s.slo_ratio.map_or(r, |w| w.max(r)));
                    s.credit_ratio = Some(s.credit_ratio.map_or(cr, |w| w.max(cr)));
                }
            }
        }
        if let [only] = &mut self.win[..] {
            s.tail_us = judged(only).then(|| only.quantile_us(0.99));
        }
        s
    }

    /// Empties every class.
    pub fn clear(&mut self) {
        self.win.iter_mut().for_each(WindowHistogram::clear);
    }

    /// Empties the classes [`ControlWindow::signals`] judged and keeps the
    /// thinner ones, which stretch across ticks until they can be judged.
    pub fn clear_judged(&mut self) {
        for w in &mut self.win {
            if w.count() >= MIN_WINDOW_SAMPLES as u64 {
                w.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_with(values_us: &[f64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &v in values_us {
            h.record_micros_f64(v);
        }
        h
    }

    #[test]
    fn slo_construction() {
        let s = Slo::multiple_of_mean(10.0, 10.0);
        assert_eq!(s.bound_us, 100.0);
        assert_eq!(s.percentile, 0.99);
        assert_eq!(Slo::p99(1000.0).bound_us, 1000.0);
    }

    #[test]
    fn met_and_violated() {
        let good = hist_with(&[10.0; 100]);
        let slo = Slo::p99(50.0);
        assert!(slo.met_by(&good));
        assert!(slo.margin_us(&good) > 0.0);

        let mut values = vec![10.0; 95];
        values.extend_from_slice(&[500.0; 5]);
        let bad = hist_with(&values);
        assert!(!slo.met_by(&bad));
        assert!(slo.margin_us(&bad) < 0.0);
    }

    #[test]
    fn tenant_classes_assign_and_rank() {
        let t = TenantSlos::new(vec![
            SloClass::new("interactive", Slo::p99(100.0)),
            SloClass::new("batch", Slo::p99(1000.0)),
        ]);
        assert_eq!(t.class_of(0), 0);
        assert_eq!(t.class_of(1), 1);
        assert_eq!(t.class_of(2), 0);
        assert_eq!(t.strictest().bound_us, 100.0);

        // interactive p99 ≈ 50 (ratio 0.5), batch p99 ≈ 900 (ratio 0.9):
        // the worst ratio is batch's even though its bound is looser.
        let mut w = window_with(&t, &[(0, 50_000, 100), (1, 900_000, 100)]);
        let r = w.signals().slo_ratio.expect("both classes sampled");
        assert!((r - 0.9).abs() < 0.01, "ratio = {r}");

        // Too few samples in every class → no judgement.
        let mut thin = window_with(&t, &[(0, 50_000, MIN_WINDOW_SAMPLES - 1)]);
        assert_eq!(thin.signals(), WindowSignals::default());
    }

    /// A window over `t` holding `n` samples of `ns` in class `c` for each
    /// `(c, ns, n)`.
    fn window_with(t: &TenantSlos, samples: &[(usize, u64, usize)]) -> ControlWindow {
        let mut w = ControlWindow::new(Some(t));
        for &(c, ns, n) in samples {
            (0..n).for_each(|_| w.record_nanos(c, ns));
        }
        w
    }

    #[test]
    fn thin_classes_stretch_only_under_clear_judged() {
        let t = TenantSlos::new(vec![
            SloClass::new("interactive", Slo::p99(100.0)),
            SloClass::new("batch", Slo::p99(1000.0)),
        ]);
        let thin = MIN_WINDOW_SAMPLES - 1;
        let mut w = window_with(&t, &[(0, 50_000, MIN_WINDOW_SAMPLES), (1, 900_000, thin)]);
        assert!((w.signals().slo_ratio.unwrap() - 0.5).abs() < 0.01);
        w.clear_judged();
        // The judged class starts empty; the thin one is judged once one
        // more sample lands.
        w.record_nanos(1, 900_000);
        assert!((w.signals().slo_ratio.unwrap() - 0.9).abs() < 0.01);
        w.clear_judged();
        assert_eq!(w.signals().slo_ratio, None);
        let mut w = window_with(&t, &[(1, 900_000, thin)]);
        w.clear();
        w.record_nanos(1, 900_000);
        assert_eq!(w.signals().slo_ratio, None, "clear empties thin classes");
    }

    #[test]
    fn an_untargeted_window_reports_only_its_tail() {
        let mut w = ControlWindow::new(None);
        assert_eq!(w.admit_fractions(), &[1.0]);
        assert_eq!(w.class_of(7), 0);
        (0..MIN_WINDOW_SAMPLES).for_each(|_| w.record_nanos(0, 300_000));
        let s = w.signals();
        assert_eq!((s.slo_ratio, s.credit_ratio), (None, None));
        assert!((s.tail_us.expect("judged") - 300.0).abs() < 0.5);
    }

    #[test]
    fn aimd_targets_scale_each_bound() {
        let t = TenantSlos::new(vec![
            SloClass::new("interactive", Slo::p99(100.0)),
            SloClass::new("batch", Slo::p99(1000.0)),
        ]);
        assert_eq!(t.aimd_targets_us(0.7), vec![70.0, 700.0]);
        assert_eq!(t.aimd_targets_us(1.0), vec![100.0, 1000.0]);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn zero_headroom_rejected() {
        TenantSlos::uniform(Slo::p99(100.0)).aimd_targets_us(0.0);
    }

    #[test]
    fn credit_ratio_normalizes_against_targets() {
        let t = TenantSlos::new(vec![
            SloClass::new("interactive", Slo::p99(100.0)),
            SloClass::new("batch", Slo::p99(1000.0)),
        ]);
        // Interactive tail at 140µs = 2× its 70µs target; batch at 350µs =
        // 0.5× its 700µs target. The worst (interactive) drives the loop,
        // even though *neither* SLO bound judges batch the worse class.
        let mut w = window_with(&t, &[(0, 140_000, 100), (1, 350_000, 100)]);
        let r = w.signals().credit_ratio.expect("both classes sampled");
        assert!((r - 2.0).abs() < 0.01, "ratio = {r}");
        // Thin windows give no signal.
        let mut thin = window_with(&t, &[(0, 1, 2)]);
        assert_eq!(thin.signals().credit_ratio, None);
    }

    #[test]
    fn admit_fractions_shed_loosest_first() {
        let t = TenantSlos::new(vec![
            SloClass::new("interactive", Slo::p99(100.0)),
            SloClass::new("batch", Slo::p99(1000.0)),
        ]);
        assert_eq!(t.admit_fractions(), vec![1.0, 0.5]);
        // A single class is never capped.
        assert_eq!(
            TenantSlos::uniform(Slo::p99(500.0)).admit_fractions(),
            vec![1.0]
        );
        // Equal bounds share a rank: nobody is singled out.
        let even = TenantSlos::new(vec![
            SloClass::new("a", Slo::p99(100.0)),
            SloClass::new("b", Slo::p99(100.0)),
        ]);
        assert_eq!(even.admit_fractions(), vec![1.0, 1.0]);
    }

    #[test]
    fn uniform_registry_is_single_class() {
        let t = TenantSlos::uniform(Slo::p99(500.0));
        assert_eq!(t.classes().len(), 1);
        assert_eq!(t.class_of(1234), 0);
        assert_eq!(t.strictest(), Slo::p99(500.0));
    }

    #[test]
    fn percentile_is_respected() {
        // 2% slow requests violate a p99 SLO but meet a p95 SLO.
        let mut values = vec![1.0; 98];
        values.extend_from_slice(&[1_000.0, 1_000.0]);
        let h = hist_with(&values);
        assert!(!Slo::p99(100.0).met_by(&h));
        let p95 = Slo {
            percentile: 0.95,
            bound_us: 100.0,
        };
        assert!(p95.met_by(&h));
    }
}
