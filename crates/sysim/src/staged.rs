//! The staged service plane: a request as a multi-phase pipeline
//! (`net_poll → net_stack → app`) with explicit core layouts.
//!
//! The ZygOS and Linux models fold a request's NIC-poll, network-stack
//! and application phases into one opaque cost; the paper's IX-vs-ZygOS
//! argument, though, is really about *where* those phases run (§2, §3 of
//! conf_sosp_PrekasKB17, and Belay et al.'s run-to-completion case). This
//! module makes the phases first-class:
//!
//! * A [`StagedConfig`] names the stages. Every stage carries a fixed
//!   per-item cost (plus an amortizable per-batch cost), and the **final**
//!   stage is always the application stage — it additionally burns the
//!   sampled service time.
//! * A [`CoreLayout`] assigns core roles, mirroring the reference
//!   Layout1–4 idioms in `SNIPPETS.md`:
//!   [`CoreLayout::Unified`] (Layout 2) runs every stage on every core,
//!   run-to-completion over the RX batch — IX's shape.
//!   [`CoreLayout::SplitNet`] (Layouts 3/4) dedicates `net_cores` to the
//!   network stages, feeding the application cores item by item.
//!   [`CoreLayout::SplitFull`] (Layout 1) additionally splits NIC polling
//!   from stack processing — dispatcher cores, stack cores, app cores.
//! * A per-stage [`QueueDiscipline`] picks the queue shape at each stage
//!   boundary: one shared cFCFS queue, per-core dFCFS queues, or dFCFS
//!   with ZygOS-style stealing. The discipline is lowered to the shared
//!   `zygos_sched` dispatch ladder ([`FcfsPolicy`] / [`RtcPolicy`] /
//!   [`ZygosPolicy`]) and every take walks that ladder — the policy plane
//!   stays the single decision authority, here as everywhere else.
//!
//! A layout partitions the pipeline into **segments**: maximal stage runs
//! that execute back-to-back on one core (run-to-completion inside a
//! segment; a queue only at each segment's head stage). `Unified` is one
//! segment spanning the whole pipeline; `SplitNet` is `[net][app]`;
//! `SplitFull` is `[poll][stack][app]`. The head segment grabs up to
//! [`SysConfig::rx_batch`] items per take (the NIC poll is what batching
//! amortizes — and under `Unified` the entire batch then runs to
//! completion, which is exactly the head-of-line blocking the split
//! layouts exist to avoid); downstream segments take one item at a time.
//!
//! **IX is the paper pipeline.** [`SystemKind::Ix`] runs
//! [`StagedConfig::paper_pipeline`] on this engine whatever
//! [`SysConfig::staged`] holds: one `Unified` segment whose head stage
//! (`net_poll`) queues per core under dFCFS, so a core polls up to `B`
//! packets from its own RSS queue and runs the batch to completion, and
//! nothing is ever rebalanced. Its `stage_p99_wait_us` is the RX-queue
//! wait in slot 0 and zeros behind it (interior stages never queue).
//!
//! **Bit-identity contract** (the PR-8 pattern): the *degenerate* pipeline
//! — a single zero-cost `Unified` stage with steal dispatch, i.e.
//! [`StagedConfig::zygos_equivalent`] — means "no stage decomposition
//! requested" and is delegated verbatim to the ZygOS model, so a
//! `sim:staged` host lowered from it reproduces `sim:zygos` bit-for-bit
//! (pinned by `tests/staged_differential.rs`). The subsystem provably
//! generalizes the existing model rather than forking it.

use std::collections::VecDeque;
use std::ops::Range;

use zygos_net::cost::CostModel;
use zygos_sched::{
    BackgroundOrder, BuiltinDispatch, DispatchPolicy, FcfsPolicy, QuantumPolicy, RtcPolicy, Rung,
    ZygosPolicy,
};
use zygos_sim::stats::LatencyHistogram;
use zygos_sim::time::{SimDuration, SimTime};
use zygos_telemetry::TraceKind;

use crate::arrivals::Req;
use crate::config::{SysConfig, SystemKind};
use crate::edge::{Cx, Server, ServerStats, World};

/// Queue shape at one stage boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// One shared FCFS queue for the whole stage (centralized FCFS): any
    /// staffed core takes the head — ideal pooling, no stealing needed.
    Cfcfs,
    /// Per-core queues keyed by the request's RSS home, never rebalanced
    /// (distributed FCFS) — IX's shape, with its temporary imbalance.
    Dfcfs,
    /// Per-core queues with ZygOS-style stealing: a dry core walks the
    /// [`ZygosPolicy`] ladder and, where it grants `StealReady`, sweeps
    /// victims (deterministic order, one item per grab, charged
    /// `steal_extra_ns`).
    #[default]
    DfcfsSteal,
}

impl QueueDiscipline {
    /// Scenario-file spelling (`cfcfs` / `dfcfs` / `dfcfs-steal`).
    pub fn label(&self) -> &'static str {
        match self {
            QueueDiscipline::Cfcfs => "cfcfs",
            QueueDiscipline::Dfcfs => "dfcfs",
            QueueDiscipline::DfcfsSteal => "dfcfs-steal",
        }
    }

    /// Parses the scenario-file spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cfcfs" => Some(QueueDiscipline::Cfcfs),
            "dfcfs" => Some(QueueDiscipline::Dfcfs),
            "dfcfs-steal" => Some(QueueDiscipline::DfcfsSteal),
            _ => None,
        }
    }
}

/// Core-role assignment for a staged pipeline (the SNIPPETS Layout1–4
/// vocabulary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoreLayout {
    /// Every core runs every stage, run-to-completion over the RX batch
    /// (Layout 2; IX's shape when the head queue is dFCFS).
    #[default]
    Unified,
    /// `net_cores` dedicated cores run all network stages back-to-back and
    /// feed the remaining application cores item by item (Layouts 3/4).
    SplitNet {
        /// Cores dedicated to the network stages (≥ 1, < total cores).
        net_cores: usize,
    },
    /// Three-way split: NIC-poll dispatcher cores, network-stack cores,
    /// application cores (Layout 1). Needs a pipeline of ≥ 3 stages.
    SplitFull {
        /// Cores dedicated to the first (NIC poll) stage.
        poll_cores: usize,
        /// Cores dedicated to the interior (network stack) stages.
        stack_cores: usize,
    },
}

impl CoreLayout {
    /// Scenario-file spelling (`unified` / `split-net` / `split-full`).
    pub fn label(&self) -> &'static str {
        match self {
            CoreLayout::Unified => "unified",
            CoreLayout::SplitNet { .. } => "split-net",
            CoreLayout::SplitFull { .. } => "split-full",
        }
    }
}

/// One pipeline stage. The **final** stage of a pipeline is always the
/// application stage: it burns the sampled service time on top of its
/// fixed cost; every other stage is pure fixed-cost network work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSpec {
    /// Stage name (unique within the pipeline; used in reports and docs).
    pub name: String,
    /// Per-batch fixed cost, ns — paid once per take, however many items
    /// the batch holds (the driver's fixed poll cost). Charged per item on
    /// the final stage (whose takes are single-item anyway).
    pub batch_fixed_ns: u64,
    /// Per-item fixed cost, ns.
    pub fixed_ns: u64,
    /// Queue shape where this stage heads a segment (interior stages of a
    /// segment run back-to-back and have no queue of their own).
    pub discipline: QueueDiscipline,
}

/// A full staged-pipeline description: the stage table plus the core
/// layout. Carried in [`SysConfig::staged`] and consulted only by
/// [`SystemKind::Staged`] ([`SystemKind::Ix`] always runs
/// [`StagedConfig::paper_pipeline`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagedConfig {
    /// The pipeline, in traversal order; the last stage is the
    /// application stage.
    pub stages: Vec<StageSpec>,
    /// Core-role assignment.
    pub layout: CoreLayout,
}

impl StagedConfig {
    /// The paper's three-phase pipeline with per-stage costs lifted from
    /// the calibrated cost model: NIC poll (the driver's batch-amortized
    /// grab), network stack RX, and the application stage (dispatch +
    /// syscall + TX fixed cost around the sampled service time).
    pub fn paper_pipeline(cost: &CostModel) -> Self {
        StagedConfig {
            stages: vec![
                StageSpec {
                    name: "net_poll".to_string(),
                    batch_fixed_ns: cost.driver_batch_fixed_ns,
                    fixed_ns: cost.driver_per_pkt_ns,
                    discipline: QueueDiscipline::Dfcfs,
                },
                StageSpec {
                    name: "net_stack".to_string(),
                    batch_fixed_ns: 0,
                    fixed_ns: cost.stack_rx_per_pkt_ns,
                    discipline: QueueDiscipline::Dfcfs,
                },
                StageSpec {
                    name: "app".to_string(),
                    batch_fixed_ns: 0,
                    fixed_ns: cost.event_dispatch_ns
                        + cost.syscall_batch_ns
                        + cost.stack_tx_per_msg_ns,
                    discipline: QueueDiscipline::DfcfsSteal,
                },
            ],
            layout: CoreLayout::Unified,
        }
    }

    /// The degenerate pipeline: one zero-cost `Unified` application stage
    /// under steal dispatch — "no stage decomposition requested". Runs as
    /// the plain ZygOS model, bit-for-bit (see the module docs).
    pub fn zygos_equivalent() -> Self {
        StagedConfig {
            stages: vec![StageSpec {
                name: "app".to_string(),
                batch_fixed_ns: 0,
                fixed_ns: 0,
                discipline: QueueDiscipline::DfcfsSteal,
            }],
            layout: CoreLayout::Unified,
        }
    }

    /// Whether this is the degenerate [`StagedConfig::zygos_equivalent`]
    /// pipeline (delegated verbatim to the ZygOS model).
    pub fn is_zygos_equivalent(&self) -> bool {
        self == &Self::zygos_equivalent()
    }

    /// Validates the pipeline against a core count. The lab's spec layer
    /// surfaces these as scenario errors; direct `sysim` callers hit the
    /// assert in `run`.
    pub fn validate(&self, cores: usize) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("a staged pipeline needs at least one stage".to_string());
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.name.is_empty() {
                return Err(format!("stage {i} has an empty name"));
            }
            if self.stages[..i].iter().any(|p| p.name == s.name) {
                return Err(format!("duplicate stage name {:?}", s.name));
            }
        }
        match self.layout {
            CoreLayout::Unified => Ok(()),
            CoreLayout::SplitNet { net_cores } => {
                if self.stages.len() < 2 {
                    Err("split-net needs at least two stages (net + app)".to_string())
                } else if net_cores == 0 || net_cores >= cores {
                    Err(format!(
                        "split-net needs 1 <= net_cores < cores ({net_cores} of {cores})"
                    ))
                } else {
                    Ok(())
                }
            }
            CoreLayout::SplitFull {
                poll_cores,
                stack_cores,
            } => {
                if self.stages.len() < 3 {
                    Err("split-full needs at least three stages (poll + stack + app)".to_string())
                } else if poll_cores == 0 || stack_cores == 0 || poll_cores + stack_cores >= cores {
                    Err(format!(
                        "split-full needs poll_cores >= 1, stack_cores >= 1 and \
                         poll_cores + stack_cores < cores ({poll_cores}+{stack_cores} of {cores})"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// One queued item: the request plus its enqueue time at the current
/// segment head (the per-stage wait the telemetry buckets measure).
#[derive(Clone)]
pub(crate) struct Item {
    req: Req,
    enq: SimTime,
}

/// A maximal stage run executing back-to-back on one set of cores, with a
/// queue only at its head stage.
#[derive(Clone)]
struct Segment {
    /// Stage indices this segment runs.
    stages: Range<usize>,
    /// Summed per-batch and per-item costs of the segment's network
    /// stages (every stage but the pipeline's application stage), ns.
    batch_fixed_ns: u64,
    fixed_ns: u64,
    /// Global core ids staffing this segment.
    cores: Range<usize>,
    /// Head-stage queue shape.
    discipline: QueueDiscipline,
    /// The shared dispatch ladder lowered from the discipline — consulted
    /// on every take at this stage boundary.
    policy: BuiltinDispatch,
    /// One queue (cFCFS) or one per staffed core (dFCFS variants).
    queues: Vec<VecDeque<Item>>,
}

/// Lowers a discipline to the shared policy plane.
fn policy_for(d: QueueDiscipline) -> BuiltinDispatch {
    match d {
        QueueDiscipline::Cfcfs => BuiltinDispatch::Fcfs(FcfsPolicy),
        QueueDiscipline::Dfcfs => BuiltinDispatch::Rtc(RtcPolicy),
        QueueDiscipline::DfcfsSteal => BuiltinDispatch::Zygos(
            // Steal on, IPIs off (stage hand-offs wake cores explicitly),
            // no quantum; victim order deterministic so staged runs need
            // no extra RNG stream.
            ZygosPolicy::new(
                true,
                false,
                QuantumPolicy::disabled(),
                BackgroundOrder::Fcfs,
            )
            .with_randomized_victims(false),
        ),
    }
}

/// Carves the pipeline into segments per the layout. Validated configs
/// only (ranges are non-empty by [`StagedConfig::validate`]).
fn build_segments(plan: &StagedConfig, cores: usize) -> Vec<Segment> {
    let n = plan.stages.len();
    let spans: Vec<(Range<usize>, Range<usize>)> = match plan.layout {
        CoreLayout::Unified => vec![(0..n, 0..cores)],
        CoreLayout::SplitNet { net_cores } => {
            vec![(0..n - 1, 0..net_cores), (n - 1..n, net_cores..cores)]
        }
        CoreLayout::SplitFull {
            poll_cores,
            stack_cores,
        } => vec![
            (0..1, 0..poll_cores),
            (1..n - 1, poll_cores..poll_cores + stack_cores),
            (n - 1..n, poll_cores + stack_cores..cores),
        ],
    };
    spans
        .into_iter()
        .map(|(stages, cores)| {
            let discipline = plan.stages[stages.start].discipline;
            let net = &plan.stages[stages.start..stages.end.min(n - 1)];
            let lanes = match discipline {
                QueueDiscipline::Cfcfs => 1,
                _ => cores.len(),
            };
            Segment {
                batch_fixed_ns: net.iter().map(|st| st.batch_fixed_ns).sum(),
                fixed_ns: net.iter().map(|st| st.fixed_ns).sum(),
                discipline,
                policy: policy_for(discipline),
                queues: (0..lanes).map(|_| VecDeque::new()).collect(),
                stages,
                cores,
            }
        })
        .collect()
}

#[derive(Clone)]
pub(crate) enum Ev {
    /// A segment's run-to-completion network work over a batch finished.
    SegDone { core: usize, batch: VecDeque<Item> },
    /// One application completion of the final segment's current batch.
    AppDone { core: usize, rest: VecDeque<Item> },
}

#[derive(Clone)]
pub(crate) struct StagedModel {
    cfg: SysConfig,
    /// Per-item cost of the application stage around the service time, ns.
    app_ns: u64,
    segs: Vec<Segment>,
    /// Core → owning segment.
    seg_of: Vec<usize>,
    busy: Vec<bool>,
    local_events: u64,
    stolen_events: u64,
    /// Items that finished each stage's processing (the conservation
    /// plane: non-increasing along the pipeline; the final entry equals
    /// `completed_total`). A warm-start splice subtracts the final entry
    /// from every entry, so each keeps counting the items whose response
    /// leaves after the splice and both invariants still hold.
    stage_counts: Vec<u64>,
    /// Per-stage queue wait at the segment heads, measurement window only
    /// (interior stages of a segment have no queue and stay empty).
    stage_wait: Vec<LatencyHistogram>,
    /// Recycled batch buffers: one per in-flight batch instead of an
    /// allocation per take.
    batch_pool: Vec<VecDeque<Item>>,
}

impl StagedModel {
    fn new(cfg: &SysConfig, plan: &StagedConfig) -> Self {
        let segs = build_segments(plan, cfg.cores);
        let app = plan.stages.last().expect("validated: non-empty");
        let mut seg_of = vec![0usize; cfg.cores];
        for (si, seg) in segs.iter().enumerate() {
            for c in seg.cores.clone() {
                seg_of[c] = si;
            }
        }
        StagedModel {
            busy: vec![false; cfg.cores],
            stage_counts: vec![0; plan.stages.len()],
            stage_wait: (0..plan.stages.len())
                .map(|_| LatencyHistogram::new())
                .collect(),
            app_ns: app.batch_fixed_ns + app.fixed_ns,
            segs,
            seg_of,
            cfg: cfg.clone(),
            local_events: 0,
            stolen_events: 0,
            batch_pool: Vec::new(),
        }
    }

    /// Enqueues an item at segment `si`'s head stage and wakes a core that
    /// the segment's discipline lets serve it.
    fn enqueue(&mut self, si: usize, item: Item, now: SimTime, cx: &mut Cx<Ev>) {
        let wake = {
            let home = item.req.home as usize;
            let seg = &mut self.segs[si];
            match seg.discipline {
                QueueDiscipline::Cfcfs => {
                    seg.queues[0].push_back(item);
                    seg.cores.clone().find(|&c| !self.busy[c])
                }
                d => {
                    let lanes = seg.queues.len();
                    let lane = home % lanes;
                    seg.queues[lane].push_back(item);
                    let owner = seg.cores.start + lane;
                    if !self.busy[owner] {
                        Some(owner)
                    } else if d == QueueDiscipline::DfcfsSteal {
                        // The owner is mid-batch; an idle peer's ladder
                        // grants StealReady, so wake one to grab it.
                        seg.cores.clone().find(|&c| !self.busy[c])
                    } else {
                        None
                    }
                }
            }
        };
        if let Some(core) = wake {
            self.run_core(core, now, cx);
        }
    }

    /// The take at a stage boundary: walk the segment's dispatch ladder —
    /// own/shared queue at the ready rungs, victim sweep where the policy
    /// grants `StealReady`. Returns the batch and whether it was stolen.
    fn take_batch(&mut self, si: usize, core: usize) -> (VecDeque<Item>, bool) {
        let mut batch = self.batch_pool.pop().unwrap_or_default();
        // Only the pipeline-head segment batches: the NIC poll is what
        // rx_batch amortizes. Downstream boundaries hand over per item.
        let cap = if self.segs[si].stages.start == 0 {
            self.cfg.rx_batch.max(1) as usize
        } else {
            1
        };
        let seg = &mut self.segs[si];
        let lane = match seg.discipline {
            QueueDiscipline::Cfcfs => 0,
            _ => core - seg.cores.start,
        };
        for &rung in seg.policy.ladder() {
            match rung {
                Rung::LocalReady | Rung::LocalNet => {
                    let q = &mut seg.queues[lane];
                    if !q.is_empty() {
                        let k = q.len().min(cap);
                        batch.extend(q.drain(..k));
                        return (batch, false);
                    }
                }
                Rung::StealReady if seg.policy.may_steal(true) => {
                    let lanes = seg.queues.len();
                    for d in 1..lanes {
                        let victim = (lane + d) % lanes;
                        if let Some(item) = seg.queues[victim].pop_front() {
                            batch.push_back(item);
                            return (batch, true);
                        }
                    }
                }
                _ => {}
            }
        }
        (batch, false)
    }

    /// The core loop at one stage boundary: take, record the head-stage
    /// wait, run the segment's network stages over the batch.
    fn run_core(&mut self, core: usize, now: SimTime, cx: &mut Cx<Ev>) {
        if self.busy[core] {
            return;
        }
        let si = self.seg_of[core];
        let (batch, stole) = self.take_batch(si, core);
        if batch.is_empty() {
            self.batch_pool.push(batch);
            return;
        }
        let k = batch.len() as u64;
        if stole {
            self.stolen_events += k;
        } else {
            self.local_events += k;
        }
        let head = self.segs[si].stages.start;
        if cx.edge.rec.measurement_started() {
            for item in &batch {
                self.stage_wait[head].record_nanos(now.duration_since(item.enq).as_nanos());
            }
        }
        // The application stage runs per item, in `next_app`.
        let seg = &self.segs[si];
        let mut dur = seg.batch_fixed_ns + k * seg.fixed_ns;
        if stole {
            dur += self.cfg.cost.steal_extra_ns;
        }
        self.busy[core] = true;
        cx.after(SimDuration::from_nanos(dur), Ev::SegDone { core, batch });
    }

    /// A segment's network work over a batch finished: hand the items to
    /// the next segment, or run the application stage if this is the tail
    /// segment.
    fn seg_done(&mut self, core: usize, mut batch: VecDeque<Item>, now: SimTime, cx: &mut Cx<Ev>) {
        let si = self.seg_of[core];
        let stages = self.segs[si].stages.clone();
        let last = self.stage_counts.len() - 1;
        let k = batch.len() as u64;
        for sidx in stages.clone() {
            if sidx < last {
                self.stage_counts[sidx] += k;
            }
        }
        if stages.end == self.stage_counts.len() {
            self.next_app(core, batch, now, cx);
        } else {
            while let Some(mut item) = batch.pop_front() {
                item.enq = now;
                self.enqueue(si + 1, item, now, cx);
            }
            self.batch_pool.push(batch);
            self.busy[core] = false;
            self.run_core(core, now, cx);
        }
    }

    /// Runs the next application item of the tail segment's batch
    /// (run-to-completion: the core takes no new batch until this one is
    /// done).
    fn next_app(&mut self, core: usize, mut rest: VecDeque<Item>, now: SimTime, cx: &mut Cx<Ev>) {
        match rest.pop_front() {
            Some(item) => {
                let dur = self.app_ns + item.req.service.as_nanos();
                let end = now + SimDuration::from_nanos(dur);
                cx.edge
                    .trace(core as u16, item.req.seq, TraceKind::Dispatch, now);
                // The response leaves the wire at the end of this event:
                // the edge records it (and returns its credit) at dispatch.
                cx.edge.complete(&item.req, end);
                *self.stage_counts.last_mut().expect("non-empty") += 1;
                cx.at(end, Ev::AppDone { core, rest });
            }
            None => {
                self.batch_pool.push(rest);
                self.busy[core] = false;
                self.run_core(core, now, cx);
            }
        }
    }
}

impl Server for StagedModel {
    type Event = Ev;

    fn packet(&mut self, req: Req, cx: &mut Cx<Ev>) {
        let now = cx.now();
        cx.edge.trace(req.home, req.seq, TraceKind::Enqueue, now);
        self.enqueue(0, Item { req, enq: now }, now, cx);
    }

    fn handle(&mut self, ev: Ev, cx: &mut Cx<Ev>) {
        let now = cx.now();
        match ev {
            Ev::SegDone { core, batch } => self.seg_done(core, batch, now, cx),
            Ev::AppDone { core, rest } => self.next_app(core, rest, now, cx),
        }
    }

    fn active_cores(&self) -> usize {
        self.cfg.cores
    }

    fn retarget(&mut self, cfg: &SysConfig) {
        self.cfg = cfg.clone();
        self.local_events = 0;
        self.stolen_events = 0;
        let done = *self.stage_counts.last().expect("non-empty");
        for n in &mut self.stage_counts {
            *n -= done;
        }
        for h in &mut self.stage_wait {
            *h = LatencyHistogram::new();
        }
    }

    fn stats(self, _end: SimTime) -> ServerStats {
        ServerStats {
            local_events: self.local_events,
            stolen_events: self.stolen_events,
            avg_active_cores: self.cfg.cores as f64,
            stage_p99_wait_us: self
                .stage_wait
                .iter()
                .map(|h| if h.is_empty() { 0.0 } else { h.p99_us() })
                .collect(),
            stage_counts: self.stage_counts,
            ..ServerStats::default()
        }
    }
}

/// What a [`SystemKind::Staged`] or [`SystemKind::Ix`] config runs: the
/// config with its plan taken out, and the plan. IX is always
/// [`StagedConfig::paper_pipeline`] and ignores [`SysConfig::staged`]. The
/// degenerate [`StagedConfig::zygos_equivalent`] pipeline comes back as
/// `None`, with the config re-pointed at the ZygOS model (the bit-identity
/// contract).
pub(crate) fn lower(cfg: &SysConfig) -> (SysConfig, Option<StagedConfig>) {
    debug_assert!(matches!(cfg.system, SystemKind::Staged | SystemKind::Ix));
    let mut cfg = cfg.clone();
    let plan = match (cfg.system, cfg.staged.take()) {
        (SystemKind::Staged, Some(plan)) => plan,
        // IX: per-core dFCFS head queue, RX batch B, run to completion.
        _ => StagedConfig::paper_pipeline(&cfg.cost),
    };
    if plan.is_zygos_equivalent() {
        cfg.system = SystemKind::Zygos;
        return (cfg, None);
    }
    if let Err(e) = plan.validate(cfg.cores) {
        panic!("invalid staged config: {e}");
    }
    (cfg, Some(plan))
}

/// A fresh staged world running `plan` under `cfg`.
pub(crate) fn world(cfg: &SysConfig, plan: &StagedConfig) -> World<StagedModel> {
    World::new(cfg, StagedModel::new(cfg, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_system as run;
    use zygos_sim::dist::ServiceDist;

    fn staged_cfg(load: f64, plan: StagedConfig) -> SysConfig {
        let mut cfg = SysConfig::paper(SystemKind::Staged, ServiceDist::exponential_us(10.0), load);
        cfg.cores = 8;
        cfg.conns = 128;
        cfg.requests = 12_000;
        cfg.warmup = 2_000;
        cfg.staged = Some(plan);
        cfg
    }

    #[test]
    fn degenerate_pipeline_is_bit_identical_to_zygos() {
        let cfg = staged_cfg(0.6, StagedConfig::zygos_equivalent());
        let mut zcfg = cfg.clone();
        zcfg.system = SystemKind::Zygos;
        zcfg.staged = None;
        let s = run(&cfg);
        let z = run(&zcfg);
        assert_eq!(s.p99_us().to_bits(), z.p99_us().to_bits());
        assert_eq!(s.latency.p50_us().to_bits(), z.latency.p50_us().to_bits());
        assert_eq!(s.completed, z.completed);
        assert_eq!(s.generated, z.generated);
        assert_eq!(s.stolen_events, z.stolen_events);
        assert_eq!(s.events, z.events);
        assert!(
            s.stage_counts.is_empty(),
            "delegated run has no stage plane"
        );
    }

    #[test]
    fn every_layout_conserves_stage_completions() {
        let cost = CostModel::zygos();
        let mut paper = StagedConfig::paper_pipeline(&cost);
        for layout in [
            CoreLayout::Unified,
            CoreLayout::SplitNet { net_cores: 2 },
            CoreLayout::SplitFull {
                poll_cores: 1,
                stack_cores: 2,
            },
        ] {
            paper.layout = layout;
            // A cold point, then a warm one spliced onto it: the splice
            // keeps both invariants.
            let chain =
                crate::driver::run_system_chain(&staged_cfg(0.3, paper.clone()), &[0.3, 0.5]);
            assert_eq!(chain[1].completed_total, 12_500, "{layout:?}: 0.5 ran cold");
            for out in &chain {
                assert_eq!(out.completed, 12_000, "{layout:?}");
                assert_eq!(out.stage_counts.len(), 3, "{layout:?}");
                // No request skips a stage: counts are non-increasing along
                // the pipeline and the app count is exactly completed_total.
                for w in out.stage_counts.windows(2) {
                    assert!(w[0] >= w[1], "{layout:?}: {:?}", out.stage_counts);
                }
                assert_eq!(
                    *out.stage_counts.last().expect("3 stages"),
                    out.completed_total,
                    "{layout:?}"
                );
                assert_eq!(out.stage_p99_wait_us.len(), 3, "{layout:?}");
            }
        }
    }

    #[test]
    fn split_layouts_queue_at_their_stage_boundaries() {
        let cost = CostModel::zygos();
        let mut plan = StagedConfig::paper_pipeline(&cost);
        plan.layout = CoreLayout::SplitNet { net_cores: 2 };
        let out = run(&staged_cfg(0.7, plan));
        // The app stage heads its own segment under split-net, so its
        // wait bucket is populated; interior stages of the net segment
        // (net_stack) never queue.
        assert!(
            out.stage_p99_wait_us[0] > 0.0,
            "{:?}",
            out.stage_p99_wait_us
        );
        assert_eq!(out.stage_p99_wait_us[1], 0.0, "{:?}", out.stage_p99_wait_us);
        assert!(
            out.stage_p99_wait_us[2] > 0.0,
            "{:?}",
            out.stage_p99_wait_us
        );
    }

    #[test]
    fn steal_discipline_rebalances_and_plain_dfcfs_does_not() {
        let cost = CostModel::zygos();
        let mut plan = StagedConfig::paper_pipeline(&cost);
        plan.layout = CoreLayout::SplitNet { net_cores: 2 };
        let stealing = run(&staged_cfg(0.7, plan.clone()));
        assert!(stealing.stolen_events > 0, "dfcfs-steal rebalances");
        plan.stages[2].discipline = QueueDiscipline::Dfcfs;
        let partitioned = run(&staged_cfg(0.7, plan));
        assert_eq!(partitioned.stolen_events, 0, "dfcfs never steals");
        assert!(
            partitioned.p99_us() > stealing.p99_us(),
            "stealing cuts the tail: dfcfs {} vs steal {}",
            partitioned.p99_us(),
            stealing.p99_us()
        );
    }

    #[test]
    fn unified_batch_commitment_blocks_where_split_app_cores_do_not() {
        // High-dispersion service + deep RX batches: a unified core
        // commits to its whole batch run-to-completion, so short requests
        // ride behind a long batch-mate; split-net app cores take work
        // item by item (with stealing) and dodge that head-of-line
        // blocking. This is the crossover `scenarios/staged_layouts.toml`
        // gates at full scale.
        let cost = CostModel::zygos();
        let service = ServiceDist::TwoPoint {
            fast_us: 2.0,
            slow_us: 200.0,
            p_fast: 0.95,
        };
        let mk = |layout, discipline: Option<QueueDiscipline>| {
            let mut plan = StagedConfig::paper_pipeline(&cost);
            plan.layout = layout;
            if let Some(d) = discipline {
                for s in &mut plan.stages {
                    s.discipline = d;
                }
            }
            let service = service.clone();
            move |load: f64| {
                let mut cfg = SysConfig::paper(SystemKind::Staged, service.clone(), load);
                cfg.cores = 16;
                cfg.conns = 256;
                cfg.requests = 20_000;
                cfg.warmup = 4_000;
                cfg.staged = Some(plan.clone());
                cfg
            }
        };
        let unified = mk(CoreLayout::Unified, Some(QueueDiscipline::Cfcfs));
        let split = mk(CoreLayout::SplitNet { net_cores: 1 }, None);
        // Low load: pooling all 16 cores beats parking one on the NIC.
        let (u_low, s_low) = (run(&unified(0.5)), run(&split(0.5)));
        assert!(
            u_low.p99_us() <= s_low.p99_us(),
            "unified p99 {} should not exceed split p99 {} at low load",
            u_low.p99_us(),
            s_low.p99_us()
        );
        // High load: deep queues mean deep batches, and batch commitment
        // strands short requests behind slow batch-mates.
        let (u_hi, s_hi) = (run(&unified(0.8)), run(&split(0.8)));
        assert!(
            u_hi.p99_us() > 1.1 * s_hi.p99_us(),
            "unified p99 {} should exceed split p99 {} at high load",
            u_hi.p99_us(),
            s_hi.p99_us()
        );
    }

    #[test]
    #[ignore]
    fn probe_crossover_grid() {
        // Tuning probe, not a regression test: prints the unified-vs-split
        // p99 grid used to size scenarios/staged_layouts.toml.
        let cost = CostModel::zygos();
        let service = ServiceDist::TwoPoint {
            fast_us: 2.0,
            slow_us: 200.0,
            p_fast: 0.95,
        };
        for &load in &[0.2, 0.5, 0.7, 0.8, 0.85, 0.88, 0.9, 0.92] {
            let mk = |layout, disc: Option<QueueDiscipline>| {
                let mut plan = StagedConfig::paper_pipeline(&cost);
                plan.layout = layout;
                if let Some(d) = disc {
                    for s in &mut plan.stages {
                        s.discipline = d;
                    }
                }
                let mut cfg = SysConfig::paper(SystemKind::Staged, service.clone(), load);
                cfg.cores = 16;
                cfg.conns = 256;
                cfg.requests = 20_000;
                cfg.warmup = 4_000;
                cfg.staged = Some(plan);
                run(&cfg)
            };
            let uc = mk(CoreLayout::Unified, Some(QueueDiscipline::Cfcfs));
            let s1 = mk(CoreLayout::SplitNet { net_cores: 1 }, None);
            let s2 = mk(CoreLayout::SplitNet { net_cores: 2 }, None);
            let sf = mk(
                CoreLayout::SplitFull {
                    poll_cores: 1,
                    stack_cores: 1,
                },
                None,
            );
            println!(
                "load {load:.2}: unified-cfcfs {:8.1}  split-net1 {:8.1}  split-net2 {:8.1}  split-full {:8.1}",
                uc.p99_us(),
                s1.p99_us(),
                s2.p99_us(),
                sf.p99_us()
            );
        }
    }

    #[test]
    fn validation_rejects_malformed_pipelines() {
        let cost = CostModel::zygos();
        let good = StagedConfig::paper_pipeline(&cost);
        assert!(good.validate(16).is_ok());
        let empty = StagedConfig {
            stages: vec![],
            layout: CoreLayout::Unified,
        };
        assert!(empty.validate(16).unwrap_err().contains("at least one"));
        let mut dup = good.clone();
        dup.stages[1].name = "net_poll".to_string();
        assert!(dup.validate(16).unwrap_err().contains("duplicate"));
        let mut all_net = good.clone();
        all_net.layout = CoreLayout::SplitNet { net_cores: 16 };
        assert!(all_net.validate(16).unwrap_err().contains("net_cores"));
        let mut two_stage_full = good.clone();
        two_stage_full.stages.truncate(2);
        two_stage_full.layout = CoreLayout::SplitFull {
            poll_cores: 1,
            stack_cores: 1,
        };
        assert!(two_stage_full
            .validate(16)
            .unwrap_err()
            .contains("three stages"));
    }
}
