//! Scheduler telemetry (the instrumentation behind Figure 8).
//!
//! Each core counts locally-executed events, stolen events, IPIs sent and
//! handled; a snapshot aggregates them into the paper's "steals / event"
//! percentage (Figure 8 plots it against throughput).

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-core counters, updated with relaxed atomics on the fast path. Only
/// their core writes them, and each core's own cache line
/// (`CACHE_LINE`, 128 bytes) keeps the writes of one core from evicting
/// another's.
#[derive(Default)]
#[repr(align(128))]
pub struct CoreStats {
    /// Events executed by this core for connections homed here.
    pub local_events: AtomicU64,
    /// Events executed by this core for *stolen* connections.
    pub stolen_events: AtomicU64,
    /// Connection dequeues from the local shuffle queue.
    pub local_dequeues: AtomicU64,
    /// Successful steals from other cores' shuffle queues.
    pub steals: AtomicU64,
    /// Failed steal attempts (try_lock missed or queue emptied).
    pub failed_steals: AtomicU64,
    /// IPIs this core sent.
    pub ipis_sent: AtomicU64,
    /// IPIs this core handled.
    pub ipis_handled: AtomicU64,
    /// Remote syscalls this core executed on behalf of stealers.
    pub remote_syscalls: AtomicU64,
    /// Parked workers this core woke because stealable work backed up —
    /// the live runtime's stand-in for the paper's continuous polling,
    /// counted apart so `ipis_sent` keeps the paper's meaning.
    pub wakes_sent: AtomicU64,
    /// Times this core's worker went to sleep (`park_timeout` calls),
    /// after its poll found nothing.
    pub parks: AtomicU64,
}

macro_rules! bump {
    ($($name:ident => $field:ident),+ $(,)?) => {
        $(
            #[doc = concat!("Increments `", stringify!($field), "` by 1.")]
            pub fn $name(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )+
    };
}

impl CoreStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        CoreStats::default()
    }

    bump! {
        count_local_event => local_events,
        count_stolen_event => stolen_events,
        count_local_dequeue => local_dequeues,
        count_steal => steals,
        count_failed_steal => failed_steals,
        count_ipi_sent => ipis_sent,
        count_ipi_handled => ipis_handled,
        count_remote_syscall => remote_syscalls,
        count_wake_sent => wakes_sent,
        count_park => parks,
    }
}

/// Aggregated snapshot across all cores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sum of locally executed events.
    pub local_events: u64,
    /// Sum of stolen events.
    pub stolen_events: u64,
    /// Sum of local dequeues.
    pub local_dequeues: u64,
    /// Sum of successful steals.
    pub steals: u64,
    /// Sum of failed steal attempts.
    pub failed_steals: u64,
    /// Sum of IPIs sent.
    pub ipis_sent: u64,
    /// Sum of IPIs handled.
    pub ipis_handled: u64,
    /// Sum of remotely-executed syscalls.
    pub remote_syscalls: u64,
    /// Sum of work-conservation wake-ups sent (not IPIs).
    pub wakes_sent: u64,
    /// Sum of worker parks.
    pub parks: u64,
}

impl StatsSnapshot {
    /// Collects a snapshot from per-core counters.
    pub fn collect<'a>(cores: impl IntoIterator<Item = &'a CoreStats>) -> Self {
        let mut s = StatsSnapshot::default();
        for c in cores {
            s.local_events += c.local_events.load(Ordering::Relaxed);
            s.stolen_events += c.stolen_events.load(Ordering::Relaxed);
            s.local_dequeues += c.local_dequeues.load(Ordering::Relaxed);
            s.steals += c.steals.load(Ordering::Relaxed);
            s.failed_steals += c.failed_steals.load(Ordering::Relaxed);
            s.ipis_sent += c.ipis_sent.load(Ordering::Relaxed);
            s.ipis_handled += c.ipis_handled.load(Ordering::Relaxed);
            s.remote_syscalls += c.remote_syscalls.load(Ordering::Relaxed);
            s.wakes_sent += c.wakes_sent.load(Ordering::Relaxed);
            s.parks += c.parks.load(Ordering::Relaxed);
        }
        s
    }

    /// Total events executed.
    pub fn total_events(&self) -> u64 {
        self.local_events + self.stolen_events
    }

    /// The paper's Figure 8 metric: fraction of events that were stolen.
    pub fn steal_fraction(&self) -> f64 {
        let total = self.total_events();
        if total == 0 {
            0.0
        } else {
            self.stolen_events as f64 / total as f64
        }
    }

    /// IPIs sent per executed event.
    pub fn ipis_per_event(&self) -> f64 {
        let total = self.total_events();
        if total == 0 {
            0.0
        } else {
            self.ipis_sent as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = StatsSnapshot::collect([&CoreStats::new(), &CoreStats::new()]);
        assert_eq!(s, StatsSnapshot::default());
        assert_eq!(s.steal_fraction(), 0.0);
        assert_eq!(s.ipis_per_event(), 0.0);
    }

    #[test]
    fn aggregation_sums_cores() {
        let a = CoreStats::new();
        let b = CoreStats::new();
        for _ in 0..3 {
            a.count_local_event();
        }
        a.count_steal();
        b.count_stolen_event();
        b.count_ipi_sent();
        b.count_wake_sent();
        b.count_wake_sent();
        a.count_park();
        b.count_park();
        let s = StatsSnapshot::collect([&a, &b]);
        assert_eq!(s.local_events, 3);
        assert_eq!(s.stolen_events, 1);
        assert_eq!(s.steals, 1);
        assert_eq!(s.ipis_sent, 1);
        assert_eq!(s.wakes_sent, 2, "wake-ups are not IPIs");
        assert_eq!(s.parks, 2);
        assert_eq!(s.total_events(), 4);
        assert!((s.steal_fraction() - 0.25).abs() < 1e-12);
        assert!((s.ipis_per_event() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn core_stats_own_their_cache_line() {
        // Every core bumps its counters on every event; packed beside the
        // next core's, each bump would evict that core's line.
        assert_eq!(align_of::<CoreStats>() % crate::CACHE_LINE, 0);
        assert_eq!(size_of::<CoreStats>() % crate::CACHE_LINE, 0);
    }

    #[test]
    fn concurrent_bumps_are_lossless() {
        let stats = std::sync::Arc::new(CoreStats::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&stats);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.count_local_event();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(stats.local_events.load(Ordering::Relaxed), 40_000);
    }
}
