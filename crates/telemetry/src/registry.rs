//! The unified metrics registry.
//!
//! Named, bounded time-series. Registration (by name) happens once at
//! setup and returns an index-typed handle; pushes through the handle are
//! array stores — no hashing, no allocation — so a control tick can
//! publish a dozen points without perturbing the host it is observing.
//!
//! Both hosts publish into this vocabulary: the simulator's `Ev::Control`
//! tick and the live runtime's worker-0 control tick. A reader takes a
//! point-in-time snapshot (`series`, `take_series`) — nothing is
//! consumed, which is the fix for the read-once-and-lost control-tick
//! gauges this registry replaces.

/// Handle to a registered time-series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesId(usize);

/// One named, bounded time-series (time in µs, value dimensionless).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    /// Registry name (see `docs/OBSERVABILITY.md` for the scheme).
    pub name: String,
    /// `(t_us, value)` points in push order.
    pub points: Vec<(f64, f64)>,
    /// Points refused once the cap was hit (the series keeps its head).
    pub truncated: u64,
    cap: usize,
}

impl TimeSeries {
    /// Latest pushed value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }
}

/// The registry: registration by name, updates by handle.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    series: Vec<TimeSeries>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or re-finds) a time-series named `name`, holding at
    /// most `cap` points (preallocated; pushes past the cap are counted
    /// and refused, never reallocated).
    pub fn register_series(&mut self, name: &str, cap: usize) -> SeriesId {
        if let Some(i) = self.series.iter().position(|s| s.name == name) {
            return SeriesId(i);
        }
        self.series.push(TimeSeries {
            name: name.to_string(),
            points: Vec::with_capacity(cap),
            truncated: 0,
            cap: cap.max(1),
        });
        SeriesId(self.series.len() - 1)
    }

    /// Appends a `(t_us, value)` point to a series (no-op past the cap).
    #[inline]
    pub fn push(&mut self, id: SeriesId, t_us: f64, v: f64) {
        let s = &mut self.series[id.0];
        if s.points.len() < s.cap {
            s.points.push((t_us, v));
        } else {
            s.truncated += 1;
        }
    }

    /// A series by name.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Clones the series out (registration order) — the harvest path
    /// from a host into a report.
    pub fn take_series(&self) -> Vec<TimeSeries> {
        self.series.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_caps_without_reallocating() {
        let mut r = Registry::new();
        let s = r.register_series("active_cores", 3);
        // Registration is idempotent: the same name re-finds the handle.
        assert_eq!(r.register_series("active_cores", 3), s);
        for i in 0..5 {
            r.push(s, i as f64, 16.0 - i as f64);
        }
        let ts = r.series("active_cores").expect("registered");
        assert_eq!(ts.points.len(), 3);
        assert_eq!(ts.truncated, 2);
        assert_eq!(ts.last(), Some(14.0));
        // Re-readable, not read-once: a second read sees the same points.
        assert_eq!(r.series("active_cores"), Some(ts));
        assert_eq!(r.series("missing"), None);
    }
}
