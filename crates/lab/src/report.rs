//! The unified result schema and its JSON round trip.
//!
//! Every host — simulator, live runtime, queueing model — reduces a run
//! to the same [`PointMetrics`], so a [`Report`] is diffable across
//! hosts and across commits (`lab --check` compares a freshly produced
//! report against a committed baseline JSON). The JSON codec is
//! hand-rolled (this workspace builds offline, without serde); it covers
//! exactly the subset the schema needs, and the round trip is pinned by
//! tests and by `tests/scenario.rs` at the workspace root.
//!
//! Metrics that a host cannot produce are `0` (e.g. `steal_fraction` for
//! a queueing model, `wasted_wire_us` on the loopback live runtime) —
//! the *schema* never changes shape across hosts; that is what makes a
//! sim series and a live series of the same scenario directly
//! comparable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured point (one case at one offered load).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PointMetrics {
    /// Offered load (fraction of ideal saturation).
    pub load: f64,
    /// Measured goodput, MRPS.
    pub mrps: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Fraction of events executed by non-home cores.
    pub steal_fraction: f64,
    /// IPIs per measured request.
    pub ipis_per_req: f64,
    /// Quantum preemptions per measured request.
    pub preemptions_per_req: f64,
    /// Time-averaged granted cores.
    pub avg_cores: f64,
    /// Granted core-seconds over the measurement window.
    pub core_seconds: f64,
    /// Fraction of arrivals shed by the credit gate.
    pub shed_fraction: f64,
    /// Wire time burned by shed requests, µs.
    pub wasted_wire_us: f64,
    /// Retry re-issues per generated request (0 without a retry policy;
    /// hosts that do not model the retry loop report 0).
    pub retry_rate: f64,
    /// Permanent client abandons per generated request.
    pub give_up_rate: f64,
    /// Fraction of generated requests not abandoned (`1 − give_up_rate`
    /// on hosts that model the retry loop; 0 on hosts that do not).
    pub goodput: f64,
    /// Each class's share of all sheds (empty without tenant classes).
    pub shed_share_by_class: Vec<f64>,
    /// Each class's own shed rate (empty without tenant classes).
    pub shed_rate_by_class: Vec<f64>,
    /// p99 sojourn decomposition, µs: time the p99 request spent queued
    /// (wire ingress + HoL blocking). Zero when tracing is off or the
    /// host records nothing. The four components sum to the p99 sojourn
    /// (within histogram bucket precision, checked by `lab --check`).
    pub p99_queue_us: f64,
    /// p99 decomposition: application execution + response TX + egress.
    pub p99_service_us: f64,
    /// p99 decomposition: steal grab + the stolen result's ride home.
    pub p99_steal_us: f64,
    /// p99 decomposition: background-queue wait after preemptions.
    pub p99_preempt_us: f64,
    /// Staged-engine hosts only (`sim:staged`, and `sim:ix`, which runs
    /// the paper pipeline): p99 queue wait ahead of each pipeline stage,
    /// µs, pipeline order (empty on every other host). This is the
    /// per-stage tail decomposition the layout crossover is read from.
    pub stage_p99_wait_us: Vec<f64>,
    /// Control-tick time-series harvested at this point (empty when the
    /// scenario requests none): admitted rate, credit capacity, active
    /// cores, per-class shed rate — one entry per registered series.
    pub timeseries: Vec<TraceSeries>,
}

/// One named time-series of a point: `(t_us, value)` samples in time
/// order, as harvested from the host's telemetry registry.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TraceSeries {
    /// Registry name (`admitted_rate`, `credit_capacity`, `active_cores`,
    /// `shed_rate_class<i>`).
    pub name: String,
    /// `(time µs since run start, value)` samples.
    pub points: Vec<(f64, f64)>,
}

/// How [`crate::check_baseline`] compares one scalar between a fresh
/// report and its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Drift {
    /// Not a headline metric: never compared.
    Free,
    /// Relative drift within the scenario's tolerance; the absolute floor
    /// keeps near-zero values from producing infinite ratios.
    Within(f64),
    /// Only the sign class (zero vs positive) must match.
    Sign,
}

/// One typed field of [`PointMetrics`] under its JSON key — which is also
/// the name a `[[claim]]` reads it by.
pub(crate) struct Field<T: 'static> {
    pub(crate) name: &'static str,
    pub(crate) get: fn(&PointMetrics) -> &T,
    set: fn(&mut PointMetrics, T),
}

macro_rules! field {
    ($field:ident) => {
        Field {
            name: stringify!($field),
            get: |p| &p.$field,
            set: |p, v| p.$field = v,
        }
    };
}

/// **The** metric table: every scalar of [`PointMetrics`] in JSON key
/// order, with its baseline-diff rule (the non-`Free` entries are the
/// headline set). [`Report::to_json`], [`Report::from_json`], the claim
/// evaluator and the baseline diff all iterate this list, so a new scalar
/// is one struct field plus one line here — and old baselines, which lack
/// it, still parse (see [`Report::from_json`]).
pub(crate) const SCALARS: &[(Field<f64>, Drift)] = &[
    (field!(load), Drift::Free),
    (field!(mrps), Drift::Within(0.01)),
    (field!(p50_us), Drift::Free),
    (field!(p99_us), Drift::Within(5.0)),
    (field!(p999_us), Drift::Free),
    (field!(steal_fraction), Drift::Free),
    (field!(ipis_per_req), Drift::Free),
    (field!(preemptions_per_req), Drift::Free),
    (field!(avg_cores), Drift::Within(2.0)),
    (field!(core_seconds), Drift::Free),
    (field!(shed_fraction), Drift::Within(0.1)),
    (field!(wasted_wire_us), Drift::Sign),
    (field!(retry_rate), Drift::Within(0.1)),
    (field!(give_up_rate), Drift::Free),
    (field!(goodput), Drift::Within(0.1)),
    (field!(p99_queue_us), Drift::Free),
    (field!(p99_service_us), Drift::Free),
    (field!(p99_steal_us), Drift::Free),
    (field!(p99_preempt_us), Drift::Free),
];

/// The vector metrics, in JSON key order (after the scalars); claims
/// read element `N` as `name.N`.
const VECTORS: &[Field<Vec<f64>>] = &[
    field!(shed_share_by_class),
    field!(shed_rate_by_class),
    field!(stage_p99_wait_us),
];

/// True when `name` is a metric a claim may read.
pub(crate) fn metric_exists(name: &str) -> bool {
    SCALARS.iter().any(|(m, _)| m.name == name) || vector_elem(name).is_some()
}

fn vector_elem(name: &str) -> Option<(&'static Field<Vec<f64>>, usize)> {
    let (vec, idx) = name.rsplit_once('.')?;
    let v = VECTORS.iter().find(|v| v.name == vec)?;
    Some((v, idx.parse().ok()?))
}

impl PointMetrics {
    /// The metric called `name` — a scalar field's name, or `vector.N`
    /// for element `N` of a per-class / per-stage vector (e.g.
    /// `shed_share_by_class.1`). `None` for an unknown name or an index
    /// this point's vector does not reach (live hosts report no per-class
    /// vectors).
    pub fn metric(&self, name: &str) -> Option<f64> {
        if let Some((m, _)) = SCALARS.iter().find(|(m, _)| m.name == name) {
            return Some(*(m.get)(self));
        }
        let (v, idx) = vector_elem(name)?;
        (v.get)(self).get(idx).copied()
    }
}

/// The outcome of a `[search]` block for one case: the paper's
/// "maximum load @ SLO" metric plus the probe accounting that pins the
/// checkpoint-prefix-reuse win (`cold_probes` is 1 for warmable cases
/// whose probes stay below saturation).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SearchResult {
    /// The latency quantile the SLO binds.
    pub quantile: f64,
    /// The SLO bound, µs.
    pub bound_us: f64,
    /// Bisection grid resolution.
    pub resolution: u32,
    /// Highest load meeting the bound (0 when even the lowest fails).
    pub max_load: f64,
    /// Total bisection probes run.
    pub probes: u32,
    /// Probes that paid a full cold warmup.
    pub cold_probes: u32,
}

/// One case's sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Case label.
    pub label: String,
    /// Host id ([`crate::spec::HostSpec::id`]).
    pub host: String,
    /// Whether reruns reproduce the numbers exactly (sim and model hosts;
    /// live wall-clock series are structural-compare only).
    pub deterministic: bool,
    /// One point per grid load.
    pub points: Vec<PointMetrics>,
    /// Max-load@SLO search result (`None` when the scenario has no
    /// `[search]` block or the host cannot run one).
    pub search: Option<SearchResult>,
}

/// A full scenario result.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Schema version (bump on shape changes so stale baselines fail
    /// loudly instead of diffing garbage).
    pub schema: u32,
    /// Scenario name.
    pub scenario: String,
    /// Whether this ran at smoke scale.
    pub smoke: bool,
    /// One series per case, scenario order.
    pub series: Vec<Series>,
}

/// Current schema version. v2 added the p99 sojourn decomposition and
/// per-point telemetry time-series; v3 added per-series `search` and
/// `tail` results; v4 added per-point `stage_p99_wait_us` (staged
/// hosts); v5 added the retry plane (`retry_rate`, `give_up_rate`,
/// `goodput`). The RESTART `tail` result was later deleted without a
/// bump: a baseline that still carries it parses, its key ignored.
pub const SCHEMA_VERSION: u32 = 5;

impl Report {
    /// The series with `label`, if any.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Serializes to pretty JSON. `f64` values use Rust's shortest
    /// round-trip formatting, so `parse(to_json(r)) == r` exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"scenario\": {},", quote(&self.scenario));
        let _ = writeln!(out, "  \"smoke\": {},", self.smoke);
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"label\": {},", quote(&s.label));
            let _ = writeln!(out, "      \"host\": {},", quote(&s.host));
            let _ = writeln!(out, "      \"deterministic\": {},", s.deterministic);
            out.push_str("      \"points\": [\n");
            for (j, p) in s.points.iter().enumerate() {
                out.push_str("        {");
                for (m, _) in SCALARS {
                    let _ = write!(out, "\"{}\": {}, ", m.name, num(*(m.get)(p)));
                }
                for v in VECTORS {
                    let _ = write!(out, "\"{}\": {}, ", v.name, num_array((v.get)(p)));
                }
                let _ = write!(out, "\"timeseries\": {}", series_array(&p.timeseries));
                out.push('}');
                out.push_str(if j + 1 < s.points.len() { ",\n" } else { "\n" });
            }
            out.push_str("      ],\n      \"search\": ");
            write_search(&mut out, &s.search);
            out.push('\n');
            out.push_str(if i + 1 < self.series.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the output of [`Report::to_json`] (any equivalent JSON,
    /// really — the parser is a small general one). The point schema is
    /// additive: a scalar metric the text lacks reads as absent (NaN,
    /// which [`crate::check_baseline`] skips), a missing vector metric as
    /// empty, and keys this binary does not know are ignored — so a new
    /// metric needs neither a schema bump nor regenerated baselines.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = Json::parse(text)?;
        let top = v.object("report")?;
        let schema = get(top, "schema")?.number("schema")? as u32;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "baseline schema v{schema} does not match this binary's v{SCHEMA_VERSION}; \
                 regenerate it with --write-baselines"
            ));
        }
        let mut series = Vec::new();
        for (i, sv) in get(top, "series")?.array("series")?.iter().enumerate() {
            let so = sv.object(&format!("series[{i}]"))?;
            let mut points = Vec::new();
            for (j, pv) in get(so, "points")?.array("points")?.iter().enumerate() {
                let po = pv.object(&format!("point[{j}]"))?;
                let mut timeseries = Vec::new();
                for (k, tv) in get(po, "timeseries")?
                    .array("timeseries")?
                    .iter()
                    .enumerate()
                {
                    let to = tv.object(&format!("timeseries[{k}]"))?;
                    let mut pts = Vec::new();
                    for pair in get(to, "points")?.array("points")? {
                        let pair = pair.array("series point")?;
                        if pair.len() != 2 {
                            return Err("series point must be [t_us, value]".into());
                        }
                        pts.push((pair[0].number("t_us")?, pair[1].number("value")?));
                    }
                    timeseries.push(TraceSeries {
                        name: get(to, "name")?.string("name")?,
                        points: pts,
                    });
                }
                let mut point = PointMetrics {
                    timeseries,
                    ..PointMetrics::default()
                };
                for (m, _) in SCALARS {
                    let v = match po.get(m.name) {
                        Some(v) => v.number(m.name)?,
                        None => f64::NAN,
                    };
                    (m.set)(&mut point, v);
                }
                for vm in VECTORS {
                    if let Some(v) = po.get(vm.name) {
                        let items = v.array(vm.name)?.iter().map(|x| x.number(vm.name));
                        (vm.set)(&mut point, items.collect::<Result<_, _>>()?);
                    }
                }
                if point.load.is_nan() {
                    return Err(format!("point[{j}] has no load"));
                }
                points.push(point);
            }
            let search = read_search(get(so, "search")?)?;
            series.push(Series {
                label: get(so, "label")?.string("label")?,
                host: get(so, "host")?.string("host")?,
                deterministic: get(so, "deterministic")?.boolean("deterministic")?,
                points,
                search,
            });
        }
        Ok(Report {
            schema,
            scenario: get(top, "scenario")?.string("scenario")?,
            smoke: get(top, "smoke")?.boolean("smoke")?,
            series,
        })
    }
}

fn get<'a>(map: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    map.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// JSON has no NaN/Inf; metrics are physical quantities, so clamp any
/// non-finite slip-through to 0 rather than emitting invalid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn num_array(vs: &[f64]) -> String {
    let inner: Vec<String> = vs.iter().map(|&v| num(v)).collect();
    format!("[{}]", inner.join(", "))
}

/// Writes a series' `search` value: `null`, or every field in key
/// order. Integer fields print with neither a fraction nor an exponent.
fn write_search(out: &mut String, r: &Option<SearchResult>) {
    let Some(r) = r else {
        out.push_str("null");
        return;
    };
    let _ = write!(
        out,
        "{{\"quantile\": {}, \"bound_us\": {}, \"resolution\": {}, \"max_load\": {}, \
         \"probes\": {}, \"cold_probes\": {}}}",
        num(r.quantile),
        num(r.bound_us),
        r.resolution,
        num(r.max_load),
        r.probes,
        r.cold_probes
    );
}

/// Reads what [`write_search`] wrote; every field is required.
fn read_search(v: &Json) -> Result<Option<SearchResult>, String> {
    if *v == Json::Null {
        return Ok(None);
    }
    let o = v.object("search")?;
    let n = |k: &str| get(o, k)?.number(k);
    Ok(Some(SearchResult {
        quantile: n("quantile")?,
        bound_us: n("bound_us")?,
        resolution: n("resolution")? as u32,
        max_load: n("max_load")?,
        probes: n("probes")? as u32,
        cold_probes: n("cold_probes")? as u32,
    }))
}

fn series_array(series: &[TraceSeries]) -> String {
    let inner: Vec<String> = series
        .iter()
        .map(|s| {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|&(t, v)| format!("[{}, {}]", num(t), num(v)))
                .collect();
            format!(
                "{{\"name\": {}, \"points\": [{}]}}",
                quote(&s.name),
                pts.join(", ")
            )
        })
        .collect();
    format!("[{}]", inner.join(", "))
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A small JSON value tree (enough for the report schema).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn object(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    fn array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    fn number(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    fn string(&self, what: &str) -> Result<String, String> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    fn boolean(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut out = String::new();
            loop {
                let Some(&c) = b.get(*pos) else {
                    return Err("unterminated string".to_string());
                };
                *pos += 1;
                match c {
                    b'"' => return Ok(Json::Str(out)),
                    b'\\' => {
                        let Some(&e) = b.get(*pos) else {
                            return Err("unterminated escape".to_string());
                        };
                        *pos += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'u' => {
                                if *pos + 4 > b.len() {
                                    return Err("truncated \\u escape".to_string());
                                }
                                let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                *pos += 4;
                            }
                            other => return Err(format!("unknown escape \\{}", other as char)),
                        }
                    }
                    c => {
                        // Multi-byte UTF-8: copy the full sequence.
                        let len = utf8_len(c);
                        if len == 1 {
                            out.push(c as char);
                        } else {
                            let start = *pos - 1;
                            let end = start + len;
                            let s = std::str::from_utf8(b.get(start..end).unwrap_or_default())
                                .map_err(|_| "invalid UTF-8 in string".to_string())?;
                            out.push_str(s);
                            *pos = end;
                        }
                    }
                }
            }
        }
        b't' => expect_word(b, pos, "true", Json::Bool(true)),
        b'f' => expect_word(b, pos, "false", Json::Bool(false)),
        b'n' => expect_word(b, pos, "null", Json::Null),
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).expect("ascii");
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {s:?} at byte {start}"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn expect_word(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected {word:?} at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            schema: SCHEMA_VERSION,
            scenario: "fig13-overload".to_string(),
            smoke: true,
            series: vec![
                Series {
                    label: "ZygOS (static)".to_string(),
                    host: "sim:zygos".to_string(),
                    deterministic: true,
                    points: vec![PointMetrics {
                        load: 1.2,
                        mrps: 1.52,
                        p50_us: 21.5,
                        p99_us: 2431.0,
                        p999_us: 3000.25,
                        avg_cores: 16.0,
                        core_seconds: 0.81,
                        ..PointMetrics::default()
                    }],
                    search: Some(SearchResult {
                        quantile: 0.99,
                        bound_us: 100.0,
                        resolution: 16,
                        max_load: 0.8125,
                        probes: 5,
                        cold_probes: 1,
                    }),
                },
                Series {
                    label: "ZygOS (credits)".to_string(),
                    host: "sim:zygos".to_string(),
                    deterministic: true,
                    points: vec![PointMetrics {
                        load: 1.2,
                        mrps: 1.41,
                        p99_us: 87.0,
                        shed_fraction: 0.33,
                        wasted_wire_us: 19_000.0,
                        retry_rate: 0.41,
                        give_up_rate: 0.05,
                        goodput: 0.95,
                        shed_share_by_class: vec![0.01, 0.99],
                        shed_rate_by_class: vec![0.02, 0.61],
                        p99_queue_us: 61.5,
                        p99_service_us: 24.25,
                        p99_steal_us: 1.0,
                        p99_preempt_us: 0.25,
                        stage_p99_wait_us: vec![12.5, 0.0, 87.25],
                        timeseries: vec![TraceSeries {
                            name: "admitted_rate".to_string(),
                            points: vec![(25.0, 1.4), (50.0, 1.38)],
                        }],
                        ..PointMetrics::default()
                    }],
                    search: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample();
        let back = Report::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn metrics_resolve_by_name_and_the_doc_quotes_the_headline_set() {
        let p = &sample().series[1].points[0];
        assert_eq!(p.metric("p99_us"), Some(87.0));
        assert_eq!(p.metric("shed_rate_by_class.1"), Some(0.61));
        assert_eq!(p.metric("stage_p99_wait_us.3"), None, "past the vector");
        assert!(metric_exists("stage_p99_wait_us.3"));
        for unknown in [
            "p98_us",
            "shed_rate_by_class",
            "shed_rate_by_class.x",
            "timeseries.0",
        ] {
            assert!(!metric_exists(unknown) && p.metric(unknown).is_none());
        }
        // docs/SCENARIOS.md names what the baseline diff compares; the
        // names come from the table, so the two cannot drift apart again.
        let within = SCALARS
            .iter()
            .filter(|(_, drift)| matches!(drift, Drift::Within(_)))
            .map(|(m, _)| format!("`{}`, ", m.name));
        let sign = SCALARS.iter().filter(|(_, drift)| *drift == Drift::Sign);
        let sign: Vec<String> = sign.map(|(m, _)| format!("`{}`", m.name)).collect();
        let quoted = format!(
            "{}and the sign class of {}",
            within.collect::<String>(),
            sign.join(", ")
        );
        let doc = include_str!("../../../docs/SCENARIOS.md");
        let doc = doc.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(doc.contains(&quoted), "SCENARIOS.md must quote: {quoted}");
    }

    #[test]
    fn schema_mismatch_is_loud() {
        let mut r = sample();
        r.schema = SCHEMA_VERSION + 1;
        let e = Report::from_json(&r.to_json()).expect_err("must reject");
        assert!(e.contains("schema"), "{e}");
    }

    #[test]
    fn strings_with_specials_survive() {
        let mut r = sample();
        r.series[0].label = "weird \"label\" \\ with\nnewline — µs".to_string();
        let back = Report::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.series[0].label, r.series[0].label);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{\"schema\": 1").is_err());
        assert!(Report::from_json("[1,2,3]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("{\"a\": nope}").is_err());
    }

    #[test]
    fn shortest_roundtrip_floats_are_exact() {
        // The property the equality test rides on: Rust's f64 Display is
        // shortest-round-trip.
        for v in [0.1, 1.0 / 3.0, 2431.0, f64::MIN_POSITIVE, 1e300] {
            let s = num(v);
            assert_eq!(s.parse::<f64>().expect("parses"), v);
        }
        assert_eq!(num(f64::NAN), "0", "non-finite clamps");
    }
}
