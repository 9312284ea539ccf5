//! The evaluation's sections, declared once and rendered by one function.
//!
//! Every figure id has one entry in [`FIGURES`]: its runner and its
//! [`Section`] — a title, a lead line (the paper's sentence or a
//! description), the tables (rows drawn from scenario names, columns as
//! cell functions over key paths) and the paper's [`Claim`]s. [`render`]
//! turns a section and the scenarios of a report into markdown. `figures`
//! prints it for each id it runs; `expgen` writes every section, the
//! cross-run ones after the figures, into `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run --release -p hyperloop-bench --bin figures -- all --json out/
//! cargo run --release -p hyperloop-bench --bin expgen -- out -o EXPERIMENTS.md
//! ```
//!
//! A claim computes its verdict from the report: a measure over the
//! section's scenarios, checked against a [`Band`] read from the paper's
//! wording. [`mismatches`] lists every claim whose computed verdict
//! differs from its declared one; `expgen` exits 1 on any, so a re-ratchet
//! of the simulated numbers cannot flip a claim unnoticed.
//!
//! `expgen --check EXPERIMENTS.md` also fails on structural drift: a
//! generated section heading missing from the committed doc, a missing
//! generation marker, or a non-finite cell. CI runs it against the quick
//! reports of all fourteen ids.
//!
//! Every report is checked against [`crate::report::DOCUMENT`] before a
//! cell is read, and cells are read by key path from the checked tree, so
//! expgen renders exactly what benchcheck accepts.

use crate::report::{check_report, Report, TAILSCOPE};
use crate::{appbench, figures, hostperf, migrate, mongo2, shardscale, txnmix};
use simcore::jsonw::{parse, parse_prefix, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Marker proving the committed doc was machine-produced.
pub const MARKER: &str =
    "<!-- GENERATED by expgen from BENCH_*.json — numeric cells are computed, not hand-typed. -->";

/// One scenario of a checked `BENCH_*.json` report.
#[derive(Debug, Clone)]
pub struct Scn {
    /// Scenario name, e.g. `fig8a/1024B/HyperLoop`.
    pub name: String,
    /// The scenario object, checked against [`crate::report::SCENARIO`].
    pub tree: JsonValue,
    /// Counter-track samples (time-ordered values per track name), folded
    /// out of the scenario's `TRACE_*.json` by [`attach_tracks`].
    pub tracks: BTreeMap<String, Vec<f64>>,
}

impl Scn {
    /// The number at a key path from the scenario root.
    pub fn num(&self, path: &[&str]) -> Option<f64> {
        self.tree.at(path)?.as_f64()
    }

    /// The integer at a key path from the scenario root.
    pub fn count(&self, path: &[&str]) -> Option<u64> {
        self.tree.at(path)?.as_u64()
    }

    /// A latency field in ns (`mean`, `p50`, `p95`, `p99`, ...).
    pub fn lat(&self, field: &str) -> Option<f64> {
        self.num(&["latency", &format!("{field}_ns")])
    }

    /// A gauge value.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.num(&["gauges", key])
    }

    /// A host-profile value by dotted path (`ops_per_sec`, `queue.pushed`,
    /// `obs_tax.overhead_pct`, ...).
    pub fn host(&self, key: &str) -> Option<f64> {
        let path: Vec<&str> = std::iter::once("host").chain(key.split('.')).collect();
        self.num(&path)
    }

    /// One field of every `series` point of `shard`, oldest first.
    pub fn series(&self, shard: u64, key: &str) -> Vec<f64> {
        let shards = self.tree.get("series").map(|s| s.items("shards"));
        shards
            .unwrap_or_default()
            .iter()
            .filter(|s| s.get("shard").and_then(JsonValue::as_u64) == Some(shard))
            .flat_map(|s| s.items("points"))
            .filter_map(|p| p.get(key)?.as_f64())
            .collect()
    }

    /// The `tail` cause with the most tail ops (ties break on the
    /// lexicographically first label), or `None` when there are none.
    pub fn dominant_cause(&self) -> Option<(&str, u64)> {
        self.tree
            .at(&["tail", "causes"])?
            .as_obj()?
            .iter()
            .filter_map(|(label, n)| Some((label.as_str(), n.as_u64()?)))
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(label, n)| (n, std::cmp::Reverse(label)))
    }
}

/// Checks one `BENCH_*.json` document and returns its scenarios.
///
/// # Errors
///
/// Returns the parse error, or the first check failure (naming the
/// scenario and the key).
pub fn parse_report(text: &str) -> Result<Vec<Scn>, String> {
    let root = parse(text).map_err(|e| e.to_string())?;
    check_report(&root)?;
    Ok(scenarios(&root))
}

/// The scenarios `rep` recorded from index `from` on, read back through
/// the same tree a written report parses into.
///
/// # Panics
///
/// Panics if the report's own JSON does not parse.
pub fn recorded(rep: &Report, from: usize) -> Vec<Scn> {
    let root = parse(&rep.to_json()).expect("a report's own JSON parses");
    scenarios(&root).split_off(from)
}

fn scenarios(root: &JsonValue) -> Vec<Scn> {
    root.items("scenarios")
        .iter()
        .map(|s| Scn {
            name: s
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            tree: s.clone(),
            tracks: BTreeMap::new(),
        })
        .collect()
}

/// Parses the `"ph":"C"` counter events out of one Chrome-trace JSON
/// document (`TRACE_*.json`), returning time-ordered values per track
/// name. Only the counter events are parsed: a trace holds hundreds of
/// thousands of span events, and a tree of them all costs about ten
/// times the file's bytes. Every event object opens with its `ph` key, as
/// the trace writers put it; raw quotes cannot occur inside a JSON
/// string, so `{"ph":"C"` only ever opens a counter event.
///
/// # Errors
///
/// Returns the parse error text for a malformed counter event, or when
/// the document does not open a `traceEvents` array.
pub fn parse_counter_tracks(text: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    if !text.starts_with("{\"traceEvents\":[") {
        return Err("trace has no traceEvents array".into());
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (start, _) in text.match_indices("{\"ph\":\"C\"") {
        let (ev, _) = parse_prefix(&text[start..]).map_err(|e| format!("{e:?}"))?;
        let (Some(name), Some(value)) = (
            ev.get("name").and_then(|v| v.as_str()),
            ev.at(&["args", "value"]).and_then(JsonValue::as_f64),
        ) else {
            continue;
        };
        out.entry(name.to_string()).or_default().push(value);
    }
    Ok(out)
}

/// Folds the counter tracks of each scenario's Chrome trace in `dir`,
/// `TRACE_<name>.json` with the name's `/` flattened to `_` (as the trace
/// sink writes it), into the scenario. Scenarios without a trace keep no
/// tracks. Returns how many traces were folded.
///
/// # Errors
///
/// Returns the file and the reason for a malformed trace.
pub fn attach_tracks(dir: &Path, scns: &mut [Scn]) -> Result<usize, String> {
    let mut folded = 0;
    for scn in scns.iter_mut() {
        let path = dir.join(format!("TRACE_{}.json", scn.name.replace('/', "_")));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        scn.tracks = parse_counter_tracks(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        folded += 1;
    }
    Ok(folded)
}

/// Renders a value series as a fixed-height unicode sparkline (at most 24
/// glyphs; longer series are max-pooled into buckets). An empty series
/// renders as an empty string — callers skip the row.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    const WIDTH: usize = 24;
    if values.is_empty() {
        return String::new();
    }
    let bucket = values.len().div_ceil(WIDTH);
    let pooled: Vec<f64> = values
        .chunks(bucket)
        .map(|c| c.iter().copied().fold(f64::MIN, f64::max))
        .collect();
    let max = pooled.iter().copied().fold(0.0f64, f64::max);
    pooled
        .iter()
        .map(|&v| {
            if max <= 0.0 || !v.is_finite() {
                GLYPHS[0]
            } else {
                let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
                GLYPHS[idx]
            }
        })
        .collect()
}

/// Formats a nanosecond quantity as `12.3 us` / `4.56 ms`.
pub fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        return "n/a".into();
    }
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.1} us", ns / 1e3)
    }
}

/// Formats a per-second rate in thousands, one decimal.
pub fn fmt_kops(v: f64) -> String {
    format!("{:.1}", v / 1e3)
}

/// Formats a ratio as `845.9x`.
pub fn fmt_ratio(v: f64) -> String {
    if !v.is_finite() {
        return "n/a".into();
    }
    format!("{v:.1}x")
}

/// Formats a fraction as a whole percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// One figure id: the runner that records its scenarios and the section
/// that renders them.
#[derive(Debug)]
pub struct Figure {
    /// The id `figures` takes on its command line.
    pub id: &'static str,
    /// Runs the figure's arms into the report (`quick` cuts op counts).
    pub run: fn(&mut Report, bool),
    /// What the doc and `figures` print for it.
    pub section: &'static Section,
}

/// Every figure id, in run order, which is also the doc's section order.
pub const FIGURES: &[Figure] = &[
    fig("fig2a", mongo2::fig2a, &mongo2::FIG2A),
    fig("fig2b", mongo2::fig2b, &mongo2::FIG2B),
    fig("fig8a", figures::fig8a, &figures::FIG8A),
    fig("fig8b", figures::fig8b, &figures::FIG8B),
    fig("table2", figures::table2, &figures::TABLE2),
    fig("fig9", figures::fig9, &figures::FIG9),
    fig("fig10", figures::fig10, &figures::FIG10),
    fig("fig11", appbench::fig11, &appbench::FIG11),
    fig("fig12", appbench::fig12, &appbench::FIG12),
    fig("shardscale", shardscale::shardscale, &shardscale::SECTION),
    fig("migrate", migrate::migrate, &migrate::SECTION),
    fig("hostperf", hostperf::hostperf, &hostperf::SECTION),
    fig("txnmix", txnmix::txnmix, &txnmix::SECTION),
    fig("ablations", appbench::ablations, &appbench::ABLATIONS),
];

const fn fig(id: &'static str, run: fn(&mut Report, bool), section: &'static Section) -> Figure {
    Figure { id, run, section }
}

/// One `##` section of the doc.
#[derive(Debug)]
pub struct Section {
    /// The heading.
    pub title: &'static str,
    /// The paragraph under the heading: `Paper: ...` quoting the paper, or
    /// a description. Empty for none.
    pub lead: &'static str,
    /// The tables, in order; a table without rows is left out.
    pub tables: &'static [Table],
    /// The paper's (or the design's) claims, each rendered as a verdict
    /// line after the tables.
    pub claims: &'static [Claim],
    /// A closing description after the verdict lines. Empty for none.
    pub note: &'static str,
}

/// One table of a section.
#[derive(Debug)]
pub struct Table {
    /// A paragraph before the table. Empty for none.
    pub intro: &'static str,
    /// Which scenarios make the rows.
    pub rows: Rows,
    /// Sparkline tracks: when set, each row becomes one row per track
    /// that has values.
    pub tracks: &'static [Track],
    /// A markdown grid, or one sentence per row.
    pub layout: Layout,
    /// Prefix of every grid line (a table nested in a bullet).
    pub indent: &'static str,
}

impl Table {
    /// A plain grid of `cols` over `rows`.
    pub const fn grid(rows: Rows, cols: &'static [Col]) -> Table {
        Table {
            intro: "",
            rows,
            tracks: &[],
            layout: Layout::Grid(cols),
            indent: "",
        }
    }

    fn rows<'a>(&self, all: &'a [Scn]) -> Vec<Row<'a>> {
        let rows = self.rows.of(all);
        if self.tracks.is_empty() {
            return rows;
        }
        let mut out = Vec::new();
        for row in rows {
            for t in self.tracks {
                let values = (t.values)(row.scns[0], t.key);
                let peak = values.iter().copied().fold(0.0f64, f64::max);
                if !values.is_empty() && peak.is_finite() {
                    out.push(Row {
                        track: Some((t, values)),
                        ..row.clone()
                    });
                }
            }
        }
        out
    }
}

/// How a table lays out its rows.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// A markdown grid with these columns.
    Grid(&'static [Col]),
    /// One bullet sentence per row.
    Sentence(fn(&Row<'_>) -> String),
}

/// One grid column: its header and its cell.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    /// The header cell.
    pub head: &'static str,
    /// The cell of one row.
    pub cell: fn(&Row<'_>) -> String,
}

/// A column (for terse declarations).
pub const fn col(head: &'static str, cell: fn(&Row<'_>) -> String) -> Col {
    Col { head, cell }
}

/// A sparkline track: a labelled value series read from each row's
/// scenario.
#[derive(Debug)]
pub struct Track {
    /// The track column's text.
    pub label: &'static str,
    /// The series key handed to `values`.
    pub key: &'static str,
    /// Reads the series.
    pub values: fn(&Scn, &str) -> Vec<f64>,
    /// Formats the series peak.
    pub peak: fn(f64) -> String,
}

/// A counter track folded from the scenario's `TRACE_*.json`.
pub const fn counter_track(label: &'static str, key: &'static str) -> Track {
    Track {
        label,
        key,
        values: |s, k| s.tracks.get(k).cloned().unwrap_or_default(),
        peak: |p| format!("{p:.0}"),
    }
}

/// The scenarios a table's rows read.
#[derive(Debug, Clone, Copy)]
pub enum Rows {
    /// One row per scenario under `prefix` whose value at key path
    /// `carrying` is present (and non-zero, for a number); the row's key
    /// is the rest of the scenario name.
    Each {
        /// Scenario-name prefix.
        prefix: &'static str,
        /// Key path that must be present; empty for every scenario.
        carrying: &'static [&'static str],
    },
    /// One row per name segment after `prefix`, in order of appearance,
    /// reading the scenario `<prefix><segment>/<arm>` of every arm; a
    /// segment missing an arm has no row.
    Sweep {
        /// Scenario-name prefix.
        prefix: &'static str,
        /// The arm suffixes, in column order.
        arms: &'static [&'static str],
    },
    /// Rows a function picks (a table whose rows are not one scenario
    /// family).
    Listed(fn(&[Scn]) -> Vec<Row<'_>>),
}

/// Every scenario under `prefix`.
pub const fn each(prefix: &'static str) -> Rows {
    carrying(prefix, &[])
}

/// Every scenario under `prefix` carrying key path `path`.
pub const fn carrying(prefix: &'static str, path: &'static [&'static str]) -> Rows {
    Rows::Each {
        prefix,
        carrying: path,
    }
}

/// A sweep over the segment after `prefix`, one scenario per arm.
pub const fn sweep(prefix: &'static str, arms: &'static [&'static str]) -> Rows {
    Rows::Sweep { prefix, arms }
}

impl Rows {
    /// The rows over `all`.
    pub fn of<'a>(&self, all: &'a [Scn]) -> Vec<Row<'a>> {
        // A number must be non-zero to count as carried.
        let carried = |v: &JsonValue| v.as_f64().is_none_or(|n| n != 0.0);
        match *self {
            Rows::Each { prefix, carrying } => all
                .iter()
                .filter(|s| carrying.is_empty() || s.tree.at(carrying).is_some_and(carried))
                .filter_map(|s| Some(Row::new(s.name.strip_prefix(prefix)?, vec![s], all)))
                .collect(),
            Rows::Sweep { prefix, arms } => {
                let mut segs: Vec<&str> = Vec::new();
                for s in all {
                    let seg = s
                        .name
                        .strip_prefix(prefix)
                        .and_then(|r| r.split('/').next());
                    if let Some(seg) = seg.filter(|g| !g.is_empty() && !segs.contains(g)) {
                        segs.push(seg);
                    }
                }
                segs.into_iter()
                    .filter_map(|seg| {
                        let scns = arms
                            .iter()
                            .map(|arm| find(all, &format!("{prefix}{seg}/{arm}")))
                            .collect::<Option<Vec<_>>>()?;
                        Some(Row::new(seg, scns, all))
                    })
                    .collect()
            }
            Rows::Listed(pick) => pick(all),
        }
    }

    /// `value` of every row over `all`.
    pub fn values(&self, all: &[Scn], value: fn(&Row<'_>) -> f64) -> Vec<f64> {
        self.of(all).iter().map(value).collect()
    }

    /// The largest `value` over the rows; empty when there are none.
    pub fn max(&self, all: &[Scn], value: fn(&Row<'_>) -> f64) -> Vec<f64> {
        let rows = self.of(all);
        rows.iter()
            .map(value)
            .reduce(f64::max)
            .into_iter()
            .collect()
    }
}

/// The scenario named `name`.
pub fn find<'a>(all: &'a [Scn], name: &str) -> Option<&'a Scn> {
    all.iter().find(|s| s.name == name)
}

/// One table row.
#[derive(Debug, Clone)]
pub struct Row<'a> {
    /// The row's key: the sweep segment, or the scenario name past the
    /// prefix.
    pub key: String,
    /// The row's scenarios, one per arm.
    pub scns: Vec<&'a Scn>,
    /// Every scenario of the report, for cells normalized over a sweep.
    pub all: &'a [Scn],
    /// On a track row: the track and its series.
    pub track: Option<(&'static Track, Vec<f64>)>,
}

impl<'a> Row<'a> {
    /// A row of `scns` keyed `key`.
    pub fn new(key: &str, scns: Vec<&'a Scn>, all: &'a [Scn]) -> Row<'a> {
        Row {
            key: key.to_string(),
            scns,
            all,
            track: None,
        }
    }

    /// Latency `field` of arm `arm`, NaN when absent.
    pub fn lat(&self, arm: usize, field: &str) -> f64 {
        self.scns[arm].lat(field).unwrap_or(f64::NAN)
    }

    /// Gauge `key` of arm `arm`, NaN when absent.
    pub fn gauge(&self, arm: usize, key: &str) -> f64 {
        self.scns[arm].gauge(key).unwrap_or(f64::NAN)
    }

    fn track(&self) -> (&'static Track, &[f64]) {
        let (t, values) = self.track.as_ref().expect("a track row");
        (t, values)
    }
}

/// The track label of a track row.
pub fn track_label(r: &Row<'_>) -> String {
    r.track().0.label.to_string()
}

/// The peak of a track row's series.
pub fn track_peak(r: &Row<'_>) -> String {
    let (t, values) = r.track();
    (t.peak)(values.iter().copied().fold(0.0f64, f64::max))
}

/// The sparkline of a track row's series.
pub fn track_line(r: &Row<'_>) -> String {
    sparkline(r.track().1)
}

/// A claim: a sentence, checked against the report.
#[derive(Debug)]
pub struct Claim {
    /// The paper's sentence (or the design's, in a section that does not
    /// quote the paper).
    pub says: &'static str,
    /// The measured values, from the section's scenarios; empty when the
    /// report does not carry them.
    pub measure: fn(&[Scn]) -> Vec<f64>,
    /// Where the values must lie, read from the sentence's wording.
    pub band: Band,
    /// Formats one value (and the band's bounds).
    pub unit: fn(f64) -> String,
    /// The verdict the claim is declared to have.
    pub verdict: Verdict,
}

/// Where a claim's values must lie.
#[derive(Debug, Clone, Copy)]
pub enum Band {
    /// Within a factor of ten of the paper's value ("order of magnitude").
    Order(f64),
    /// Within 10% of the paper's value ("similar").
    Similar(f64),
    /// The largest value at most this fraction above the smallest
    /// ("flat").
    Flat(f64),
    /// Every value at least this.
    AtLeast(f64),
    /// Every value below this.
    Under(f64),
    /// Each value at least the one before it.
    Rising,
    /// Each value at most the one before it.
    Falling,
}

impl Band {
    fn holds(self, v: &[f64]) -> bool {
        let all = |f: &dyn Fn(f64) -> bool| v.iter().all(|&x| f(x));
        let (lo, hi) = min_max(v);
        match self {
            Band::Order(p) => all(&|x| x >= p / 10.0 && x <= p * 10.0),
            Band::Similar(p) => all(&|x| x >= p * 0.9 && x <= p * 1.1),
            Band::Flat(f) => hi <= lo * (1.0 + f),
            Band::AtLeast(b) => all(&|x| x >= b),
            Band::Under(b) => all(&|x| x < b),
            Band::Rising => v.windows(2).all(|w| w[1] >= w[0]),
            Band::Falling => v.windows(2).all(|w| w[1] <= w[0]),
        }
    }

    fn text(self, unit: fn(f64) -> String) -> String {
        match self {
            Band::Order(p) => format!("{}–{}", unit(p / 10.0), unit(p * 10.0)),
            Band::Similar(p) => format!("{}–{}", unit(p * 0.9), unit(p * 1.1)),
            Band::Flat(f) => format!("within {:.0}%", f * 100.0),
            Band::AtLeast(b) => format!("at least {}", unit(b)),
            Band::Under(b) => format!("under {}", unit(b)),
            Band::Rising => "rising at every step".into(),
            Band::Falling => "falling at every step".into(),
        }
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// A claim's declared verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The report bears the claim out.
    Holds,
    /// The report contradicts the claim; the one-line cause.
    Diverges(&'static str),
    /// Quick and full-size runs read differently; the cause names both
    /// readings. Either computed verdict passes.
    Unsettled(&'static str),
}

/// A claim evaluated on a report.
#[derive(Debug)]
pub struct Reading {
    /// The figure (or cross-run section) the claim belongs to.
    pub id: &'static str,
    /// The claim.
    pub claim: &'static Claim,
    /// The measured values, formatted.
    pub measured: String,
    /// The band, formatted.
    pub band: String,
    /// The computed verdict: true when the values lie in the band.
    pub holds: bool,
}

impl Reading {
    /// Evaluates `claim` of section `id` on `all`; `None` when the report
    /// does not carry what it measures.
    pub fn of(id: &'static str, claim: &'static Claim, all: &[Scn]) -> Option<Reading> {
        let values = (claim.measure)(all);
        if values.is_empty() {
            return None;
        }
        let unit = claim.unit;
        let measured = match claim.band {
            Band::Rising | Band::Falling => values
                .iter()
                .map(|&v| unit(v))
                .collect::<Vec<_>>()
                .join(" → "),
            _ => {
                let (lo, hi) = min_max(&values);
                let (lo, hi) = (unit(lo), unit(hi));
                if lo == hi {
                    lo
                } else {
                    format!("{lo}–{hi}")
                }
            }
        };
        Some(Reading {
            id,
            claim,
            measured,
            band: claim.band.text(unit),
            holds: claim.band.holds(&values),
        })
    }

    /// The computed verdict's word.
    pub fn computed(&self) -> &'static str {
        if self.holds {
            "holds"
        } else {
            "diverges"
        }
    }

    /// True when the computed verdict is the declared one.
    pub fn agrees(&self) -> bool {
        match self.claim.verdict {
            Verdict::Holds => self.holds,
            Verdict::Diverges(_) => !self.holds,
            Verdict::Unsettled(_) => true,
        }
    }

    fn line(&self) -> String {
        let c = self.claim;
        let verdict = match c.verdict {
            Verdict::Holds => format!("**{}**.", self.computed()),
            Verdict::Diverges(cause) => format!("**{}** — {cause}.", self.computed()),
            Verdict::Unsettled(cause) => format!("**{}** (unsettled: {cause}).", self.computed()),
        };
        format!(
            "Claim: {} Measured {}; band {}: {verdict}",
            c.says, self.measured, self.band
        )
    }
}

/// Renders `section` over the scenarios `all`: heading, lead, every table
/// with rows, one verdict line per evaluable claim, and the note. A
/// section with no rows at all renders as nothing.
pub fn render(id: &'static str, section: &'static Section, all: &[Scn]) -> String {
    let tables: Vec<(&Table, Vec<Row<'_>>)> =
        section.tables.iter().map(|t| (t, t.rows(all))).collect();
    if tables.iter().all(|(_, rows)| rows.is_empty()) {
        return String::new();
    }
    let mut out = format!("\n## {}\n", section.title);
    if !section.lead.is_empty() {
        let _ = writeln!(out, "\n{}\n", section.lead);
    }
    for (t, rows) in tables.iter().filter(|(_, rows)| !rows.is_empty()) {
        if !t.intro.is_empty() {
            let _ = writeln!(out, "\n{}\n", t.intro);
        }
        match t.layout {
            Layout::Grid(cols) => {
                let line = |cells: Vec<String>| {
                    let mut l = format!("{}|", t.indent);
                    for c in cells {
                        // An empty header cell renders `| |`.
                        let _ = write!(l, "{}{c} |", if c.is_empty() { "" } else { " " });
                    }
                    l
                };
                let _ = writeln!(
                    out,
                    "{}",
                    line(cols.iter().map(|c| c.head.into()).collect())
                );
                let _ = writeln!(out, "{}|{}", t.indent, "---|".repeat(cols.len()));
                for r in rows {
                    let _ = writeln!(out, "{}", line(cols.iter().map(|c| (c.cell)(r)).collect()));
                }
            }
            Layout::Sentence(say) => {
                for r in rows {
                    let _ = writeln!(out, "\n{}", say(r));
                }
            }
        }
    }
    for c in section.claims {
        if let Some(reading) = Reading::of(id, c, all) {
            let _ = writeln!(out, "\n{}", reading.line());
        }
    }
    if !section.note.is_empty() {
        let _ = writeln!(out, "\n{}", section.note);
    }
    out
}

/// The integer at `path` of the row's scenario.
fn count(r: &Row<'_>, path: &[&str]) -> String {
    r.scns[0]
        .count(path)
        .map_or("n/a".into(), |n| n.to_string())
}

/// The nanoseconds at `path` of the row's scenario.
fn ns(r: &Row<'_>, path: &[&str]) -> String {
    fmt_ns(r.scns[0].num(path).unwrap_or(f64::NAN))
}

/// The sections that read blocks every runner family writes, rendered
/// after the figures.
const CROSS_RUN: [(&str, &Section); 4] = [
    ("aborts", &ABORTS),
    ("tail", &TAIL),
    ("series", &SERIES),
    ("attribution", &ATTRIBUTION),
];

/// Every section, with its id, in doc order.
pub fn sections() -> impl Iterator<Item = (&'static str, &'static Section)> {
    FIGURES.iter().map(|f| (f.id, f.section)).chain(CROSS_RUN)
}

const ABORT_ROWS: Rows = carrying("txnmix/", &["abort_causes"]);

const ABORTS: Section = Section {
    title: "Abort causes (txnmix)",
    lead: "Every aborted transaction carries exactly one root cause: `lock_conflict` (a gCAS lock round lost to a live holder), `validation_failed` (a version word moved between a buffered read and its validation — both commit paths validate reads, the locking path under its locks), or `backoff_exhausted` (the retry budget ran out without a live holder to blame). Counts are lifted verbatim from each scenario's `abort_causes` block; the three causes sum to the aborts column, which benchcheck pins to the `txn.aborted` counter.",
    tables: &[Table::grid(
        ABORT_ROWS,
        &[
            col("mode", txnmix::mode),
            col("theta", txnmix::theta),
            col("aborts", |r| count(r, &["abort_causes", "total"])),
            col("lock_conflict", |r| count(r, &["abort_causes", "lock_conflict"])),
            col("validation_failed", |r| count(r, &["abort_causes", "validation_failed"])),
            col("backoff_exhausted", |r| count(r, &["abort_causes", "backoff_exhausted"])),
        ],
    )],
    claims: &[
        Claim {
            says: "Validation failures dominate the aborts on both paths.",
            measure: |all| {
                let share = |s: &Scn| {
                    let n = |k| s.count(&["abort_causes", k]).unwrap_or(0) as f64;
                    (n("total") > 0.0).then(|| n("validation_failed") / n("total"))
                };
                ABORT_ROWS.of(all).iter().filter_map(|r| share(r.scns[0])).collect()
            },
            band: Band::AtLeast(0.5),
            unit: fmt_pct,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "There are more `lock_conflict` aborts at theta 0.99 than at 0.5 on both paths.",
            measure: |all| {
                txnmix::per_mode(all, |lo, hi| {
                    let n = |s: &Scn| s.num(&["abort_causes", "lock_conflict"]).unwrap_or(0.0);
                    n(hi) - n(lo)
                })
            },
            band: Band::AtLeast(1.0),
            unit: |v| format!("{v:+.0}"),
            verdict: Verdict::Holds,
        },
    ],
    note: "",
};

const TAIL_ROWS: Rows = carrying("", &["tail", "ops"]);

/// Each scenario's share of tail ops attributed to `cause`, over the
/// scenarios under `prefixes` that have tail ops.
fn cause_shares(all: &[Scn], prefixes: &[&str], cause: &str) -> Vec<f64> {
    let rows = TAIL_ROWS.of(all);
    rows.iter()
        .filter(|r| prefixes.iter().any(|p| r.key.starts_with(p)))
        .filter_map(|r| {
            let s = r.scns[0];
            let tail_ops = s.num(&["tail", "tail_ops"]).filter(|&n| n > 0.0)?;
            Some(s.num(&["tail", "causes", cause])? / tail_ops)
        })
        .collect()
}

const TAIL: Section = Section {
    title: "Tail root causes (tailscope)",
    lead: "Every traced scenario folds its span trees into tail exemplars: ops at or beyond the *exact* population p99 (and above the median — ties at the quantile count, since deterministic latencies quantise), each attributed to exactly one normative cause (`migration_pause` > `txn_backoff` > `lock_wait` > `replica_straggler` > `queue_wait` > `flow_control_stall` > `residual`, in precedence order). Counts sum to the tail-op column by construction — benchcheck re-checks the sum and the per-exemplar excess tiling. The per-exemplar detail (stage-by-stage excess vs the population medians) lands in `TAIL_*.json` next to the traces.",
    tables: &[Table::grid(
        TAIL_ROWS,
        &[
            col("scenario", |r| r.key.clone()),
            col("ops", |r| count(r, &["tail", "ops"])),
            col("tail ops", |r| count(r, &["tail", "tail_ops"])),
            col("median", |r| ns(r, &["tail", "median_e2e_ns"])),
            col("p99", |r| ns(r, &["tail", "p99_ns"])),
            col("dominant cause", |r| {
                r.scns[0]
                    .dominant_cause()
                    .map_or("none".into(), |(label, n)| format!("{label} ({n})"))
            }),
        ],
    )],
    claims: &[
        Claim {
            says: "`migration_pause` is the dominant tail cause of every live-migration arm.",
            measure: |all| {
                let rows = TAIL_ROWS.of(all);
                let arms: Vec<_> = rows.iter().filter(|r| r.key.starts_with("migrate/")).collect();
                let paused = arms.iter().filter(|r| {
                    r.scns[0].dominant_cause().map(|(c, _)| c) == Some("migration_pause")
                });
                let share = paused.count() as f64 / arms.len() as f64;
                (!arms.is_empty()).then_some(share).into_iter().collect()
            },
            band: Band::AtLeast(1.0),
            unit: fmt_pct,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "`residual` dominates no tail of the sweeps beyond the paper (shardscale, migrate, hostperf, txnmix).",
            measure: |all| cause_shares(all, &TAILSCOPE, "residual"),
            band: Band::Under(0.5),
            unit: fmt_pct,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "`residual` dominates no tail of the paper's microbenchmarks (Figs. 8-10, Table 2).",
            measure: |all| {
                cause_shares(all, &["fig8a/", "fig8b/", "table2/", "fig9/", "fig10/"], "residual")
            },
            band: Band::Under(0.5),
            unit: fmt_pct,
            verdict: Verdict::Diverges("open"),
        },
    ],
    note: "A residual-dominated profile means the trace is missing a stage.",
};

const SERIES: Section = Section {
    title: "Windowed telemetry (tailscope series)",
    lead: "Each scenario samples per-shard throughput, latency quantiles, window occupancy and pen depth at every `HealthMonitor` tick into a bounded ring; the full series is exported in the `series` block, as Perfetto counter tracks in traced runs, and sketched here for shard 0 (the migrating shard in `migrate/*`, an arbitrary-but-fixed shard elsewhere). Timestamps are strictly monotonic per shard — benchcheck gates on it.",
    tables: &[Table {
        tracks: &[
            Track {
                label: "throughput (shard 0)",
                key: "ops_per_sec",
                values: |s, k| s.series(0, k),
                peak: |p| format!("{p:.0}/s"),
            },
            Track {
                label: "p99 (shard 0)",
                key: "p99_ns",
                values: |s, k| s.series(0, k),
                peak: fmt_ns,
            },
        ],
        ..Table::grid(
            carrying("", &["series"]),
            &[
                col("scenario", |r| r.key.clone()),
                col("track", track_label),
                col("peak", track_peak),
                col("over time", track_line),
            ],
        )
    }],
    claims: &[],
    note: "A sawtooth in a p99 track is the background-tenant burst cycle showing through.",
};

const ATTRIBUTION: Section = Section {
    title: "Critical-path attribution (simprof)",
    lead: "Per-stage latency folded over every traced op: each row's stage means tile the mean end-to-end latency exactly (the `stage_mean_sum` column equals `mean e2e` by construction). The dominant path is the stage signature most ops take.",
    tables: &[Table::grid(
        carrying("", &["stage_attribution", "ops"]),
        &[
            col("scenario", |r| r.key.clone()),
            col("ops", |r| count(r, &["stage_attribution", "ops"])),
            col("mean e2e", |r| ns(r, &["stage_attribution", "mean_e2e_ns"])),
            col("stage_mean_sum", |r| ns(r, &["stage_attribution", "stage_mean_sum_ns"])),
            col("top stage (share)", |r| {
                let stages = r.scns[0].tree.at(&["stage_attribution", "stages"]);
                stages
                    .and_then(JsonValue::as_obj)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(label, st)| Some((label, st.get("share")?.as_f64()?)))
                    .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map_or("n/a".into(), |(l, share)| format!("{l} ({})", fmt_pct(share)))
            }),
            col("dominant-path share", |r| {
                let share = r.scns[0].num(&["stage_attribution", "dominant_path", "share"]);
                share.map_or("n/a".into(), fmt_pct)
            }),
        ],
    )],
    claims: &[],
    note: "",
};

const INTRO: &str = "
Every table below is regenerated from `BENCH_*.json` benchmark reports:

```text
cargo run --release -p hyperloop-bench --bin figures -- all --json out/
cargo run --release -p hyperloop-bench --bin expgen -- out -o EXPERIMENTS.md
```

Absolute numbers are not expected to match the paper — the substrate is
a simulator, not the authors' ConnectX-3 testbed — but the *shape* (who
wins, by what order of magnitude, and where trends bend) is the
reproduction target. Simulation parameters are calibrated once, globally,
as constants beside each model (NIC ~250 ns descriptor fetch, 56 Gbps
wire, 5 us wake-up; DESIGN.md's Calibration table lists them all), not
per experiment; the loaded experiments put 96 bursty tenants on each
replica machine. The one parameter that differs by figure family is the
scheduler's effective time slice: 6 ms under the hundreds-of-processes
load of Figs. 8-12, Table 2, the ablations and hostperf, 3 ms in Fig. 2,
and the 1 ms default on the unloaded shardscale, migrate and txnmix
clusters. Each claim's verdict is computed from the report by `expgen`,
which fails when it differs from the declared one; the table at the end
lists every claim.
";

const METHODOLOGY: &str = "
## Methodology notes

* All runs are deterministic given the seed in each runner.
* Latency experiments pace one op per ~300 us so the run samples many
  background-tenant burst cycles.
* Figure 9 uses the paper's best-case baseline: pinned polling replicas,
  no co-located tenants, plain gWRITE (no interleaved flush).
* The figure-2/11/12 baselines charge MongoDB/RocksDB-like per-op CPU
  costs; see `baseline::NaiveCosts` and `mongo2::mongo_costs`.
* YCSB workload mixes are implemented exactly as specified and asserted
  by unit tests in the `ycsb` crate.
";

/// Every claim the scenarios let [`Reading::of`] evaluate, in doc order.
pub fn readings(scns: &[Scn]) -> Vec<Reading> {
    sections()
        .flat_map(|(id, s)| s.claims.iter().map(move |c| (id, c)))
        .filter_map(|(id, c)| Reading::of(id, c, scns))
        .collect()
}

/// The claims whose computed verdict differs from the declared one, each
/// naming its figure, its sentence, the measured value and the band.
pub fn mismatches(scns: &[Scn]) -> Vec<String> {
    readings(scns)
        .iter()
        .filter(|r| !r.agrees())
        .map(|r| {
            format!(
                "{}: claim \"{}\" {} (measured {}, band {}) but is declared {}",
                r.id,
                r.claim.says,
                r.computed(),
                r.measured,
                r.band,
                if r.holds { "diverging" } else { "to hold" }
            )
        })
        .collect()
}

/// Generates the full EXPERIMENTS.md text from the parsed scenarios.
/// Sections appear iff their scenarios are present in the reports, so a
/// quick CI report regenerates a subset of the full document; the claims
/// table lists every claim the reports let it evaluate.
pub fn generate(scns: &[Scn]) -> String {
    let mut out = format!("# EXPERIMENTS — paper vs. measured\n\n{MARKER}\n{INTRO}");
    for (id, section) in sections() {
        out += &render(id, section, scns);
    }
    out += METHODOLOGY;
    let readings = readings(scns);
    if !readings.is_empty() {
        out += "\n## Claims\n\nEach claim is declared once, beside its figure's runner: the sentence, a measure over the report, a band read from the sentence's wording, and a verdict. Its section's verdict line carries the cause of a divergence.\n\n| figure | claim | measured | band | verdict |\n|---|---|---|---|---|\n";
        for r in &readings {
            let unsettled = matches!(r.claim.verdict, Verdict::Unsettled(_));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {}{} |",
                r.id,
                r.claim.says,
                r.measured,
                r.band,
                r.computed(),
                if unsettled { " (unsettled)" } else { "" }
            );
        }
    }
    out
}

/// Validates the committed doc against a regeneration from the available
/// reports. The regenerated sections must be a subset of the committed
/// ones (CI regenerates from a quick run, whose doc can lack a
/// traces-only table), the committed doc must carry the generation
/// marker, and neither side may contain a non-finite table cell.
///
/// # Errors
///
/// Returns a list of human-readable structural-drift findings.
pub fn check(committed: &str, regenerated: &str) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    if !committed.contains(MARKER) {
        errs.push(
            "committed EXPERIMENTS.md is missing the expgen marker (hand-written or stale)".into(),
        );
    }
    for line in regenerated.lines() {
        if line.starts_with("## ") && !committed.contains(line) {
            errs.push(format!("missing section: {line}"));
        }
    }
    for (label, text) in [("committed", committed), ("regenerated", regenerated)] {
        for bad in ["NaN", "n/a", "inf |", "|  |"] {
            if text.contains(bad) {
                errs.push(format!("{label} doc contains a {bad:?} cell"));
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Report, Scenario};
    use simcore::simaudit::SeriesSummary;
    use simcore::tailprof::TailProfile;
    use simcore::Latencies;
    use simcore::SimDuration;

    fn lat(us_mean: u64) -> simcore::LatencySummary {
        let mut h = Latencies::new();
        h.record(SimDuration::from_micros(us_mean));
        h.summary()
    }

    fn host() -> simcore::HostStats {
        let queue = simcore::QueueStats {
            pushed: 9,
            popped: 9,
            max_depth: 3,
        };
        simcore::HostMeter::start().finish(500, SimDuration::from_millis(2), queue)
    }

    /// A valid report's `host` block, for the hand-written fixtures.
    fn host_json() -> String {
        let mut w = simcore::jsonw::JsonWriter::new();
        w.begin_obj();
        host().write_fields(&mut w);
        w.end_obj();
        w.finish()
    }

    /// Every scenario of these families must carry `host`, `tail` and
    /// `series` blocks to pass the report check; empty ones render
    /// nothing. The tail folds the one op of latency `us` that the
    /// scenario's `latency` records, so both quote its quantiles.
    fn observed(s: Scenario, us: u64) -> Scenario {
        s.latency(&lat(us))
            .host(host())
            .tail(TailProfile {
                ops: 1,
                p99_ns: us * 1000,
                median_e2e_ns: us * 1000,
                ..TailProfile::from_events(&[])
            })
            .series(SeriesSummary::default())
    }

    fn sample_report() -> String {
        let mut rep = Report::new("unit");
        for n in [1u32, 2] {
            rep.scenario(observed(
                Scenario::new(format!("shardscale/{n}"))
                    .system("HyperLoop")
                    .gauge("ops_per_sec", 1000.0 * n as f64)
                    .gauge("speedup", n as f64),
                10 * n as u64,
            ));
        }
        rep.scenario(observed(
            Scenario::new("migrate/2")
                .system("HyperLoop")
                .gauge("ops_per_sec", 1500.0)
                .gauge("window_tput_ratio", 0.5)
                .gauge("migration.pause_ns", 123_000.0)
                .gauge("migration.copy_bytes", (8 << 20) as f64)
                .gauge("migration.replayed", 3.0),
            15,
        ));
        rep.scenario(observed(
            Scenario::new("txnmix/locking/theta0.9")
                .system("HyperLoop")
                .gauge("ops_per_sec", 800.0)
                .gauge("abort_ratio", 0.05)
                .gauge("lock_retries", 12.0)
                .gauge("mean_span", 1.5)
                .abort_causes(vec![
                    ("lock_conflict".into(), 3),
                    ("validation_failed".into(), 0),
                    ("backoff_exhausted".into(), 1),
                ]),
            20,
        ));
        rep.scenario(observed(
            Scenario::new("hostperf/500")
                .system("HyperLoop")
                .seed(1)
                .gauge("ops_per_sec", 500.0),
            5,
        ));
        rep.to_json()
    }

    #[test]
    fn parse_and_generate_round_trip() {
        let scns = parse_report(&sample_report()).expect("parse");
        assert_eq!(scns.len(), 5);
        assert_eq!(scns[0].name, "shardscale/1");
        assert_eq!(scns[0].gauge("ops_per_sec"), Some(1000.0));
        assert_eq!(scns[0].lat("mean"), Some(10_000.0));
        // The host block parses flattened, including nested sub-blocks.
        let hp = scns.iter().find(|s| s.name == "hostperf/500").unwrap();
        assert!(hp.host("ops_per_sec").is_some_and(|v| v > 0.0));
        assert!(hp.host("queue.pushed").is_some());
        assert!(hp.host("obs_tax.overhead_pct").is_some());
        // The abort_causes block round-trips, including the computed total.
        let tx = scns
            .iter()
            .find(|s| s.name == "txnmix/locking/theta0.9")
            .unwrap();
        assert_eq!(tx.count(&["abort_causes", "lock_conflict"]), Some(3));
        assert_eq!(tx.count(&["abort_causes", "total"]), Some(4));
        let doc = generate(&scns);
        assert!(doc.contains(MARKER));
        assert!(doc.contains("## Shard scaling"));
        assert!(doc.contains("## Live migration"));
        assert!(doc.contains("## Host throughput (hostperf)"));
        assert!(doc.contains("## Abort causes (txnmix)"));
        assert!(doc.contains("| locking | 0.9 | 4 | 3 | 0 | 1 |"));
        assert!(doc.contains("| 500 | "));
        assert!(doc.contains("| 2 | 1.5 | 123.0 us | 50% | 8.0 | 3 |"));
        // Sections without scenarios are omitted entirely.
        assert!(!doc.contains("## Figure 8(a)"));
        // Deterministic.
        assert_eq!(doc, generate(&scns));
    }

    #[test]
    fn check_accepts_superset_and_rejects_drift() {
        let scns = parse_report(&sample_report()).expect("parse");
        let regen = generate(&scns);
        // The committed doc may have *more* sections (full run) — subset ok.
        let committed = regen.clone() + "\n## Extra hand-run section\n";
        assert!(check(&committed, &regen).is_ok());
        // A missing section is drift.
        let gutted = regen.replace("## Live migration", "## (gone)");
        let errs = check(&gutted, &regen).expect_err("drift");
        assert!(errs.iter().any(|e| e.contains("Live migration")));
        // A doc without the marker is hand-written.
        let errs = check("# EXPERIMENTS", &regen).expect_err("no marker");
        assert!(errs.iter().any(|e| e.contains("marker")));
    }

    #[test]
    fn non_finite_cells_are_rejected() {
        let good = format!("{MARKER}\n| 1 | 2 |");
        let bad = format!("{MARKER}\n| NaN | 2 |");
        assert!(check(&bad, &good).is_err());
        assert!(check(&good, &good).is_ok());
    }

    #[test]
    fn sparkline_pools_and_scales() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[1.0, 8.0]), "▂█");
        assert_eq!(sparkline(&[0.0, 8.0]), "▁█");
        // Long series max-pool into at most 24 glyphs.
        let long: Vec<f64> = (0..48).map(|i| i as f64).collect();
        assert_eq!(sparkline(&long).chars().count(), 24);
        // Deterministic.
        assert_eq!(sparkline(&long), sparkline(&long));
    }

    #[test]
    fn counter_tracks_fold_into_sparkline_rows() {
        let mut trace = String::from("{\"traceEvents\":[");
        for (i, v) in [0u64, 4, 16, 16, 2, 0].iter().enumerate() {
            if i > 0 {
                trace.push(',');
            }
            trace.push_str(&format!(
                "{{\"ph\":\"C\",\"name\":\"bench.shards.shard0.pen\",\"pid\":9999,\
                 \"ts\":{i}.0,\"args\":{{\"value\":{v}}}}}"
            ));
        }
        trace.push_str("],\"displayTimeUnit\":\"ns\"}");
        let tracks = parse_counter_tracks(&trace).expect("parse tracks");
        assert_eq!(tracks["bench.shards.shard0.pen"].len(), 6);

        let mut scns = parse_report(&sample_report()).expect("parse");
        let mig = scns
            .iter_mut()
            .find(|s| s.name == "migrate/2")
            .expect("migrate scenario");
        mig.tracks = tracks;
        let doc = generate(&scns);
        assert!(doc.contains("| shards | track | peak | occupancy over time |"));
        assert!(doc.contains("| 2 | pen depth (shard 0) | 16 | "));
        assert!(doc.contains('█'), "peak bucket renders at full height");
    }

    #[test]
    fn series_and_tail_parse_and_render() {
        // A neutral scenario name: the name-filtered sections (shardscale,
        // migrate, ...) would render gauge cells this minimal fixture lacks.
        let text = r#"{"schema":"hyperloop-bench/v1","tool":"unit","quick":true,
            "scenarios":[{"name":"probe/2","system":"HyperLoop","config":{},"gauges":{},
            "host":HOST,
            "series":{"bucket_ns":1000000,"shards":[{"shard":0,"points":[
                {"t_ns":1000,"ops_per_sec":10.0,"p50_ns":5,"p99_ns":9,"inflight":3,"pen":0},
                {"t_ns":2000,"ops_per_sec":2.0,"p50_ns":6,"p99_ns":20,"inflight":1,"pen":4},
                {"t_ns":3000,"ops_per_sec":12.0,"p50_ns":5,"p99_ns":8,"inflight":3,"pen":0}]}]},
            "tail":{"ops":100,"tail_ops":2,"p99_ns":900,"median_e2e_ns":400,
                "causes":{"migration_pause":2,"txn_backoff":0,"lock_wait":0,
                    "replica_straggler":0,"queue_wait":0,"flow_control_stall":0,
                    "residual":0},
                "exemplars":[]}}]}"#
            .replace("HOST", &host_json());
        let scns = parse_report(&text).expect("parse");
        let s = &scns[0];
        assert_eq!(s.series(0, "ops_per_sec"), vec![10.0, 2.0, 12.0]);
        assert_eq!(s.series(0, "pen"), vec![0.0, 4.0, 0.0]);
        assert_eq!(s.count(&["tail", "tail_ops"]), Some(2));
        assert_eq!(s.dominant_cause(), Some(("migration_pause", 2)));
        let doc = generate(&scns);
        assert!(doc.contains("## Tail root causes (tailscope)"));
        assert!(doc.contains("| probe/2 | 100 | 2 | 0.4 us | 0.9 us | migration_pause (2) |"));
        assert!(doc.contains("## Windowed telemetry (tailscope series)"));
        assert!(doc.contains("| probe/2 | throughput (shard 0) | 12/s | "));
        assert!(doc.contains("| probe/2 | p99 (shard 0) | 0.0 us | "));
        // The forbidden-cell scan stays clean on the new sections.
        assert!(check(&doc, &doc).is_ok());
        // A tail block with zero tail ops renders a "none" cause, not an
        // empty cell.
        let quiet = r#"{"schema":"hyperloop-bench/v1","tool":"unit","quick":true,
            "scenarios":[{"name":"quiet/1","config":{},"gauges":{},"host":HOST,
            "tail":{"ops":10,"tail_ops":0,"p99_ns":50,"median_e2e_ns":40,
                "causes":{"migration_pause":0,"txn_backoff":0,"lock_wait":0,
                    "replica_straggler":0,"queue_wait":0,"flow_control_stall":0,
                    "residual":0},"exemplars":[]}}]}"#
            .replace("HOST", &host_json());
        let doc = generate(&parse_report(&quiet).expect("parse"));
        assert!(doc.contains("| quiet/1 | 10 | 0 | 0.0 us | 0.1 us | none |"));
    }

    /// The committed quick baseline: shardscale, migrate, hostperf and
    /// txnmix.
    fn baseline() -> Vec<Scn> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
        parse_report(&std::fs::read_to_string(path).expect("read baseline")).expect("parse")
    }

    #[test]
    fn baseline_claims_compute_their_declared_verdicts() {
        let scns = baseline();
        let readings = readings(&scns);
        for id in ["shardscale", "migrate", "txnmix", "aborts", "tail"] {
            assert!(readings.iter().any(|r| r.id == id), "{id} has no reading");
        }
        for r in &readings {
            assert!(
                r.agrees(),
                "{}: {:?} computes {}",
                r.id,
                r.claim.says,
                r.computed()
            );
        }
        assert!(mismatches(&scns).is_empty());
    }

    #[test]
    fn every_section_quoting_the_paper_carries_a_claim() {
        let quoting: Vec<_> = sections()
            .filter(|(_, s)| s.lead.starts_with("Paper:"))
            .collect();
        assert_eq!(
            quoting.len(),
            9,
            "fig2a, fig2b, fig8a, fig8b, table2, fig9-12"
        );
        for (id, s) in quoting {
            assert!(
                !s.claims.is_empty(),
                "{id} quotes the paper but claims nothing"
            );
        }
    }

    #[test]
    fn bands_read_the_wording() {
        let holds = |b: Band, v: &[f64]| b.holds(v);
        assert!(holds(Band::Order(801.8), &[80.2, 8000.0]));
        assert!(!holds(Band::Order(801.8), &[0.9]));
        assert!(holds(Band::Similar(1.0), &[0.9, 1.1]));
        assert!(!holds(Band::Similar(1.0), &[0.84]));
        assert!(holds(Band::Flat(0.1), &[10.0, 11.0]));
        assert!(!holds(Band::Flat(0.1), &[10.0, 11.1]));
        assert!(holds(Band::Under(1.2), &[1.19]) && !holds(Band::Under(1.2), &[1.2]));
        assert!(holds(Band::Rising, &[1.0, 1.0, 2.0]) && !holds(Band::Rising, &[2.0, 1.0]));
        assert!(holds(Band::Falling, &[2.0, 1.0]) && !holds(Band::Falling, &[1.0, 2.0]));
        // A missing value never holds.
        assert!(!holds(Band::AtLeast(0.0), &[f64::NAN]));
        assert_eq!(Band::Order(801.8).text(fmt_ratio), "80.2x–8018.0x");
        assert_eq!(Band::Under(0.1).text(fmt_pct), "under 10%");
    }

    #[test]
    fn a_moved_claim_is_a_mismatch_naming_figure_and_claim() {
        let mut scns = baseline();
        // Make the 8-shard arm slower than the 4-shard one.
        let arm = scns.iter_mut().find(|s| s.name == "shardscale/8").unwrap();
        let JsonValue::Obj(fields) = &mut arm.tree else {
            panic!("scenario is not an object")
        };
        let (_, JsonValue::Obj(gauges)) = fields.iter_mut().find(|(k, _)| k == "gauges").unwrap()
        else {
            panic!("gauges is not an object")
        };
        let (_, ops) = gauges.iter_mut().find(|(k, _)| k == "ops_per_sec").unwrap();
        *ops = JsonValue::F64(1.0);
        let wrong = mismatches(&scns);
        assert_eq!(wrong.len(), 1, "{wrong:?}");
        assert!(wrong[0].starts_with("shardscale: claim \"Aggregate throughput"));
        assert!(wrong[0].contains("diverges") && wrong[0].contains("declared to hold"));
    }

    #[test]
    fn formatting_is_stable() {
        assert_eq!(fmt_ns(11_800.0), "11.8 us");
        assert_eq!(fmt_ns(9_960_000.0), "9.96 ms");
        assert_eq!(fmt_ns(f64::NAN), "n/a");
        assert_eq!(fmt_ratio(845.93), "845.9x");
    }
}
