//! Benchmark of the EEL reproduction: three workloads, end-to-end
//! metrics from untraced passes and per-layer metrics from a traced
//! run. See `eelbench/README.md`.
//!
//! ```text
//! eelbench --workload paper-tables|edit-schedule|sim-modes
//!          --seed N --seconds S --trace 0|1 [--write-ref]
//! ```
//!
//! Run from the repository root: it reads `results/*.txt` and
//! `eelbench/ref/`, and writes only under `eelbench/out/`. The last
//! line of standard output is the JSON result.

mod edit;
mod paper;
mod pass;
mod sim;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eel_telemetry::{fnv1a, Tracer};

use crate::pass::{self_times, span, Item, Pass};

const OUT: &str = "eelbench/out";

/// Set-ups per untraced run. The first is the one the passes use. The
/// others are timed and dropped between the passes, so that the median
/// covers the same stretch of time as the passes: before a pass, the
/// workload is set up again while set-ups have taken under
/// `SETUP_SHARE` of the run so far, at most `SETUPS_PER_GAP` times, up
/// to `SETUPS_MAX` in all. Set-ups short of `SETUPS_MIN` are made after
/// the passes.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 100;
const SETUPS_PER_GAP: usize = 4;
const SETUP_SHARE: f64 = 0.1;

/// Trace ring capacity: enough for every span of one traced pass.
const TRACE_EVENTS: usize = 1 << 22;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_ref: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        write_ref: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-ref" {
            args.write_ref = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !["paper-tables", "edit-schedule", "sim-modes"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper-tables, edit-schedule or sim-modes, not `{}`",
            args.workload
        ));
    }
    Ok(args)
}

enum Bench {
    Paper(paper::PaperTables),
    Edit(edit::EditSchedule),
    Sim(sim::SimModes),
}

impl Bench {
    fn setup(args: &Args, tracer: Option<&Tracer>, out: &mut Pass) -> Result<Bench, String> {
        Ok(match args.workload.as_str() {
            "paper-tables" => {
                let cache = Path::new(OUT).join(format!("cache-{}", std::process::id()));
                Bench::Paper(paper::setup(tracer, cache)?)
            }
            "edit-schedule" => Bench::Edit(edit::setup(args.seed, true, tracer, out)?),
            _ => Bench::Sim(sim::setup(tracer, out)?),
        })
    }

    /// The item classes the items-per-second geometric mean runs over.
    fn classes(&self) -> &'static [&'static str] {
        match self {
            Bench::Paper(_) => &paper::CLASSES,
            Bench::Edit(_) => &edit::MACHINES,
            Bench::Sim(_) => &sim::MODES,
        }
    }

    /// Checks made once per run, outside the timed passes.
    fn check(&self, out: &mut Pass) {
        match self {
            Bench::Paper(_) => {}
            Bench::Edit(b) => b.check(out),
            Bench::Sim(b) => b.check(out),
        }
    }

    fn pass(&self, out: &mut Pass) {
        match self {
            Bench::Paper(b) => b.pass(out),
            Bench::Edit(b) => b.pass(None, out),
            Bench::Sim(b) => b.pass(None, out),
        }
    }

    fn traced_pass(&self, tracer: &Tracer, out: &mut Pass) {
        match self {
            Bench::Paper(b) => b.traced_pass(tracer, out),
            Bench::Edit(b) => b.pass(Some(tracer), out),
            Bench::Sim(b) => b.pass(Some(tracer), out),
        }
    }

    fn finish(&self) {
        if let Bench::Paper(b) = self {
            b.remove_cache();
        }
    }
}

/// Attempted and failed items over a run, with the failure reasons.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.items.len().max(pass.failed);
        self.failed += pass.failed;
        self.errors.extend(pass.errors.iter().cloned());
    }

    /// Fails the run when `counts` differ from `reference`: exact
    /// counters that move between passes of one binary are a defect.
    fn same_counts(
        &mut self,
        what: &str,
        reference: &BTreeMap<String, u64>,
        counts: &BTreeMap<String, u64>,
    ) {
        if reference != counts {
            let keys: std::collections::BTreeSet<&String> =
                reference.keys().chain(counts.keys()).collect();
            let moved: Vec<String> = keys
                .into_iter()
                .filter(|k| reference.get(*k) != counts.get(*k))
                .map(|k| format!("{k} {:?} -> {:?}", reference.get(k), counts.get(k)))
                .collect();
            self.error(format!(
                "{what}: exact counts changed: {}",
                moved.join(", ")
            ));
        }
    }

    /// A failure outside any pass's items.
    fn error(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(why);
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of already sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Geometric mean over the item classes of items completed per second
/// of the (fastest) time spent on that class's items.
fn items_per_s_geomean(fastest: &Fastest, classes: usize) -> f64 {
    let logs: Vec<f64> = (0..classes)
        .filter_map(|c| {
            let n = fastest.0.iter().filter(|i| i.class == c).count();
            let s = fastest.seconds(Some(c));
            (n > 0 && s > 0.0).then(|| (n as f64 / s).ln())
        })
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Report {
    tally: Tally,
    metrics: Metrics,
}

/// Each item at its fastest over a run's passes. Other tenants of a
/// shared host only ever add time to an item, so the minimum over
/// repeated passes estimates its undisturbed cost far more steadily
/// than a median does (see README.md, "Noise").
#[derive(Default)]
struct Fastest(Vec<Item>);

impl Fastest {
    fn add(&mut self, items: &[Item]) -> Result<(), String> {
        if self.0.is_empty() {
            self.0 = items.to_vec();
        } else if self.0.len() != items.len() {
            return Err(format!(
                "a pass timed {} items, an earlier one {}",
                items.len(),
                self.0.len()
            ));
        } else {
            for (best, item) in self.0.iter_mut().zip(items) {
                best.ns = best.ns.min(item.ns);
            }
        }
        Ok(())
    }

    fn seconds(&self, class: Option<usize>) -> f64 {
        let ns: u64 = self
            .0
            .iter()
            .filter(|i| class.is_none_or(|c| i.class == c))
            .map(|i| i.ns)
            .sum();
        ns as f64 / 1e9
    }
}

/// Runs passes for `seconds`, keeping each item's fastest time.
fn measure(
    seconds: u64,
    tally: &mut Tally,
    mut pass: impl FnMut(&mut Tally) -> Result<Vec<Item>, String>,
) -> Fastest {
    let mut fastest = Fastest::default();
    let started = Instant::now();
    loop {
        match pass(tally).and_then(|items| fastest.add(&items)) {
            Ok(()) => {}
            Err(e) => tally.error(e),
        }
        if started.elapsed() >= Duration::from_secs(seconds) {
            return fastest;
        }
    }
}

/// Sets the workload up, untraced, and records how long that took.
fn set_up(args: &Args, setup_s: &mut Vec<f64>) -> Result<Bench, String> {
    let t = Instant::now();
    let bench = Bench::setup(args, None, &mut Pass::default())?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(bench)
}

fn run_untraced(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let bench = set_up(args, &mut setup_s)?;
    let mut tally = Tally::default();
    let mut check = Pass::default();
    bench.check(&mut check);
    tally.add(&check);
    let mut warm = Pass::default();
    bench.pass(&mut warm);
    tally.add(&warm);

    let mut walls = Vec::new();
    let fastest = measure(args.seconds, &mut tally, |tally| {
        for _ in 0..SETUPS_PER_GAP {
            let spent: f64 = setup_s.iter().sum();
            if setup_s.len() >= SETUPS_MAX || spent >= SETUP_SHARE * started.elapsed().as_secs_f64()
            {
                break;
            }
            set_up(args, &mut setup_s)?;
        }
        let mut p = Pass::default();
        let t = Instant::now();
        bench.pass(&mut p);
        walls.push(t.elapsed().as_secs_f64());
        tally.add(&p);
        tally.same_counts("untraced pass", &warm.counts, &p.counts);
        Ok(p.items)
    });
    while setup_s.len() < SETUPS_MIN {
        set_up(args, &mut setup_s)?;
    }
    bench.finish();
    check_recorded_counts(args, "untraced", &warm.counts, &mut tally);
    let mut item_ms: Vec<f64> = fastest.0.iter().map(|i| i.ns as f64 / 1e6).collect();
    item_ms.sort_by(f64::total_cmp);
    let per_class: Vec<String> = bench
        .classes()
        .iter()
        .enumerate()
        .map(|(c, name)| format!("{name} {:.3}s", fastest.seconds(Some(c))))
        .collect();
    eprintln!(
        "eelbench: {} set-ups, {} passes of {} items; pass seconds {:.3?}; fastest per class: {}; \
         item p90 {:.3} ms (not gated: see README.md)",
        setup_s.len(),
        walls.len(),
        item_ms.len(),
        walls,
        per_class.join(", "),
        percentile(&item_ms, 90.0)
    );
    Ok(Report {
        tally,
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("wall_s", fastest.seconds(None), "s"),
            (
                "items_per_s.geomean",
                items_per_s_geomean(&fastest, bench.classes().len()),
                "1/s",
            ),
            ("item_ms.p50", median(&item_ms), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    })
}

/// Alternates untraced and traced passes; the per-layer figures come
/// from the traced ones, their overhead from comparing the two.
fn run_traced(args: &Args) -> Result<Report, String> {
    let first = Tracer::new(TRACE_EVENTS);
    let mut setup = Pass::default();
    let bench = Bench::setup(args, Some(&first), &mut setup)?;
    let setup_self = self_times(&first.events());

    let mut tally = Tally::default();
    let mut check = Pass::default();
    bench.check(&mut check);
    tally.add(&check);
    let mut warm = Pass::default();
    bench.pass(&mut warm);
    tally.add(&warm);

    let mut untraced = Fastest::default();
    let mut layers: Vec<Metrics> = Vec::new();
    let mut traced_counts: Option<BTreeMap<String, u64>> = None;
    let traced = measure(args.seconds, &mut tally, |tally| {
        let mut p = Pass::default();
        bench.pass(&mut p);
        tally.add(&p);
        tally.same_counts("untraced pass", &warm.counts, &p.counts);
        untraced.add(&p.items)?;

        let fresh;
        let tracer = if layers.is_empty() {
            &first
        } else {
            fresh = Tracer::new(TRACE_EVENTS);
            &fresh
        };
        let (before, from_ns) = (tracer.pushed(), tracer.now_ns());
        let mut q = Pass::default();
        bench.traced_pass(tracer, &mut q);
        let events: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| e.ts_ns >= from_ns)
            .collect();
        let pushed = tracer.pushed() - before;
        if (events.len() as u64) < pushed {
            q.error(format!(
                "trace ring overflowed: {} of {pushed} events kept",
                events.len()
            ));
        }
        tally.add(&q);
        match &traced_counts {
            None => traced_counts = Some(q.counts.clone()),
            Some(reference) => tally.same_counts("traced pass", reference, &q.counts),
        }
        layers.push(layer_metrics(
            &setup_self,
            &setup.counts,
            &self_times(&events),
            &q.counts,
        ));
        Ok(q.items)
    });
    bench.finish();
    check_recorded_counts(args, "untraced", &warm.counts, &mut tally);
    if let Some(counts) = &traced_counts {
        check_recorded_counts(args, "traced", counts, &mut tally);
    }
    let path = write_trace(args, &first).map_err(|e| format!("writing the trace: {e}"))?;
    eprintln!(
        "eelbench: {} traced passes; trace written to {} (render it with `eel trace`)",
        layers.len(),
        path.display()
    );

    // Timings at their fastest over the traced passes; counts are equal
    // in every pass.
    let mut metrics: Metrics = layers[0]
        .iter()
        .enumerate()
        .map(|(k, &(name, _, unit))| {
            let fastest = layers.iter().map(|m| m[k].1).fold(f64::INFINITY, f64::min);
            (name, fastest, unit)
        })
        .collect();
    let engine = |key: &str| warm.counts.get(key).copied().unwrap_or(0) as f64;
    let cache_only_s = match bench {
        Bench::Paper(_) => untraced.seconds(Some(3)),
        _ => 0.0,
    };
    metrics.extend([
        (
            "engine.cells_computed",
            engine("engine.cells_computed"),
            "count",
        ),
        ("engine.disk_hits", engine("engine.disk_hits"), "count"),
        ("engine.mem_hits", engine("engine.mem_hits"), "count"),
        ("engine.cache_only_s", cache_only_s, "s"),
        (
            "trace.overhead_ratio",
            ratio(traced.seconds(None), untraced.seconds(None)),
            "ratio",
        ),
    ]);
    Ok(Report { tally, metrics })
}

/// The per-layer figures of one traced pass, from its spans' self
/// times and its exact counts. `pipeline.*` and `workloads.*` include
/// the set-up's spans; every other figure describes the pass alone.
fn layer_metrics(
    setup_self: &BTreeMap<(&str, &str), u64>,
    setup_counts: &BTreeMap<String, u64>,
    pass_self: &BTreeMap<(&str, &str), u64>,
    counts: &BTreeMap<String, u64>,
) -> Metrics {
    let ns = |map: &BTreeMap<(&str, &str), u64>, layer: &str, call: &str| {
        map.get(&(layer, call)).copied().unwrap_or(0) as f64
    };
    let layer_ns = |layer: &str| -> f64 {
        pass_self
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, &v)| v as f64)
            .sum()
    };
    let n = |key: &str| counts.get(key).copied().unwrap_or(0) as f64;
    let build_ns = ns(setup_self, "workloads", "build") + ns(pass_self, "workloads", "build");
    let built =
        setup_counts.get("workloads.insns").copied().unwrap_or(0) as f64 + n("workloads.insns");
    let edit_insns = n("edit.insns");
    let qpt_blocks = n("qpt.blocks_counted") + n("qpt.blocks_skipped");
    let mut m: Metrics = vec![
        ("workloads.build_s", build_ns / 1e9, "s"),
        (
            "workloads.build_us_per_insn",
            ratio(build_ns / 1e3, built),
            "us/insn",
        ),
        (
            "pipeline.model_ms",
            ns(setup_self, "pipeline", "model") / 1e6,
            "ms",
        ),
        (
            "edit.open_us_per_insn",
            ratio(ns(pass_self, "edit", "open") / 1e3, edit_insns),
            "us/insn",
        ),
        (
            "edit.emit_us_per_insn",
            ratio(
                (ns(pass_self, "edit", "emit") + ns(pass_self, "edit", "emit_unscheduled")) / 1e3,
                edit_insns,
            ),
            "us/insn",
        ),
        (
            "qpt.instrument_us_per_block",
            ratio(ns(pass_self, "qpt", "instrument") / 1e3, qpt_blocks),
            "us/block",
        ),
        ("qpt.blocks_counted", n("qpt.blocks_counted"), "count"),
        ("qpt.blocks_skipped", n("qpt.blocks_skipped"), "count"),
        (
            "sched.us_per_insn",
            ratio(layer_ns("sched") / 1e3, n("sched.insns")),
            "us/insn",
        ),
    ];
    for (name, machine) in [
        ("sched.us_per_insn.hypersparc", "hypersparc"),
        ("sched.us_per_insn.supersparc", "supersparc"),
        ("sched.us_per_insn.ultrasparc", "ultrasparc"),
    ] {
        let insns = n(&format!("sched.insns.{machine}"));
        m.push((
            name,
            ratio(ns(pass_self, "sched", machine) / 1e3, insns),
            "us/insn",
        ));
    }
    m.extend([
        ("sched.blocks", n("sched.blocks"), "count"),
        ("sched.insns", n("sched.insns"), "count"),
        ("sched.queries", n("sched.queries"), "count"),
        (
            "sched.queries_per_insn",
            ratio(n("sched.queries"), n("sched.insns")),
            "queries/insn",
        ),
    ]);
    for (name, mode) in [
        ("sim.timed.ns_per_kinsn", "timed"),
        ("sim.functional.ns_per_kinsn", "functional"),
        ("sim.attributed.ns_per_kinsn", "attributed"),
        ("sim.dcache.ns_per_kinsn", "dcache"),
    ] {
        let kinsn = n(&format!("sim.{mode}.instructions")) / 1e3;
        m.push((name, ratio(ns(pass_self, "sim", mode), kinsn), "ns/kinsn"));
    }
    for name in [
        "sim.timed.instructions",
        "sim.functional.instructions",
        "sim.attributed.instructions",
        "sim.dcache.instructions",
        "sim.timed.cycles",
        "sim.attributed.cycles",
        "sim.dcache.cycles",
    ] {
        m.push((name, n(name), "count"));
    }
    let hits = n("sim.block_ctx_hits");
    m.push((
        "sim.block_ctx_hit_ratio",
        ratio(hits, hits + n("sim.block_ctx_misses")),
        "ratio",
    ));
    m
}

/// Writes the first traced pass (and the set-up before it) as an
/// `eel-trace` JSONL file under `eelbench/out/`. The serialization of
/// a first snapshot is itself a `telemetry` span in the file written.
fn write_trace(args: &Args, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let meta = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("kind", "eelbench".to_string()),
    ];
    {
        let _s = span(Some(tracer), "telemetry", "to_jsonl", 0, 0);
        std::hint::black_box(tracer.trace_file(&meta).to_jsonl());
    }
    let text = tracer.trace_file(&meta).to_jsonl();
    std::fs::create_dir_all(OUT)?;
    let path = Path::new(OUT).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Compares `counts` with what an earlier run of this same binary
/// recorded for the same workload and seed, and records them if none
/// did. The binary is identified by a hash of its bytes.
fn check_recorded_counts(
    args: &Args,
    kind: &str,
    counts: &BTreeMap<String, u64>,
    tally: &mut Tally,
) {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| fnv1a(&bytes))
        .unwrap_or(0);
    let path = Path::new(OUT).join(format!(
        "counts-{}-seed{}-{kind}-{exe:016x}.txt",
        args.workload, args.seed
    ));
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(recorded) => {
            let recorded: BTreeMap<String, u64> = recorded
                .lines()
                .filter_map(|l| l.split_once(' '))
                .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                .collect();
            tally.same_counts(
                &format!("{kind} counts vs an earlier run"),
                &recorded,
                counts,
            );
        }
        Err(_) => {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let written = std::fs::create_dir_all(OUT)
                .and_then(|()| std::fs::write(&tmp, text))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!(
                    "eelbench: could not record counts in {}: {e}",
                    path.display()
                );
            }
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eelbench: {e}");
            std::process::exit(2);
        }
    };
    if args.write_ref {
        if args.workload != "edit-schedule" || args.seed != 0 {
            eprintln!("eelbench: --write-ref applies to edit-schedule at seed 0");
            std::process::exit(2);
        }
        let written = edit::setup(0, false, None, &mut Pass::default()).and_then(|b| {
            std::fs::write(edit::DIGESTS, b.digest_lines()).map_err(|e| e.to_string())
        });
        if let Err(e) = written {
            eprintln!("eelbench: {e}");
            std::process::exit(1);
        }
        eprintln!("eelbench: wrote {}", edit::DIGESTS);
        return;
    }
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("eelbench: {e}");
            std::process::exit(1);
        }
    };
    let tally = &report.tally;
    for e in tally.errors.iter().take(20) {
        eprintln!("eelbench: FAILED {e}");
    }
    if tally.errors.len() > 20 {
        eprintln!(
            "eelbench: ... and {} more failures",
            tally.errors.len() - 20
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            eprintln!("  {name:<32} {value:>16.6} {unit}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
}
