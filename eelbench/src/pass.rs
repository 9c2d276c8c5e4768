//! What one pass over a workload did: its timed items, its exact work
//! counts, and the checks that failed — plus the span helpers every
//! workload records its layer boundaries with.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use eel_core::Scheduler;
use eel_edit::{EditError, EditSession, Executable};
use eel_telemetry::{Event, Registry, TraceGuard, Tracer};

/// One unit of work: a table, an edit, or a simulator run.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Index into the workload's item classes (tables, machines, modes).
    pub class: usize,
    pub ns: u64,
    pub ok: bool,
}

/// The record of one pass (or of a set-up, or of the once-per-run
/// checks).
#[derive(Debug, Default)]
pub struct Pass {
    pub items: Vec<Item>,
    /// Exact work counts. Every pass of one run must produce the same
    /// map, and so must every run of the same binary.
    pub counts: BTreeMap<String, u64>,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Failed items, plus failures no item owns.
    pub failed: usize,
}

impl Pass {
    /// Records an item that started at `start` and returns its index.
    pub fn item(&mut self, class: usize, start: Instant) -> usize {
        self.item_ns(class, start.elapsed().as_nanos() as u64)
    }

    /// Records an item that took `ns` and returns its index.
    pub fn item_ns(&mut self, class: usize, ns: u64) -> usize {
        self.items.push(Item {
            class,
            ns,
            ok: true,
        });
        self.items.len() - 1
    }

    /// Marks item `index` failed with a reason.
    pub fn fail(&mut self, index: usize, why: String) {
        if self.items[index].ok {
            self.items[index].ok = false;
            self.failed += 1;
        }
        self.errors.push(why);
    }

    /// Records a failure no single item owns.
    pub fn error(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    pub fn count(&mut self, key: impl Into<String>, n: u64) {
        *self.counts.entry(key.into()).or_insert(0) += n;
    }

    /// Folds a worker's record into this one (items keep their order).
    pub fn absorb(&mut self, other: Pass) {
        self.items.extend(other.items);
        for (k, n) in other.counts {
            *self.counts.entry(k).or_insert(0) += n;
        }
        self.errors.extend(other.errors);
        self.failed += other.failed;
    }
}

/// Worker threads of the workloads that fan out, as `run_table` at two
/// workers does for the tables.
pub const WORKERS: usize = 2;

/// Runs `f(0)` to `f(n - 1)` on [`WORKERS`] threads, each taking the
/// next index when it finishes one, and returns the results in index
/// order.
pub fn fan_out<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("no worker panics holding a slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every index ran")
        })
        .collect()
}

/// A span around one call into a layer when tracing, and nothing (not
/// even a clock read) when not.
pub fn span<'a>(
    tracer: Option<&'a Tracer>,
    layer: &'static str,
    call: &'static str,
    item: u64,
    arg: u64,
) -> Option<TraceGuard<'a>> {
    tracer.map(|t| t.span(layer, call, item, arg))
}

/// `EditSession::emit` with the scheduler as the transform, counting
/// the blocks and instructions handed to the scheduler under
/// `sched.*` (and per machine). When tracing, each callback gets a
/// `sched/<machine>` span nested in the `edit/emit` span, so the
/// emitter's self time excludes the scheduler's.
pub fn emit_scheduled(
    session: &EditSession,
    scheduler: &Scheduler,
    machine: &'static str,
    tracer: Option<&Tracer>,
    item: u64,
    out: &mut Pass,
) -> Result<Executable, EditError> {
    let mut transform = scheduler.transform_with(&());
    let (mut blocks, mut insns) = (0u64, 0u64);
    let result = {
        let _s = span(tracer, "edit", "emit", item, 0);
        session.emit(|info, code| {
            blocks += 1;
            insns += code.len() as u64;
            let _s = span(tracer, "sched", machine, item, code.len() as u64);
            transform(info, code)
        })
    };
    out.count("sched.blocks", blocks);
    out.count("sched.insns", insns);
    out.count(format!("sched.blocks.{machine}"), blocks);
    out.count(format!("sched.insns.{machine}"), insns);
    result
}

/// Copies the block-replay memo's hit and miss counts out of the
/// `Registry` sink a traced pass handed to `run_with`.
pub fn count_block_contexts(registry: &Registry, out: &mut Pass) {
    let snapshot = registry.snapshot();
    for site in ["sim.block_ctx_hits", "sim.block_ctx_misses"] {
        out.count(site, snapshot.counters.get(site).copied().unwrap_or(0));
    }
}

/// Self time per `(layer, call)`: each span's duration minus the
/// same-thread spans nested inside it — the rule `eel trace` applies
/// per category.
pub fn self_times(events: &[Event]) -> BTreeMap<(&'static str, &'static str), u64> {
    let mut own: Vec<u64> = events.iter().map(|e| e.dur_ns).collect();
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].tid, events[i].ts_ns, events[i].seq));
    let mut stack: Vec<(u32, u64, usize)> = Vec::new();
    for &i in &order {
        let e = &events[i];
        while stack
            .last()
            .is_some_and(|&(tid, end, _)| tid != e.tid || end <= e.ts_ns)
        {
            stack.pop();
        }
        if let Some(&(_, _, parent)) = stack.last() {
            own[parent] = own[parent].saturating_sub(e.dur_ns);
        }
        if e.dur_ns > 0 {
            stack.push((e.tid, e.ts_ns + e.dur_ns, i));
        }
    }
    let mut out = BTreeMap::new();
    for (e, ns) in events.iter().zip(own) {
        *out.entry((e.cat, e.name)).or_insert(0) += ns;
    }
    out
}
