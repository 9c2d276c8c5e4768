//! Measures the sharding win honestly: wall-clock of a full-corpus
//! experiment run as one process versus `N` shard processes sharing
//! the file-locked artifact cache, recorded as
//! `experiment_shard1.wall_ns` / `experiment_shardN.wall_ns` rows in
//! `BENCH_engine.json` (same box, back-to-back, cold cache for both
//! configurations).
//!
//! Flags: `--corpus NAME|FILE` (default `full`), `--shards N`
//! (default 4), `--worker I/N` (internal: run one shard and exit).
//!
//! Each worker is a re-exec of this binary pinned to `EEL_JOBS=1`, so
//! the comparison isolates *process* parallelism: on a multi-core box
//! the N-shard configuration approaches an N-fold win (modulo shard
//! imbalance); on a single-core box it honestly records ~1x, and the
//! speedup materializes in nightly CI where the four shards run on
//! separate runners. The trajectory row never lies about the machine
//! it ran on — EXPERIMENTS.md forbids merging rows across boxes.

use std::process::{Command, Stdio};
use std::time::Instant;

use eel_bench::cli::{err, parse_env};
use eel_bench::engine::Engine;
use eel_bench::experiment::ExperimentConfig;
use eel_bench::report::{results_dir, workspace_root, Trajectory};
use eel_bench::shard::ShardSpec;
use eel_pipeline::MachineModel;
use eel_workloads::{load_corpus, Benchmark};

fn fail(msg: &str) -> ! {
    eprintln!("shard_bench: {msg}");
    std::process::exit(2);
}

/// Worker mode: run one shard of the corpus over the shared cache
/// (`EEL_CACHE_DIR` is set by the driver) and exit.
fn worker(corpus: &[Benchmark], shard: ShardSpec) -> ! {
    let mine: Vec<Benchmark> = shard.filter(corpus).into_iter().map(|(_, b)| b).collect();
    let cfg = ExperimentConfig::default();
    let engine = Engine::new(&MachineModel::ultrasparc(), &cfg).with_default_disk_cache();
    let rows = engine.run_table(&mine, false, 1);
    eprintln!("shard {shard}: {} rows", rows.len());
    std::process::exit(0);
}

fn run_config(corpus_spec: &str, shards: u32) -> u64 {
    let dir = workspace_root().join(format!("target/eel-artifacts-shardbench{shards}"));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&e.to_string()));
    let t = Instant::now();
    let children: Vec<_> = (1..=shards)
        .map(|i| {
            Command::new(&exe)
                .arg("--worker")
                .arg(format!("{i}/{shards}"))
                .arg("--corpus")
                .arg(corpus_spec)
                .env("EEL_CACHE_DIR", &dir)
                .env("EEL_JOBS", "1")
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| fail(&format!("spawning shard {i}/{shards}: {e}")))
        })
        .collect();
    for mut c in children {
        let status = c.wait().unwrap_or_else(|e| fail(&e.to_string()));
        if !status.success() {
            fail(&format!("a shard worker failed: {status}"));
        }
    }
    let wall = t.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    wall
}

fn main() {
    let (corpus_spec, shards, worker_spec) = parse_env("shard_bench", |args| {
        let worker_spec = args
            .value("--worker")?
            .map(|s| s.parse::<ShardSpec>().map_err(|e| err(e.to_string())))
            .transpose()?;
        Ok((
            args.value("--corpus")?
                .unwrap_or_else(|| "full".to_string()),
            args.parsed::<u32>("--shards")?.unwrap_or(4),
            worker_spec,
        ))
    });
    let corpus = load_corpus(&corpus_spec).unwrap_or_else(|e| fail(&e.to_string()));
    if let Some(shard) = worker_spec {
        worker(&corpus, shard);
    }
    let n_benchmarks = corpus.len();
    println!("shard_bench: {n_benchmarks} benchmarks, 1 vs {shards} worker processes, cold cache");
    let wall1 = run_config(&corpus_spec, 1);
    let walln = run_config(&corpus_spec, shards);
    let speedup = wall1 as f64 / walln as f64;
    println!("  1 shard : {:>8.2} s", wall1 as f64 / 1e9);
    println!(
        "  {shards} shards: {:>8.2} s  ({speedup:.2}x vs 1 shard)",
        walln as f64 / 1e9
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < shards as usize {
        println!(
            "  note: only {cores} core(s) available — process parallelism cannot win here; \
             nightly CI runs the shards on separate runners"
        );
    }
    let root_path = workspace_root().join("BENCH_engine.json");
    let mut traj = Trajectory::load_or_new(&root_path, "ns (lower is better)");
    traj.update(&[
        ("experiment_shard1.wall_ns".to_string(), wall1 as f64),
        (format!("experiment_shard{shards}.wall_ns"), walln as f64),
    ]);
    match traj.write_to(&[root_path, results_dir().join("BENCH_engine.json")]) {
        Ok(()) => println!("recorded experiment_shard{{1,{shards}}}.wall_ns in BENCH_engine.json"),
        Err(e) => fail(&format!("BENCH_engine.json write failed: {e}")),
    }
}
