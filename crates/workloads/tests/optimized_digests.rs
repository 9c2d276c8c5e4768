//! Pins the bytes the workload compiler emits: an FNV-1a digest of
//! every optimized SPEC95 text section, on the machines the paper's
//! tables build for. The local search in `optimize_block` may be made
//! faster, never different — any change to one accept/reject decision
//! changes a digest here.

use eel_pipeline::MachineModel;
use eel_telemetry::fnv1a;
use eel_workloads::{full_corpus, spec95, Benchmark, BuildOptions};

/// Digest of `bench`'s text section, optimized for `model`.
fn text_digest(bench: &Benchmark, model: &MachineModel) -> u64 {
    let exe = bench.build(&BuildOptions {
        iterations: None,
        optimize: Some(model.clone()),
    });
    let bytes: Vec<u8> = exe.text().iter().flat_map(|w| w.to_be_bytes()).collect();
    fnv1a(&bytes)
}

/// The machines the tables measure on: ultraSPARC and superSPARC with
/// the engine's default load-latency bias of 2, plus plain hyperSPARC.
fn machines() -> Vec<MachineModel> {
    vec![
        MachineModel::ultrasparc().with_load_latency_bias(2),
        MachineModel::supersparc().with_load_latency_bias(2),
        MachineModel::hypersparc(),
    ]
}

/// `(machine index, benchmark, digest)`, computed before the compiler's
/// search was reworked for speed.
const SPEC95_DIGESTS: &[(usize, &str, u64)] = &[
    (0, "099.go", 0x85ce6ecdc3f0deaf),
    (0, "124.m88ksim", 0x05a12adad41cc7d1),
    (0, "126.gcc", 0xb8ac7677fe7970d0),
    (0, "129.compress", 0xaba9d569400cc9b8),
    (0, "130.li", 0x080d0cc1e3e0aa86),
    (0, "132.ijpeg", 0xcd684fa9b9a715f0),
    (0, "134.perl", 0xcac860a750c7c376),
    (0, "147.vortex", 0x155f467364f68507),
    (0, "101.tomcatv", 0xa24fa9dd7d610f12),
    (0, "102.swim", 0xcca41d48a9dcc3a3),
    (0, "103.su2cor", 0xfd9faaaf2eee317b),
    (0, "104.hydro2d", 0x5f78029506b10d1b),
    (0, "107.mgrid", 0x20fe2c5e4ee563e8),
    (0, "110.applu", 0xf04adcbab9b8c78d),
    (0, "125.turb3d", 0x2be54d2d4c9022b8),
    (0, "141.apsi", 0x8313de2745824526),
    (0, "145.fpppp", 0x0d1565bb5f4ec374),
    (0, "146.wave5", 0x5fb86e46bab4d70e),
    (1, "099.go", 0x85ce6ecdc3f0deaf),
    (1, "124.m88ksim", 0x05a12adad41cc7d1),
    (1, "126.gcc", 0xb8ac7677fe7970d0),
    (1, "129.compress", 0xaba9d569400cc9b8),
    (1, "130.li", 0x080d0cc1e3e0aa86),
    (1, "132.ijpeg", 0x966ee2cca7da40dc),
    (1, "134.perl", 0xcac860a750c7c376),
    (1, "147.vortex", 0x155f467364f68507),
    (1, "101.tomcatv", 0xacd564ac9b2bb43a),
    (1, "102.swim", 0xddfd2956f7b6d56f),
    (1, "103.su2cor", 0x99b03146de1acb3f),
    (1, "104.hydro2d", 0x9a54ac48cd65089b),
    (1, "107.mgrid", 0x6c6a832b5a4aca8c),
    (1, "110.applu", 0x0748ac2a900944dd),
    (1, "125.turb3d", 0x0ef8fb6b6f5d40b4),
    (1, "141.apsi", 0x8c12499e5ee3bb2e),
    (1, "145.fpppp", 0xe616e81c37cb9088),
    (1, "146.wave5", 0x5dc64ccff988169e),
    (2, "099.go", 0x85ce6ecdc3f0deaf),
    (2, "124.m88ksim", 0x05a12adad41cc7d1),
    (2, "126.gcc", 0xb8ac7677fe7970d0),
    (2, "129.compress", 0xfa53962505dbbcf8),
    (2, "130.li", 0x080d0cc1e3e0aa86),
    (2, "132.ijpeg", 0xeff9c3c7110bdb50),
    (2, "134.perl", 0xcac860a750c7c376),
    (2, "147.vortex", 0x155f467364f68507),
    (2, "101.tomcatv", 0xb174991943ab1866),
    (2, "102.swim", 0xc33b07be3e571387),
    (2, "103.su2cor", 0xddbf2c035152155f),
    (2, "104.hydro2d", 0x3b5ed427f439d3c7),
    (2, "107.mgrid", 0xf5994e140a62ce70),
    (2, "110.applu", 0xba719586516f1ac1),
    (2, "125.turb3d", 0xf445d7759c137200),
    (2, "141.apsi", 0x20377ed749577bde),
    (2, "145.fpppp", 0x4c2aa0d6245e0358),
    (2, "146.wave5", 0x1ea2916d3945389e),
];

#[test]
fn optimized_spec95_text_is_pinned() {
    // One thread per machine: in a debug build this is the slow part.
    let actual: Vec<(usize, &str, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = machines()
            .into_iter()
            .enumerate()
            .map(|(mi, model)| {
                s.spawn(move || {
                    spec95()
                        .iter()
                        .map(|b| (mi, b.name, text_digest(b, &model)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("digest worker panicked"))
            .collect()
    });
    let table: String = actual
        .iter()
        .map(|(mi, name, d)| format!("    ({mi}, \"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == SPEC95_DIGESTS,
        "optimized text changed; actual digests:\n{table}"
    );
}

/// One digest over every full-corpus entry (name, then text), built
/// for ultraSPARC with bias 2. Slow in debug; nightly runs it in
/// release.
const FULL_CORPUS_DIGEST: u64 = 0x9553_feaf_8681_22f5;

#[test]
#[ignore = "builds all 360 full-corpus entries; run with --ignored (release)"]
fn optimized_full_corpus_text_is_pinned() {
    let model = &machines()[0];
    let mut bytes = Vec::new();
    for bench in full_corpus() {
        bytes.extend_from_slice(bench.name.as_bytes());
        bytes.extend_from_slice(&text_digest(&bench, model).to_le_bytes());
    }
    let h = fnv1a(&bytes);
    assert_eq!(
        h, FULL_CORPUS_DIGEST,
        "optimized full-corpus text changed: 0x{h:016x}"
    );
}
