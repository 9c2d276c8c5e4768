//! Deterministic experiment sharding: `--shard i/n` partitioning,
//! shard row files, and the lossless merge back to one table.
//!
//! A shard spec `i/n` (1-indexed, so `1/4`..`4/4`) assigns each
//! benchmark to exactly one of `n` workers by FNV-1a content hash of
//! the benchmark's full description — not by list position — so every
//! worker computes the same partition from nothing but the corpus and
//! its own spec, with no coordinator. Workers share the on-disk
//! artifact cache (see [`crate::diskcache`]) and each writes:
//!
//! * a *shard row file* ([`ShardRows`], schema `eel-shard-rows v1`)
//!   carrying its table rows at full `f64` precision (hex bit
//!   patterns, because the human table's `{:.3}` formatting is
//!   lossy), tagged with the row's index in the corpus order;
//! * optionally a telemetry run report (`eel merge` folds those via
//!   [`eel_telemetry::RunReport::merge`]).
//!
//! [`merge_rows`] checks the parts are consistent (same title,
//! machine, corpus size, shard count), cover every corpus index
//! exactly once, and then reassembles rows in corpus order — which
//! makes the re-rendered table byte-identical to an unsharded run, in
//! whatever order the shards are merged.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use eel_telemetry::fnv1a;
use eel_workloads::{intern_name, Benchmark, Suite};

use crate::experiment::Row;

/// Schema tag of a shard row file's header line.
pub const SHARD_ROWS_SCHEMA: &str = "# eel-shard-rows v1";

/// A malformed `--shard` spec, with enough shape for a useful CLI
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Not of the form `i/n` with numeric parts (`a/b`, `3`, `1/2/3`).
    Malformed(String),
    /// Shards are 1-indexed: `0/4` names no shard.
    ZeroIndex(String),
    /// `n` must be at least 1.
    ZeroTotal(String),
    /// `i` exceeds `n` (`5/4`).
    OutOfRange {
        /// The offending 1-based index.
        index: u32,
        /// The shard count it exceeds.
        total: u32,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Malformed(s) => {
                write!(f, "shard spec `{s}` is not of the form i/n (e.g. 2/4)")
            }
            ShardError::ZeroIndex(s) => {
                write!(
                    f,
                    "shard spec `{s}`: shards are 1-indexed (1/n through n/n)"
                )
            }
            ShardError::ZeroTotal(s) => write!(f, "shard spec `{s}`: total must be at least 1"),
            ShardError::OutOfRange { index, total } => {
                write!(f, "shard index {index} out of range for {total} shards")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// A 1-indexed shard assignment `index/total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index (`1..=total`).
    pub index: u32,
    /// Number of shards.
    pub total: u32,
}

impl ShardSpec {
    /// The trivial spec `1/1`: the whole experiment.
    pub fn full() -> ShardSpec {
        ShardSpec { index: 1, total: 1 }
    }

    /// Is this the whole experiment?
    pub fn is_full(&self) -> bool {
        self.total == 1
    }

    /// Does this shard own `bench`? Ownership hashes the benchmark's
    /// full debug description (name, seed, shape, calibration — the
    /// same string the engine's cell keys embed), so it is stable
    /// across corpus reorderings that keep entries intact.
    pub fn owns(&self, bench: &Benchmark) -> bool {
        fnv1a(format!("{bench:?}").as_bytes()) % u64::from(self.total) == u64::from(self.index) - 1
    }

    /// This shard's slice of `corpus`, with each entry's index in the
    /// full corpus order (the merge key).
    pub fn filter(&self, corpus: &[Benchmark]) -> Vec<(usize, Benchmark)> {
        corpus
            .iter()
            .enumerate()
            .filter(|(_, b)| self.owns(b))
            .map(|(i, b)| (i, b.clone()))
            .collect()
    }

    /// Records this shard's ownership decision for every corpus entry
    /// into a flight recorder: one `shard/own` or `shard/skip` instant
    /// per benchmark, `a0` = corpus index, `a1` = this shard's 1-based
    /// index — so a merged multi-shard trace shows the partition that
    /// produced it.
    pub fn trace_ownership(&self, corpus: &[Benchmark], tracer: &eel_telemetry::Tracer) {
        for (i, b) in corpus.iter().enumerate() {
            let name = if self.owns(b) { "own" } else { "skip" };
            tracer.instant("shard", name, i as u64, u64::from(self.index));
        }
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

impl FromStr for ShardSpec {
    type Err = ShardError;

    fn from_str(s: &str) -> Result<ShardSpec, ShardError> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| ShardError::Malformed(s.to_string()))?;
        let index: u32 = i
            .parse()
            .map_err(|_| ShardError::Malformed(s.to_string()))?;
        let total: u32 = n
            .parse()
            .map_err(|_| ShardError::Malformed(s.to_string()))?;
        if total == 0 {
            return Err(ShardError::ZeroTotal(s.to_string()));
        }
        if index == 0 {
            return Err(ShardError::ZeroIndex(s.to_string()));
        }
        if index > total {
            return Err(ShardError::OutOfRange { index, total });
        }
        Ok(ShardSpec { index, total })
    }
}

/// A problem reading or merging shard row files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFileError {
    /// Wrong or missing schema header.
    Schema(String),
    /// A line that does not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// Two parts disagree on title, machine, corpus size, or shard
    /// count.
    Inconsistent(String),
    /// The same corpus index appears in two parts.
    Overlap {
        /// The duplicated corpus index.
        index: usize,
    },
    /// Corpus indices with no row in any part.
    Incomplete {
        /// The missing 0-based corpus indices.
        missing: Vec<usize>,
    },
}

impl fmt::Display for ShardFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardFileError::Schema(got) => {
                write!(
                    f,
                    "shard rows file must start with `{SHARD_ROWS_SCHEMA}`, got `{got}`"
                )
            }
            ShardFileError::Parse { line, what } => write!(f, "shard rows line {line}: {what}"),
            ShardFileError::Inconsistent(what) => write!(f, "shard rows disagree: {what}"),
            ShardFileError::Overlap { index } => {
                write!(f, "corpus index {index} appears in more than one shard")
            }
            ShardFileError::Incomplete { missing } => write!(
                f,
                "merged shards do not cover the corpus (missing indices: {missing:?})"
            ),
        }
    }
}

impl std::error::Error for ShardFileError {}

/// One shard's table rows, tagged with everything the merge needs to
/// verify consistency and re-render the full table byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRows {
    /// The table title (e.g. `Table 1: ...`).
    pub title: String,
    /// The machine name the rows were measured on (a
    /// [`eel_pipeline::MachineModel::by_name`] name, so the merge can
    /// re-render).
    pub machine: String,
    /// Whether the table shows the rescheduled-baseline column.
    pub show_resched: bool,
    /// Benchmarks in the *full* corpus (not this shard).
    pub corpus_len: usize,
    /// Which shard this is.
    pub shard: ShardSpec,
    /// `(corpus index, row)` pairs, ascending by index.
    pub rows: Vec<(usize, Row)>,
}

impl ShardRows {
    /// Serializes to the `eel-shard-rows v1` text format. Floats are
    /// written as hex bit patterns: the merge must re-render the
    /// table from *exact* values, and decimal round-trips are not
    /// guaranteed to be.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{SHARD_ROWS_SCHEMA}");
        let _ = writeln!(out, "title {}", self.title);
        let _ = writeln!(out, "machine {}", self.machine);
        let _ = writeln!(out, "resched {}", u8::from(self.show_resched));
        let _ = writeln!(out, "corpus {}", self.corpus_len);
        let _ = writeln!(out, "shard {}", self.shard);
        for (index, r) in &self.rows {
            let suite = match r.suite {
                Suite::Cint => "CINT95",
                Suite::Cfp => "CFP95",
            };
            let _ = writeln!(
                out,
                "row {index} {} {suite} {:016x} {} {:016x} {} {}",
                r.name,
                r.avg_bb.to_bits(),
                r.uninst_cycles,
                r.resched_ratio.to_bits(),
                r.inst_cycles,
                r.sched_cycles,
            );
        }
        out
    }

    /// Parses the text format back.
    ///
    /// # Errors
    ///
    /// [`ShardFileError`] naming the offending line.
    pub fn parse(text: &str) -> Result<ShardRows, ShardFileError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim() == SHARD_ROWS_SCHEMA => {}
            other => {
                return Err(ShardFileError::Schema(
                    other.map(|(_, l)| l.to_string()).unwrap_or_default(),
                ))
            }
        }
        let mut title = None;
        let mut machine = None;
        let mut show_resched = None;
        let mut corpus_len = None;
        let mut shard = None;
        let mut rows: Vec<(usize, Row)> = Vec::new();
        for (i, raw) in lines {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let parse_err = |what: String| ShardFileError::Parse {
                line: line_no,
                what,
            };
            let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
            match word {
                "title" => title = Some(rest.to_string()),
                "machine" => machine = Some(rest.to_string()),
                "resched" => {
                    show_resched = Some(match rest {
                        "0" => false,
                        "1" => true,
                        other => return Err(parse_err(format!("resched `{other}` is not 0/1"))),
                    })
                }
                "corpus" => {
                    corpus_len = Some(
                        rest.parse::<usize>()
                            .map_err(|_| parse_err(format!("corpus `{rest}` is not a number")))?,
                    )
                }
                "shard" => {
                    shard = Some(
                        rest.parse::<ShardSpec>()
                            .map_err(|e| parse_err(e.to_string()))?,
                    )
                }
                "row" => {
                    let f = rest.split_whitespace().collect::<Vec<_>>();
                    if f.len() != 8 {
                        return Err(parse_err(format!("row has {} fields, want 8", f.len())));
                    }
                    let index: usize = f[0]
                        .parse()
                        .map_err(|_| parse_err(format!("row index `{}`", f[0])))?;
                    let suite = match f[2] {
                        "CINT95" => Suite::Cint,
                        "CFP95" => Suite::Cfp,
                        other => return Err(parse_err(format!("unknown suite `{other}`"))),
                    };
                    let bits = |s: &str| {
                        u64::from_str_radix(s, 16)
                            .map(f64::from_bits)
                            .map_err(|_| parse_err(format!("bad float bits `{s}`")))
                    };
                    let int = |s: &str| {
                        s.parse::<u64>()
                            .map_err(|_| parse_err(format!("bad count `{s}`")))
                    };
                    rows.push((
                        index,
                        Row {
                            name: intern_name(f[1]),
                            suite,
                            avg_bb: bits(f[3])?,
                            uninst_cycles: int(f[4])?,
                            resched_ratio: bits(f[5])?,
                            inst_cycles: int(f[6])?,
                            sched_cycles: int(f[7])?,
                        },
                    ));
                }
                other => return Err(parse_err(format!("unknown directive `{other}`"))),
            }
        }
        let missing = |what: &str| ShardFileError::Parse {
            line: 0,
            what: format!("missing `{what}` header"),
        };
        Ok(ShardRows {
            title: title.ok_or_else(|| missing("title"))?,
            machine: machine.ok_or_else(|| missing("machine"))?,
            show_resched: show_resched.ok_or_else(|| missing("resched"))?,
            corpus_len: corpus_len.ok_or_else(|| missing("corpus"))?,
            shard: shard.ok_or_else(|| missing("shard"))?,
            rows,
        })
    }
}

/// Merges shard row files back into one full-corpus row list, in
/// corpus order. Order of `parts` does not matter. Verifies the parts
/// agree on their metadata, overlap nowhere, and cover the corpus.
///
/// # Errors
///
/// [`ShardFileError`] describing the inconsistency.
pub fn merge_rows(parts: &[ShardRows]) -> Result<(ShardRows, Vec<Row>), ShardFileError> {
    let first = parts
        .first()
        .ok_or_else(|| ShardFileError::Inconsistent("no shard row files given".to_string()))?;
    let mut merged: BTreeMap<usize, Row> = BTreeMap::new();
    for p in parts {
        for (field, a, b) in [
            ("title", &p.title, &first.title),
            ("machine", &p.machine, &first.machine),
        ] {
            if a != b {
                return Err(ShardFileError::Inconsistent(format!(
                    "{field} `{a}` vs `{b}`"
                )));
            }
        }
        if p.show_resched != first.show_resched {
            return Err(ShardFileError::Inconsistent(
                "resched flag differs".to_string(),
            ));
        }
        if p.corpus_len != first.corpus_len {
            return Err(ShardFileError::Inconsistent(format!(
                "corpus size {} vs {}",
                p.corpus_len, first.corpus_len
            )));
        }
        if p.shard.total != first.shard.total {
            return Err(ShardFileError::Inconsistent(format!(
                "shard count {} vs {}",
                p.shard.total, first.shard.total
            )));
        }
        for (index, row) in &p.rows {
            if merged.insert(*index, row.clone()).is_some() {
                return Err(ShardFileError::Overlap { index: *index });
            }
        }
    }
    let missing: Vec<usize> = (0..first.corpus_len)
        .filter(|i| !merged.contains_key(i))
        .collect();
    if !missing.is_empty() {
        return Err(ShardFileError::Incomplete { missing });
    }
    Ok((first.clone(), merged.into_values().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_workloads::spec95;

    #[test]
    fn specs_parse_and_reject_typed() {
        assert_eq!("1/1".parse::<ShardSpec>().unwrap(), ShardSpec::full());
        assert_eq!(
            "2/4".parse::<ShardSpec>().unwrap(),
            ShardSpec { index: 2, total: 4 }
        );
        assert_eq!(
            "0/4".parse::<ShardSpec>().unwrap_err(),
            ShardError::ZeroIndex("0/4".to_string())
        );
        assert_eq!(
            "5/4".parse::<ShardSpec>().unwrap_err(),
            ShardError::OutOfRange { index: 5, total: 4 }
        );
        assert_eq!(
            "a/b".parse::<ShardSpec>().unwrap_err(),
            ShardError::Malformed("a/b".to_string())
        );
        assert_eq!(
            "3".parse::<ShardSpec>().unwrap_err(),
            ShardError::Malformed("3".to_string())
        );
        assert_eq!(
            "1/0".parse::<ShardSpec>().unwrap_err(),
            ShardError::ZeroTotal("1/0".to_string())
        );
    }

    #[test]
    fn shards_partition_the_corpus_exactly() {
        let corpus = spec95();
        for total in [1u32, 2, 3, 4, 7] {
            let mut seen = vec![0u32; corpus.len()];
            for index in 1..=total {
                let spec = ShardSpec { index, total };
                for (i, _) in spec.filter(&corpus) {
                    seen[i] += 1;
                }
            }
            assert!(
                seen.iter().all(|&n| n == 1),
                "{total}-way partition covers each benchmark exactly once: {seen:?}"
            );
        }
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let rows = vec![
            (
                3usize,
                Row {
                    name: "130.li",
                    suite: Suite::Cint,
                    avg_bb: 4.937_219_310_021,
                    uninst_cycles: 123_456_789,
                    resched_ratio: 1.0 + f64::EPSILON,
                    inst_cycles: 222_222,
                    sched_cycles: 111_111,
                },
            ),
            (
                7usize,
                Row {
                    name: "104.hydro2d",
                    suite: Suite::Cfp,
                    avg_bb: 19.000_000_000_000_004,
                    uninst_cycles: 9,
                    resched_ratio: 0.937_421_111_173,
                    inst_cycles: 10,
                    sched_cycles: 11,
                },
            ),
        ];
        let sr = ShardRows {
            title: "Table 9: a test".to_string(),
            machine: "ultrasparc".to_string(),
            show_resched: true,
            corpus_len: 18,
            shard: ShardSpec { index: 2, total: 4 },
            rows,
        };
        let back = ShardRows::parse(&sr.to_text()).expect("round trip");
        assert_eq!(back.title, sr.title);
        assert_eq!(back.shard, sr.shard);
        for ((ai, a), (bi, b)) in sr.rows.iter().zip(&back.rows) {
            assert_eq!(ai, bi);
            assert_eq!(a.name, b.name);
            assert_eq!(a.suite, b.suite);
            assert_eq!(a.avg_bb.to_bits(), b.avg_bb.to_bits(), "bit-exact floats");
            assert_eq!(a.resched_ratio.to_bits(), b.resched_ratio.to_bits());
            assert_eq!(
                (a.uninst_cycles, a.inst_cycles, a.sched_cycles),
                (b.uninst_cycles, b.inst_cycles, b.sched_cycles)
            );
        }
    }

    #[test]
    fn merge_checks_coverage_and_overlap() {
        let mk = |shard: ShardSpec, rows: Vec<(usize, Row)>| ShardRows {
            title: "T".to_string(),
            machine: "ultrasparc".to_string(),
            show_resched: false,
            corpus_len: 2,
            shard,
            rows,
        };
        let row = |name: &'static str| Row {
            name,
            suite: Suite::Cint,
            avg_bb: 1.0,
            uninst_cycles: 1,
            resched_ratio: 1.0,
            inst_cycles: 1,
            sched_cycles: 1,
        };
        let a = mk(ShardSpec { index: 1, total: 2 }, vec![(0, row("a"))]);
        let b = mk(ShardSpec { index: 2, total: 2 }, vec![(1, row("b"))]);
        let (_, rows) = merge_rows(&[b.clone(), a.clone()]).expect("order-free");
        assert_eq!(rows[0].name, "a");
        assert_eq!(rows[1].name, "b");
        assert!(matches!(
            merge_rows(std::slice::from_ref(&a)),
            Err(ShardFileError::Incomplete { .. })
        ));
        assert!(matches!(
            merge_rows(&[a.clone(), a.clone()]),
            Err(ShardFileError::Overlap { index: 0 })
        ));
        let mut c = b.clone();
        c.machine = "supersparc".to_string();
        assert!(matches!(
            merge_rows(&[a, c]),
            Err(ShardFileError::Inconsistent(_))
        ));
    }
}
