//! The command-line surface shared by `eel` and the bench binaries:
//! one argument cursor, one user-facing error type, and the lookups
//! every front end needs (machines, scheduling policies, the worker
//! count).

use std::fmt;
use std::str::FromStr;

use eel_core::Priority;
use eel_pipeline::MachineModel;

use crate::engine::jobs_from_env;

/// A user-facing command-line error (bad arguments, bad files, failed
/// runs).
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// A [`CliError`] with message `msg`.
pub fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// A flag/value argument cursor: each accessor removes what it reads,
/// so [`Args::finish`] can reject whatever no accessor claimed.
#[derive(Debug)]
pub struct Args {
    items: Vec<String>,
}

impl Args {
    /// A cursor over `items` (without the program name).
    pub fn new(items: impl IntoIterator<Item = impl Into<String>>) -> Args {
        Args {
            items: items.into_iter().map(Into::into).collect(),
        }
    }

    /// A cursor over this process's arguments.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// Removes and returns the first argument that is not a `--` flag.
    pub fn positional(&mut self) -> Option<String> {
        let i = self.items.iter().position(|a| !a.starts_with("--"))?;
        Some(self.items.remove(i))
    }

    /// Removes the switch `name`, returning whether it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        match self.items.iter().position(|a| a == name) {
            Some(i) => {
                self.items.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the value of `name V` or `name=V`.
    ///
    /// # Errors
    ///
    /// `name` is the last argument, with no value after it.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, CliError> {
        let inline = |a: &String| a.strip_prefix(name)?.strip_prefix('=').map(str::to_string);
        let Some(i) = self
            .items
            .iter()
            .position(|a| a == name || inline(a).is_some())
        else {
            return Ok(None);
        };
        let arg = self.items.remove(i);
        if let Some(v) = inline(&arg) {
            return Ok(Some(v));
        }
        if i >= self.items.len() {
            return Err(err(format!("{name} needs a value")));
        }
        Ok(Some(self.items.remove(i)))
    }

    /// [`Args::value`], parsed as a `T`.
    ///
    /// # Errors
    ///
    /// A missing value, or one that does not parse (`bad NAME`).
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| err(format!("bad {name}"))))
            .transpose()
    }

    /// The worker count: `--jobs N`, else `$EEL_JOBS`, else all
    /// available cores; never below 1.
    ///
    /// # Errors
    ///
    /// `--jobs` with a missing or non-numeric value.
    pub fn jobs(&mut self) -> Result<usize, CliError> {
        Ok(self
            .parsed::<usize>("--jobs")?
            .unwrap_or_else(jobs_from_env)
            .max(1))
    }

    /// Ends parsing.
    ///
    /// # Errors
    ///
    /// Any argument no accessor consumed.
    pub fn finish(self) -> Result<(), CliError> {
        if let Some(extra) = self.items.first() {
            return Err(err(format!("unexpected argument `{extra}`")));
        }
        Ok(())
    }
}

/// Parses this process's arguments with `parse`, then rejects any left
/// over. On an error, prints `prog: message` and exits with status 2.
pub fn parse_env<T>(prog: &str, parse: impl FnOnce(&mut Args) -> Result<T, CliError>) -> T {
    let mut args = Args::from_env();
    match parse(&mut args).and_then(|v| args.finish().map(|()| v)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{prog}: {e}");
            std::process::exit(2);
        }
    }
}

/// The shipped machine called `name` (case-insensitive).
///
/// # Errors
///
/// An unknown name; the message lists the shipped machines.
pub fn machine(name: &str) -> Result<MachineModel, CliError> {
    MachineModel::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = MachineModel::shipped_names().collect();
        err(format!(
            "unknown machine `{name}` (try: {})",
            names.join(", ")
        ))
    })
}

/// The scheduling policy called `name` (case-insensitive).
///
/// # Errors
///
/// An unknown name; the message lists the policies.
pub fn policy(name: &str) -> Result<Priority, CliError> {
    Priority::parse(&name.to_ascii_lowercase()).ok_or_else(|| {
        err(format!(
            "unknown policy `{name}` (try: stalls-first, chain-first, load-delay, \
             lookahead[:k], exact)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_flags_values_and_rejects_leftovers() {
        let mut args = Args::new(["run", "--csv", "--jobs", "3", "--shard=2/4", "extra"]);
        assert!(args.flag("--csv"));
        assert!(!args.flag("--csv"), "consumed");
        assert_eq!(args.jobs().unwrap(), 3);
        assert_eq!(args.value("--shard").unwrap().as_deref(), Some("2/4"));
        assert_eq!(args.positional().as_deref(), Some("run"));
        let e = args.finish().unwrap_err().to_string();
        assert!(e.contains("unexpected argument `extra`"), "{e}");

        let e = Args::new(["--jobs", "x"]).jobs().unwrap_err().to_string();
        assert_eq!(e, "bad --jobs");
        let e = Args::new(["--rows"])
            .value("--rows")
            .unwrap_err()
            .to_string();
        assert!(e.contains("needs a value"), "{e}");
        assert!(Args::new(["--csv"]).jobs().unwrap() >= 1);
        assert_eq!(Args::new(["--jobs=0"]).jobs().unwrap(), 1);
        // `--trace` is not `--trace-out`'s prefix match.
        let mut args = Args::new(["--trace-out", "t.jsonl"]);
        assert!(!args.flag("--trace"));
        assert_eq!(args.value("--trace").unwrap(), None);
    }

    #[test]
    fn machine_errors_list_the_shipped_table() {
        assert_eq!(machine("UltraSPARC").unwrap().name(), "UltraSPARC");
        let e = machine("z80").unwrap_err().to_string();
        for name in MachineModel::shipped_names() {
            assert!(e.contains(name), "{e}");
        }
    }
}
