//! Strict CLI flag parsing shared by the harness (and bench) binaries.
//!
//! The binaries previously parsed numeric flags with
//! `arg(..).and_then(|s| s.parse().ok()).unwrap_or(default)`, which
//! silently swallowed malformed values: `--threads banana` ran with the
//! default worker count and `--crash-at 12x` ran with *no crash at all*.
//! These helpers make a malformed or missing value a hard error — the
//! binary prints a diagnostic naming the flag and value and exits with
//! status 2 — while an *absent* flag still falls back to its default.

use std::fmt::Display;
use std::str::FromStr;

/// The raw value following `name`, if the flag is present and has one.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Is the bare flag `name` present?
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse `--name VALUE`. `Ok(None)` when the flag is absent; an error
/// message when the flag is present without a value or the value does
/// not parse.
pub fn try_parse_arg<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let Some(v) = args.get(i + 1) else {
        return Err(format!("flag {name} requires a value"));
    };
    v.parse()
        .map(Some)
        .map_err(|e| format!("invalid value '{v}' for {name}: {e}"))
}

/// Parse `--name VALUE`, exiting with status 2 and a diagnostic on a
/// malformed value. Absent flag → `None`.
pub fn parse_arg<T: FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: Display,
{
    match try_parse_arg(args, name) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Parse `--name VALUE` with a default for an absent flag; malformed
/// values still exit with status 2.
pub fn parse_arg_or<T: FromStr>(args: &[String], name: &str, default: T) -> T
where
    T::Err: Display,
{
    parse_arg(args, name).unwrap_or(default)
}

/// One slice of a sweep for cross-machine sharding: shard `index` of
/// `of` owns the legs whose index is `index (mod of)`. Parsed from the
/// CLI as `i/n` (e.g. `--shard 0/2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0..of`.
    pub index: usize,
    /// Total shard count.
    pub of: usize,
}

impl Shard {
    /// Does this shard own sweep leg `leg`?
    pub fn owns(&self, leg: usize) -> bool {
        leg % self.of == self.index
    }
}

impl Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

impl FromStr for Shard {
    type Err = String;
    fn from_str(s: &str) -> Result<Shard, String> {
        let err = || format!("expected i/n with i < n (e.g. 0/2), got '{s}'");
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let index: usize = i.parse().map_err(|_| err())?;
        let of: usize = n.parse().map_err(|_| err())?;
        if of == 0 || index >= of {
            return Err(err());
        }
        Ok(Shard { index, of })
    }
}

/// The sweep-wide flag set shared by every harness (and bench) binary,
/// replacing the per-binary copies of `--threads`/`--workers` parsing:
///
/// | flag | effect |
/// |---|---|
/// | `--full` | paper-scale run (default: quick) |
/// | `--seed N` | RNG seed override |
/// | `--workers N` / `--threads N` | pin the in-process worker pool |
/// | `--progress` | stderr `N/M jobs, ETA …` line |
/// | `--cache-dir DIR` | digest-keyed outcome cache + resume journal |
/// | `--resume` | skip legs already journaled/cached in `--cache-dir` |
/// | `--shard i/n` | run only legs `i (mod n)` (cross-machine split) |
///
/// Malformed values exit with status 2 ([`parse_arg`]'s contract);
/// `--resume` without `--cache-dir` is an error. [`SweepArgs::apply`]
/// installs the process-global settings (worker override, progress); [`SweepArgs::init`] is the one-call form the binaries use.
#[derive(Debug, Clone, Default)]
pub struct SweepArgs {
    /// Paper-scale run requested (`--full`).
    pub full: bool,
    /// RNG seed override (`--seed`).
    pub seed: Option<u64>,
    /// Worker-pool pin (`--workers` / `--threads`).
    pub workers: Option<usize>,
    /// Progress reporting (`--progress`).
    pub progress: bool,
    /// Outcome-cache directory (`--cache-dir`).
    pub cache_dir: Option<String>,
    /// Resume from the cache dir's journal (`--resume`).
    pub resume: bool,
    /// Shard of the sweep to run (`--shard i/n`).
    pub shard: Option<Shard>,
}

impl SweepArgs {
    /// Parse the shared flags from `argv` (strict: malformed values and
    /// inconsistent combinations exit with status 2). Pure — process
    /// globals are only touched by [`SweepArgs::apply`].
    pub fn parse(argv: &[String]) -> SweepArgs {
        let sa = SweepArgs {
            full: has_flag(argv, "--full"),
            seed: parse_arg(argv, "--seed"),
            workers: parse_arg(argv, "--workers").or_else(|| parse_arg(argv, "--threads")),
            progress: has_flag(argv, "--progress"),
            cache_dir: arg_value(argv, "--cache-dir"),
            resume: has_flag(argv, "--resume"),
            shard: parse_arg(argv, "--shard"),
        };
        if sa.resume && sa.cache_dir.is_none() {
            eprintln!("error: --resume requires --cache-dir (the journal lives there)");
            std::process::exit(2);
        }
        sa
    }

    /// Install the process-global settings: worker-pool pin, progress
    /// toggle.
    pub fn apply(&self) {
        if let Some(n) = self.workers {
            crate::pool::set_worker_override(n);
        }
        if self.progress {
            crate::pool::set_progress(true);
        }
    }

    /// Parse [`std::env::args`] and [`SweepArgs::apply`] the globals —
    /// the first line of every sweep binary's `main`.
    pub fn init() -> SweepArgs {
        let argv: Vec<String> = std::env::args().collect();
        let sa = SweepArgs::parse(&argv);
        sa.apply();
        sa
    }

    /// The closed-loop experiment scale these flags select.
    pub fn scale(&self) -> crate::experiments::ExperimentScale {
        let mut scale = if self.full {
            crate::experiments::ExperimentScale::full()
        } else {
            crate::experiments::ExperimentScale::quick()
        };
        if let Some(s) = self.seed {
            scale.seed = s;
        }
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn shard_parsing() {
        assert_eq!("0/2".parse(), Ok(Shard { index: 0, of: 2 }));
        assert_eq!("3/4".parse(), Ok(Shard { index: 3, of: 4 }));
        assert_eq!(Shard { index: 1, of: 3 }.to_string(), "1/3");
        for bad in ["", "2", "2/2", "5/2", "a/b", "1/0", "-1/2", "1/2/3"] {
            assert!(bad.parse::<Shard>().is_err(), "{bad} must not parse");
        }
        let s = Shard { index: 1, of: 3 };
        let owned: Vec<usize> = (0..9).filter(|&i| s.owns(i)).collect();
        assert_eq!(owned, vec![1, 4, 7]);
    }

    #[test]
    fn sweep_args_defaults_and_flags() {
        let sa = SweepArgs::parse(&argv(&["prog"]));
        assert!(!sa.full && !sa.resume && !sa.progress);
        assert_eq!(sa.workers, None);
        assert_eq!(sa.cache_dir, None);
        assert_eq!(sa.shard, None);

        let sa = SweepArgs::parse(&argv(&[
            "prog",
            "--full",
            "--seed",
            "9",
            "--threads",
            "2",
            "--cache-dir",
            "/tmp/c",
            "--resume",
            "--shard",
            "1/2",
            "--progress",
        ]));
        assert!(sa.full && sa.resume && sa.progress);
        assert_eq!(sa.seed, Some(9));
        assert_eq!(sa.workers, Some(2), "--threads is an alias");
        assert_eq!(sa.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(sa.shard, Some(Shard { index: 1, of: 2 }));
        assert_eq!(sa.scale().seed, 9);
        assert_eq!(
            sa.scale().ops,
            crate::experiments::ExperimentScale::full().ops
        );
    }

    #[test]
    fn absent_flag_is_none() {
        let args = argv(&["prog", "--other", "1"]);
        assert_eq!(try_parse_arg::<u64>(&args, "--threads"), Ok(None));
        assert_eq!(parse_arg_or(&args, "--threads", 4usize), 4);
        assert!(!has_flag(&args, "--threads"));
    }

    #[test]
    fn present_flag_parses() {
        let args = argv(&["prog", "--threads", "8"]);
        assert_eq!(try_parse_arg::<usize>(&args, "--threads"), Ok(Some(8)));
        assert_eq!(parse_arg_or(&args, "--threads", 4usize), 8);
        assert!(has_flag(&args, "--threads"));
    }

    #[test]
    fn malformed_value_is_an_error_naming_flag_and_value() {
        let args = argv(&["prog", "--threads", "banana"]);
        let err = try_parse_arg::<usize>(&args, "--threads").unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("banana"), "{err}");
    }

    #[test]
    fn trailing_digit_garbage_is_an_error() {
        // The original bug: "12x" parsed to None and silently disabled
        // the crash entirely.
        let args = argv(&["prog", "--crash-at", "12x"]);
        let err = try_parse_arg::<u64>(&args, "--crash-at").unwrap_err();
        assert!(err.contains("12x"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let args = argv(&["prog", "--threads"]);
        let err = try_parse_arg::<usize>(&args, "--threads").unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn arg_value_returns_raw_string() {
        let args = argv(&["prog", "--workload", "queue"]);
        assert_eq!(arg_value(&args, "--workload").as_deref(), Some("queue"));
        assert_eq!(arg_value(&args, "--model"), None);
    }
}
