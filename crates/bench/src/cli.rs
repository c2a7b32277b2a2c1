//! The one command line of the bench binaries.
//!
//! Every binary declares which optional flags it takes and what its
//! positional arguments are ([`Cli`]); [`Cli::args`] parses the process
//! arguments against that declaration and [`Args::finish`] ends the run.
//! All five binaries accept `--threads N` / `--threads=N` (the last one
//! wins; it pins the [`crate::sweep`] pool width once, after every
//! argument parsed). A usage error — an undeclared flag, a missing or
//! malformed value, an unknown model or target — exits 2 before any work
//! starts, so nothing reaches stdout.

use crate::sweep;
use std::path::PathBuf;
use tnpu_models::registry;

/// An optional flag a binary may declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`: the reduced grid.
    Quick,
    /// `--deny-undetected`: exit 1 if an attack cell contradicts the
    /// paper's claims.
    DenyUndetected,
    /// `--deny-corrupted`: exit 1 if a fault cell contradicts the fault
    /// model.
    DenyCorrupted,
    /// `--bench-json PATH` / `--bench-json=PATH`: append the run's pool
    /// timings to the JSON array in `PATH`.
    BenchJson,
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Quick => "--quick",
            Flag::DenyUndetected => "--deny-undetected",
            Flag::DenyCorrupted => "--deny-corrupted",
            Flag::BenchJson => "--bench-json",
        }
    }
}

/// What a binary's positional arguments are.
#[derive(Debug, Clone, Copy)]
pub enum Positional {
    /// None are accepted.
    Nothing,
    /// Registered model names.
    Models,
    /// Names from this list.
    Targets(&'static [&'static str]),
}

/// One binary's command-line declaration.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The optional flags the binary accepts (besides `--threads`).
    pub flags: &'static [Flag],
    /// What its positional arguments are.
    pub positional: Positional,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The switches given.
    switches: Vec<Flag>,
    /// The last `--threads` value, if any.
    threads: Option<usize>,
    /// The `--bench-json` path, if any.
    bench_json: Option<PathBuf>,
    /// The positional arguments, validated, in order.
    positional: Vec<String>,
    /// The raw arguments, space-joined: the bench-json record's label.
    label: String,
}

impl Cli {
    /// Parse `args` (without the program name) against the declaration.
    ///
    /// # Errors
    ///
    /// The usage message: an undeclared flag, a flag without its value, a
    /// `--threads` value that is not a positive integer, or a positional
    /// argument the binary does not take.
    fn parse(&self, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            switches: Vec::new(),
            threads: None,
            bench_json: None,
            positional: Vec::new(),
            label: args.join(" "),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                self.check_positional(arg)?;
                parsed.positional.push(arg.clone());
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let mut value = |what: &str| {
                inline
                    .or_else(|| iter.next().map(String::as_str))
                    .ok_or_else(|| format!("{name} wants {what}"))
            };
            if name == "--threads" {
                let value = value("a value")?;
                parsed.threads = match value.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => return Err(format!("--threads wants a positive integer, got {value:?}")),
                };
                continue;
            }
            match self.flags.iter().find(|f| f.name() == name) {
                Some(Flag::BenchJson) => parsed.bench_json = Some(value("a path")?.into()),
                Some(&flag) if inline.is_none() => parsed.switches.push(flag),
                _ => return Err(format!("unknown flag: {arg}")),
            }
        }
        Ok(parsed)
    }

    fn check_positional(&self, arg: &str) -> Result<(), String> {
        match self.positional {
            Positional::Nothing => Err(format!("unexpected argument: {arg}")),
            Positional::Models if registry::model(arg).is_none() => {
                Err(format!("unknown model: {arg}"))
            }
            Positional::Targets(targets) if !targets.contains(&arg) => {
                Err(format!("unknown target: {arg}"))
            }
            Positional::Models | Positional::Targets(_) => Ok(()),
        }
    }

    /// Parse the process arguments and pin the pool width to the last
    /// `--threads` value. A usage error is printed to stderr and exits 2.
    #[must_use]
    pub fn args(&self) -> Args {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        match self.parse(&raw) {
            Ok(args) => {
                if let Some(n) = args.threads {
                    sweep::set_threads(n);
                }
                args
            }
            Err(usage) => {
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
}

impl Args {
    /// Whether the switch `flag` was given.
    #[must_use]
    pub fn has(&self, flag: Flag) -> bool {
        self.switches.contains(&flag)
    }

    /// The positional arguments, or `default` when there are none.
    #[must_use]
    pub fn positional_or<'a>(&'a self, default: &[&'a str]) -> Vec<&'a str> {
        if self.positional.is_empty() {
            default.to_vec()
        } else {
            self.positional.iter().map(String::as_str).collect()
        }
    }

    /// End the run: print the pool timing summary to stderr (timing is
    /// nondeterministic, so stdout stays byte-identical at any thread
    /// count), append the `--bench-json` record if one was asked for, then
    /// exit 1 at the first gate whose flag was given and whose check
    /// failed, printing `"{flag}: {failure}"`.
    pub fn finish(&self, gates: &[(Flag, Option<String>)]) {
        let pools = sweep::take_session();
        if let Some(summary) = sweep::summarize(&pools) {
            eprint!("{summary}");
        }
        if let Some(path) = &self.bench_json {
            let record = sweep::bench_record_json(&self.label, sweep::threads(), &pools);
            if let Err(e) = sweep::append_bench_json(path, &record) {
                eprintln!("cannot write benchmark record to {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("benchmark record appended to {}", path.display());
        }
        for (flag, failure) in gates {
            if let Some(failure) = failure.as_ref().filter(|_| self.has(*flag)) {
                eprintln!("{}: {failure}", flag.name());
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODELS: Cli = Cli {
        flags: &[Flag::DenyUndetected],
        positional: Positional::Models,
    };
    const DECODE: Cli = Cli {
        flags: &[
            Flag::Quick,
            Flag::DenyUndetected,
            Flag::DenyCorrupted,
            Flag::BenchJson,
        ],
        positional: Positional::Nothing,
    };
    const TARGETS: Cli = Cli {
        flags: &[Flag::Quick, Flag::BenchJson],
        positional: Positional::Targets(&["fig14", "all"]),
    };

    fn parse(cli: Cli, line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        cli.parse(&args)
    }

    #[test]
    fn parses_every_form_and_rejects_every_misuse() {
        type Check = fn(&Args) -> bool;
        let ok: &[(Cli, &str, Check)] = &[
            (MODELS, "--threads 3 df", |a| {
                a.threads == Some(3) && a.positional == ["df"]
            }),
            (MODELS, "--threads=3", |a| a.threads == Some(3)),
            (MODELS, "--threads 1 --threads=8 --threads 2", |a| {
                a.threads == Some(2)
            }),
            (MODELS, "df ncf --deny-undetected", |a| {
                a.has(Flag::DenyUndetected) && a.positional_or(&["x"]) == ["df", "ncf"]
            }),
            (MODELS, "", |a| {
                a.threads.is_none() && a.switches.is_empty() && a.positional_or(&["x"]) == ["x"]
            }),
            (DECODE, "--bench-json out.json --quick", |a| {
                a.bench_json == Some("out.json".into()) && a.has(Flag::Quick)
            }),
            (DECODE, "--bench-json=out.json --deny-corrupted", |a| {
                a.bench_json == Some("out.json".into()) && a.has(Flag::DenyCorrupted)
            }),
            (TARGETS, "--quick fig14 all", |a| {
                a.positional == ["fig14", "all"] && a.label == "--quick fig14 all"
            }),
        ];
        for (cli, line, check) in ok {
            let parsed = parse(*cli, line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert!(check(&parsed), "{line:?} parsed as {parsed:?}");
        }

        // Each usage message ends with the expected text.
        let bad: &[(Cli, &str, &str)] = &[
            (MODELS, "--bogus", "unknown flag: --bogus"),
            (MODELS, "--quick", "unknown flag: --quick"),
            (MODELS, "--bench-json x", "unknown flag: --bench-json"),
            (DECODE, "--quick=1", "unknown flag: --quick=1"),
            (MODELS, "--threads", "--threads wants a value"),
            (MODELS, "--threads 0", "a positive integer, got \"0\""),
            (MODELS, "--threads=abc", "a positive integer, got \"abc\""),
            (MODELS, "--threads 4 --threads 0", "got \"0\""),
            (MODELS, "df nomodel", "unknown model: nomodel"),
            (DECODE, "--bench-json", "--bench-json wants a path"),
            (DECODE, "df", "unexpected argument: df"),
            (TARGETS, "fig14 bogus", "unknown target: bogus"),
        ];
        for (cli, line, message) in bad {
            let err = parse(*cli, line).expect_err(line);
            assert!(err.ends_with(message), "{line:?}: {err}");
        }
    }
}
