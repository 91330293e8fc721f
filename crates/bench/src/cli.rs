//! The one argument parser behind the bench binaries.
//!
//! A binary pulls each flag it knows out of a [`Cli`] — [`Cli::value`] for
//! `--flag VALUE`, [`Cli::switch`] for bare flags — then its names with
//! [`Cli::choice`] (`grid`'s grid, `paper`'s figures), and [`parse`] then
//! rejects whatever is left. A repeated flag's last value wins. Every
//! failure (unknown flag or name, missing value, unparsable value) is a
//! message, and [`parse`] turns it into `error: …` plus the usage line on
//! stderr and exit status 2. The matrix harnesses share one flag set,
//! [`MatrixArgs`].

use std::fmt::Display;
use std::str::FromStr;

use clockwork::prelude::ScenarioSpec;

/// The arguments not yet claimed by a flag.
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Wraps an argument list (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Cli {
            args: args.into_iter().collect(),
        }
    }

    /// Claims every `flag VALUE` pair and parses the last value, `None`
    /// when the flag is absent. A value may not start with `--`: that is
    /// the next flag, and the value is missing.
    pub fn value<T>(&mut self, flag: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let mut last = None;
        while let Some(at) = self.args.iter().position(|a| a == flag) {
            self.args.remove(at);
            match self.args.get(at) {
                Some(next) if !next.starts_with("--") => last = Some(self.args.remove(at)),
                _ => return Err(format!("missing value for {flag}")),
            }
        }
        last.map(|raw| raw.parse().map_err(|e| format!("{flag}: {e}: `{raw}`")))
            .transpose()
    }

    /// Claims every occurrence of a bare flag; whether there was one.
    pub fn switch(&mut self, flag: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != flag);
        self.args.len() != before
    }

    /// Claims the first argument that is not a flag and returns its entry in
    /// `choices`, `None` when every argument is claimed. A name that is not
    /// in `choices` is an error naming `what`. Claim the flags first: a
    /// flag's value is not a flag either.
    pub fn choice<'c, T>(
        &mut self,
        what: &str,
        choices: &'c [(&str, T)],
    ) -> Result<Option<&'c (&'c str, T)>, String> {
        let Some(at) = self.args.iter().position(|a| !a.starts_with("--")) else {
            return Ok(None);
        };
        let name = self.args.remove(at);
        let entry = choices.iter().find(|(choice, _)| *choice == name);
        entry.map(Some).ok_or(format!("unknown {what} `{name}`"))
    }

    /// Rejects whatever no flag or name claimed.
    pub fn finish(self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some(stray) => Err(format!("unknown argument `{stray}`")),
        }
    }
}

/// Parses the process arguments with `build`, which claims the binary's
/// flags; on any error prints it with `usage` to stderr and exits 2.
pub fn parse<A>(usage: &str, build: impl FnOnce(&mut Cli) -> Result<A, String>) -> A {
    let mut cli = Cli::new(std::env::args().skip(1));
    match build(&mut cli).and_then(|args| cli.finish().map(|()| args)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\nusage: {usage}");
            std::process::exit(2);
        }
    }
}

/// The flags of the matrix harnesses, `grid` and `trace_blame`, and the
/// only ones they take. An absent `--duration-secs` or `--seed` keeps the
/// scenario's own, an absent `--out` the harness's own artifact path.
#[derive(Debug, PartialEq)]
pub struct MatrixArgs {
    /// `--duration-secs N`, at least 1.
    pub duration_secs: Option<u64>,
    /// `--seed N`: the system and workload seed.
    pub seed: Option<u64>,
    /// `--out PATH`: where the artifact goes.
    pub out: Option<String>,
    /// `--check-determinism`: rerun every cell and compare digests.
    pub check_determinism: bool,
}

impl MatrixArgs {
    /// Claims the flags.
    pub fn claim(cli: &mut Cli) -> Result<MatrixArgs, String> {
        let duration_secs = cli.value("--duration-secs")?;
        if duration_secs == Some(0) {
            return Err("--duration-secs: a run needs at least 1 second: `0`".into());
        }
        Ok(MatrixArgs {
            duration_secs,
            seed: cli.value("--seed")?,
            out: cli.value("--out")?,
            check_determinism: cli.switch("--check-determinism"),
        })
    }

    /// `spec` with the `--duration-secs` and `--seed` overrides applied.
    /// Regenerate a duration-scaled fault plan afterwards.
    pub fn apply(&self, mut spec: ScenarioSpec) -> ScenarioSpec {
        if let Some(secs) = self.duration_secs {
            spec = spec.with_duration_secs(secs);
        }
        if let Some(seed) = self.seed {
            spec = spec.with_seed(seed);
        }
        spec
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::new(args.iter().map(|a| a.to_string()))
    }

    /// The shared flags as `args` would set them, or the parse error.
    pub(crate) fn matrix(args: &[&str]) -> Result<MatrixArgs, String> {
        let mut c = cli(args);
        let parsed = MatrixArgs::claim(&mut c)?;
        c.finish().map(|()| parsed)
    }

    #[test]
    fn claims_values_and_switches_in_any_order() {
        let mut c = cli(&["--check", "--seed", "7", "--out", "x.json"]);
        assert_eq!(c.value::<String>("--out"), Ok(Some("x.json".to_string())));
        assert_eq!(c.value::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(c.value::<u64>("--events"), Ok(None));
        assert!(c.switch("--check"));
        assert!(!c.switch("--check"), "already claimed");
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let mut c = cli(&["--seed", "1", "--seed", "2"]);
        assert_eq!(c.value::<u64>("--seed"), Ok(Some(2)));
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn every_error_kind_is_a_message_not_a_panic() {
        let missing = cli(&["--seed"]).value::<u64>("--seed").unwrap_err();
        assert_eq!(missing, "missing value for --seed");
        // The next flag is not a value: `--out` must not swallow the
        // switch (and write a file named after it).
        let swallowed = cli(&["--out", "--check-determinism"]).value::<String>("--out");
        assert_eq!(swallowed, Err("missing value for --out".to_string()));
        let unparsable = cli(&["--seed", "abc"]).value::<u64>("--seed").unwrap_err();
        assert!(unparsable.starts_with("--seed: ") && unparsable.ends_with("`abc`"));
        let unknown = cli(&["--sed", "7"]).finish().unwrap_err();
        assert_eq!(unknown, "unknown argument `--sed`");
        let mut c = cli(&["--seed", "7", "stray"]);
        assert_eq!(c.value::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(c.finish().unwrap_err(), "unknown argument `stray`");
    }

    #[test]
    fn matrix_flags_default_and_override() {
        let defaults = matrix(&[]).unwrap();
        assert_eq!(
            defaults,
            MatrixArgs {
                duration_secs: None,
                seed: None,
                out: None,
                check_determinism: false,
            }
        );
        let fleet = ScenarioSpec::fleet_scale();
        assert_eq!(defaults.apply(fleet.clone()), fleet);
        let set = matrix(&[
            "--check-determinism",
            "--duration-secs",
            "10",
            "--seed",
            "3",
            "--out",
            "y.json",
        ])
        .unwrap();
        assert!(set.check_determinism);
        assert_eq!(set.out.as_deref(), Some("y.json"));
        let spec = set.apply(fleet);
        assert_eq!(
            (spec.duration_secs, spec.seed, spec.workload_seed),
            (10, 3, 3)
        );
    }

    #[test]
    fn a_zero_second_run_is_rejected() {
        let zero = matrix(&["--duration-secs", "0"]).unwrap_err();
        assert!(zero.starts_with("--duration-secs: "), "{zero}");
        assert_eq!(
            matrix(&["--duration-secs", "1"]).unwrap().duration_secs,
            Some(1)
        );
    }

    #[test]
    fn names_are_claimed_in_order_after_the_flags() {
        const FIGURES: [(&str, u8); 3] = [("fig2", 2), ("fig5", 5), ("table1", 1)];
        let mut c = cli(&["table1", "--seed", "7", "fig2", "table1"]);
        assert_eq!(c.value::<u64>("--seed"), Ok(Some(7)));
        let mut claimed = Vec::new();
        while let Some(&(name, _)) = c.choice("figure", &FIGURES).unwrap() {
            claimed.push(name);
        }
        assert_eq!(claimed, ["table1", "fig2", "table1"]);
        assert_eq!(c.finish(), Ok(()));
        let unknown = cli(&["fig99"]).choice("figure", &FIGURES);
        assert_eq!(unknown, Err("unknown figure `fig99`".to_string()));
        // A flag is never a name: it is left for `finish` to reject.
        let mut c = cli(&["--fig2"]);
        assert_eq!(c.choice("figure", &FIGURES), Ok(None));
        assert_eq!(c.finish(), Err("unknown argument `--fig2`".to_string()));
    }
}
