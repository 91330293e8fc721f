//! The one flag parser behind the bench binaries.
//!
//! A binary pulls each flag it knows out of a [`Cli`] — [`Cli::value`] for
//! `--flag VALUE`, [`Cli::switch`] for bare flags — and [`parse`] then
//! rejects whatever is left. A repeated flag's last value wins. Every
//! failure (unknown flag, missing value, unparsable value) is a message, and
//! [`parse`] turns it into `error: …` plus the usage line on stderr and
//! exit status 2.

use std::fmt::Display;
use std::str::FromStr;

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
    /// when the flag is absent.
    pub fn value<T>(&mut self, flag: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let mut last = None;
        while let Some(at) = self.args.iter().position(|a| a == flag) {
            self.args.remove(at);
            if at == self.args.len() {
                return Err(format!("missing value for {flag}"));
            }
            last = Some(self.args.remove(at));
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

    /// [`Cli::value`] for a 64-bit hex digest, with or without `0x`.
    pub fn hex_u64(&mut self, flag: &str) -> Result<Option<u64>, String> {
        self.value::<String>(flag)?
            .map(|raw| {
                u64::from_str_radix(raw.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("{flag}: {e}: `{raw}`"))
            })
            .transpose()
    }

    /// Rejects whatever no flag claimed.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::new(args.iter().map(|a| a.to_string()))
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
    fn hex_digests_parse_with_and_without_prefix() {
        let mut c = cli(&["--a", "0x9097142c5c551b0e", "--b", "4d230fcbe9fc37ac"]);
        assert_eq!(c.hex_u64("--a"), Ok(Some(0x9097_142c_5c55_1b0e)));
        assert_eq!(c.hex_u64("--b"), Ok(Some(0x4d23_0fcb_e9fc_37ac)));
        assert!(cli(&["--a", "xyz"]).hex_u64("--a").is_err());
    }

    #[test]
    fn every_error_kind_is_a_message_not_a_panic() {
        let missing = cli(&["--seed"]).value::<u64>("--seed").unwrap_err();
        assert_eq!(missing, "missing value for --seed");
        let unparsable = cli(&["--seed", "abc"]).value::<u64>("--seed").unwrap_err();
        assert!(unparsable.starts_with("--seed: ") && unparsable.ends_with("`abc`"));
        let unknown = cli(&["--sed", "7"]).finish().unwrap_err();
        assert_eq!(unknown, "unknown argument `--sed`");
        let mut c = cli(&["--seed", "7", "stray"]);
        assert_eq!(c.value::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(c.finish().unwrap_err(), "unknown argument `stray`");
    }
}
