//! Minimal `--flag value` argument parsing (no external dependencies).
//!
//! Each subcommand names the flags it reads once, in a [`Spec`]: a flag
//! either takes a value (`--devices 50`) or is a bare switch (`--json`).
//! [`Args::parse`] refuses anything else — an unknown or misspelt flag,
//! a value flag missing its value, a stray positional argument — so a
//! typo is an error instead of an option silently left at its default.

use std::collections::HashMap;

/// One flag a subcommand accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// `--name value` when true, a bare `--name` switch otherwise.
    pub takes_value: bool,
}

impl Flag {
    /// A flag followed by its value.
    pub const fn value(name: &'static str) -> Flag {
        Flag { name, takes_value: true }
    }

    /// A bare switch.
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, takes_value: false }
    }
}

/// The flags one subcommand accepts, in groups that several subcommands
/// share (a flag may sit in more than one of a spec's groups).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The subcommand, for error messages.
    pub command: &'static str,
    /// Its flag groups.
    pub groups: &'static [&'static [Flag]],
}

impl Spec {
    /// The accepted flag called `name`, if any.
    pub fn flag(&self, name: &str) -> Option<Flag> {
        self.groups.iter().flat_map(|group| group.iter()).find(|f| f.name == name).copied()
    }
}

/// Parsed `--key value` pairs plus boolean switches.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses an argument list against `spec`. A repeated flag keeps its
    /// last value.
    ///
    /// # Errors
    ///
    /// A usage error naming the offending argument: a flag `spec` does
    /// not list, a value flag without a value (end of input or another
    /// `--flag` next), or a positional argument.
    pub fn parse(argv: &[String], spec: &Spec) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            let Some(flag) = spec.flag(key) else {
                return Err(format!(
                    "`tacc {0}` has no flag `{arg}` (`tacc {0} --help` prints the usage)",
                    spec.command
                ));
            };
            if !flag.takes_value {
                args.switches.push(key.to_owned());
                continue;
            }
            match it.next() {
                Some(value) if !value.starts_with("--") => {
                    args.values.insert(key.to_owned(), value.clone());
                }
                _ => return Err(format!("`{arg}` needs a value")),
            }
        }
        Ok(args)
    }

    /// A string value, or `default` when absent.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map_or(default, String::as_str)
    }

    /// A string value, or `None` when absent.
    pub fn str_opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A parsed numeric value, or `default` when absent.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("--{key} got `{raw}`, expected a number")),
        }
    }

    /// Whether a bare switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        command: "test",
        groups: &[
            &[Flag::value("devices"), Flag::value("algorithm"), Flag::value("seed")],
            &[Flag::switch("json"), Flag::value("family"), Flag::value("seed")],
        ],
    };

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse(
            &argv(&["--devices", "50", "--json", "--algorithm", "greedy-regret"]),
            &SPEC,
        )
        .unwrap();
        assert_eq!(a.num_or("devices", 0usize).unwrap(), 50);
        assert_eq!(a.str_or("algorithm", "x"), "greedy-regret");
        assert_eq!(a.str_opt("algorithm"), Some("greedy-regret"));
        assert_eq!(a.str_opt("family"), None);
        assert!(a.has("json"));
        assert!(!a.has("seed"));
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = Args::parse(&[], &SPEC).unwrap();
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
        assert_eq!(a.str_or("family", "grid"), "grid");
    }

    #[test]
    fn rejects_positional_and_bad_numbers() {
        assert!(Args::parse(&argv(&["positional"]), &SPEC).is_err());
        let a = Args::parse(&argv(&["--devices", "abc"]), &SPEC).unwrap();
        assert!(a.num_or("devices", 0usize).is_err());
        // A switch takes no value, so what follows it is positional.
        let err = Args::parse(&argv(&["--json", "yes"]), &SPEC).unwrap_err();
        assert!(err.contains("`yes`"), "got: {err}");
    }

    #[test]
    fn rejects_unknown_flags_by_name() {
        let err = Args::parse(&argv(&["--devices", "5", "--devcies", "6"]), &SPEC).unwrap_err();
        assert!(err.contains("`--devcies`"), "names the flag: {err}");
        assert!(err.contains("tacc test --help"), "points at the usage: {err}");
        // `--help` is not a flag of its own: the binary answers it first.
        assert!(Args::parse(&argv(&["--help"]), &SPEC).is_err());
    }

    #[test]
    fn value_flags_need_their_value() {
        let err = Args::parse(&argv(&["--devices"]), &SPEC).unwrap_err();
        assert!(err.contains("`--devices` needs a value"), "got: {err}");
        let err = Args::parse(&argv(&["--seed", "--json"]), &SPEC).unwrap_err();
        assert!(err.contains("`--seed` needs a value"), "got: {err}");
    }

    #[test]
    fn a_flag_in_two_groups_parses_once() {
        let a = Args::parse(&argv(&["--seed", "3", "--seed", "4"]), &SPEC).unwrap();
        assert_eq!(a.num_or("seed", 0u64).unwrap(), 4, "the last value wins");
    }
}
