//! Minimal dependency-free flag parsing for the `inbox` CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first non-flag argument).
    pub command: String,
    flags: HashMap<String, String>,
    /// Flags given without a value (`--verbose`).
    switches: Vec<String>,
}

/// Errors from argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A flag appeared twice.
    Duplicate(String),
    /// A required flag is missing.
    MissingFlag(&'static str),
    /// A flag the subcommand does not accept.
    UnknownFlag(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Problem description.
        message: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::Duplicate(k) => write!(f, "flag --{k} given twice"),
            ArgError::MissingFlag(k) => write!(f, "required flag --{k} missing"),
            ArgError::UnknownFlag(k) => write!(f, "unknown flag --{k}"),
            ArgError::BadValue { flag, message } => write!(f, "bad value for --{flag}: {message}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Parsed {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, ArgError> {
        let mut it = args.iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?.clone();
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // A value is the next token unless it is itself a flag.
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().unwrap().clone();
                        if flags.insert(key.to_string(), v).is_some() {
                            return Err(ArgError::Duplicate(key.to_string()));
                        }
                    }
                    _ => switches.push(key.to_string()),
                }
            }
        }
        Ok(Self {
            command,
            flags,
            switches,
        })
    }

    /// A string flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, key: &'static str) -> Result<&str, ArgError> {
        self.get(key).ok_or(ArgError::MissingFlag(key))
    }

    /// A typed flag with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e: T::Err| ArgError::BadValue {
                flag: key.to_string(),
                message: e.to_string(),
            }),
        }
    }

    /// A count flag with a default; `0` is rejected, since every count
    /// flag sizes a pool, queue or cache that needs at least one slot.
    pub fn get_positive(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get_parsed(key, default)? {
            0 => Err(ArgError::BadValue {
                flag: key.to_string(),
                message: "must be at least 1".to_string(),
            }),
            n => Ok(n),
        }
    }

    /// True when a bare `--switch` was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Rejects the first flag or switch, in name order, that `known`
    /// does not accept.
    pub fn reject_unknown(&self, known: impl Fn(&str) -> bool) -> Result<(), ArgError> {
        let mut given: Vec<&str> = self
            .flags
            .keys()
            .chain(&self.switches)
            .map(String::as_str)
            .collect();
        given.sort_unstable();
        match given.into_iter().find(|f| !known(f)) {
            Some(f) => Err(ArgError::UnknownFlag(f.to_string())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Parsed, ArgError> {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&v)
    }

    #[test]
    fn parses_command_flags_switches() {
        let p = parse(&["train", "--dim", "32", "--quick", "--seed", "7"]).unwrap();
        assert_eq!(p.command, "train");
        assert_eq!(p.get("dim"), Some("32"));
        assert_eq!(p.get_parsed("dim", 0usize).unwrap(), 32);
        assert_eq!(p.get_parsed("seed", 0u64).unwrap(), 7);
        assert!(p.has("quick"));
        assert!(!p.has("verbose"));
        assert_eq!(p.get_parsed("missing", 5usize).unwrap(), 5);
    }

    #[test]
    fn missing_command_and_flags() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        let p = parse(&["train"]).unwrap();
        assert_eq!(p.require("out").unwrap_err(), ArgError::MissingFlag("out"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        let err = parse(&["x", "--a", "1", "--a", "2"]).unwrap_err();
        assert_eq!(err, ArgError::Duplicate("a".into()));
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn unknown_flags_and_switches_rejected() {
        let p = parse(&["serve", "--threds", "3", "--smoke", "--index", "ivf"]).unwrap();
        let known = |f: &str| ["threads", "smoke"].contains(&f);
        assert_eq!(
            p.reject_unknown(known).unwrap_err(),
            ArgError::UnknownFlag("index".into())
        );
        let p = parse(&["serve", "--threads", "3", "--smoke", "--verbose"]).unwrap();
        let err = p.reject_unknown(known).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --verbose");
        let p = parse(&["serve", "--threads", "3", "--smoke"]).unwrap();
        assert_eq!(p.reject_unknown(known), Ok(()));
    }

    #[test]
    fn zero_counts_rejected() {
        let p = parse(&["serve", "--threads", "0", "--queue-cap", "4"]).unwrap();
        let err = p.get_positive("threads", 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad value for --threads: must be at least 1"
        );
        assert_eq!(p.get_positive("queue-cap", 1), Ok(4));
        assert_eq!(p.get_positive("cache-cap", 9), Ok(9));
    }

    #[test]
    fn bad_value_reported() {
        let p = parse(&["x", "--dim", "abc"]).unwrap();
        let err = p.get_parsed("dim", 0usize).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
    }
}
