//! Minimal `--key value` / `--flag` argument parsing (no external deps).

use std::collections::HashMap;

/// Parsed command line: a subcommand, keyed options, and boolean flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first positional argument (subcommand).
    pub command: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Command-line mistakes, with the offending token. `kgfd` exits 2 on any
/// of them (see [`crate::exit_code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given twice.
    Duplicate(String),
    /// A positional argument after the subcommand.
    UnexpectedPositional(String),
    /// A required option is missing.
    Missing(String),
    /// An option value failed to parse.
    Invalid {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A name outside a fixed set: a subcommand, or the value of an option
    /// such as `--model` or `--strategy`.
    Unknown {
        /// What the name names (`command`, `model`, `strategy`, ...).
        what: &'static str,
        /// The name given.
        name: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Duplicate(k) => write!(f, "option --{k} given more than once"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument {p:?}"),
            ArgError::Missing(k) => write!(f, "missing required option --{k}"),
            ArgError::Invalid {
                key,
                value,
                expected,
            } => write!(f, "--{key} {value:?}: expected {expected}"),
            ArgError::Unknown { what, name } => write!(f, "unknown {what} {name:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name). An option is any
    /// `--key` token; if the next token exists and does not start with
    /// `--`, it becomes the value, otherwise the option is a flag.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                let takes_value = iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false);
                if takes_value {
                    let value = iter.next().expect("peeked");
                    if args.options.insert(key.to_string(), value).is_some() {
                        return Err(ArgError::Duplicate(key.to_string()));
                    }
                } else {
                    if args.flags.contains(&key.to_string()) {
                        return Err(ArgError::Duplicate(key.to_string()));
                    }
                    args.flags.push(key.to_string());
                }
            } else if args.command.is_none() {
                args.command = Some(token);
            } else {
                return Err(ArgError::UnexpectedPositional(token));
            }
        }
        Ok(args)
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// The value of a required `--key`.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Missing(key.into()))
    }

    /// `true` if `--key` appeared as a flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Parses `--key` as `T`, with a default when absent.
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        Ok(self.parse_opt(key, expected)?.unwrap_or(default))
    }

    /// Parses `--key` as `T` when present.
    pub fn parse_opt<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        self.get(key)
            .map(|raw| {
                raw.parse().map_err(|_| ArgError::Invalid {
                    key: key.into(),
                    value: raw.into(),
                    expected,
                })
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("train --dim 32 --prune --out model.bin").unwrap();
        assert_eq!(a.command.as_deref(), Some("train"));
        assert_eq!(a.get("dim"), Some("32"));
        assert_eq!(a.get("out"), Some("model.bin"));
        assert!(a.flag("prune"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn trailing_option_is_a_flag() {
        let a = parse("discover --consolidate").unwrap();
        assert!(a.flag("consolidate"));
    }

    #[test]
    fn duplicates_are_rejected() {
        assert_eq!(
            parse("x --dim 1 --dim 2").unwrap_err(),
            ArgError::Duplicate("dim".into())
        );
        assert_eq!(
            parse("x --a --a").unwrap_err(),
            ArgError::Duplicate("a".into())
        );
    }

    #[test]
    fn stray_positionals_are_rejected() {
        assert!(matches!(
            parse("train oops"),
            Err(ArgError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn typed_parsing_with_defaults() {
        let a = parse("x --epochs 7").unwrap();
        assert_eq!(a.parse_or("epochs", 3usize, "integer").unwrap(), 7);
        assert_eq!(a.parse_or("dim", 32usize, "integer").unwrap(), 32);
        let bad = parse("x --epochs seven").unwrap();
        assert!(bad.parse_or("epochs", 3usize, "integer").is_err());
    }

    #[test]
    fn required_reports_missing() {
        let a = parse("x").unwrap();
        assert_eq!(
            a.required("train").unwrap_err(),
            ArgError::Missing("train".into())
        );
    }
}
