//! Minimal `--key value` / `--flag` argument parsing (no external deps).

/// Parsed command line: a subcommand, keyed options, and boolean flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first positional argument (subcommand).
    pub command: Option<String>,
    /// Every `--key` in command-line order, with its value (`None` for a
    /// flag).
    options: Vec<(String, Option<String>)>,
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
    /// A name outside a fixed set: a subcommand, an option the command does
    /// not read, or the value of an option such as `--model` or
    /// `--strategy`.
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
    /// `--`, it becomes the value, otherwise the option is a flag. A key
    /// may appear once, as an option or as a flag.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                if args.keys().any(|k| k == key) {
                    return Err(ArgError::Duplicate(key.to_string()));
                }
                let value = iter.next_if(|next| !next.starts_with("--"));
                args.options.push((key.to_string(), value));
            } else if args.command.is_none() {
                args.command = Some(token);
            } else {
                return Err(ArgError::UnexpectedPositional(token));
            }
        }
        Ok(args)
    }

    /// Every `--key` given, options and flags alike, in command-line order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.iter().map(|(key, _)| key.as_str())
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The value of a required `--key`.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Missing(key.into()))
    }

    /// `true` if `--key` appeared as a flag.
    pub fn flag(&self, key: &str) -> bool {
        self.options
            .iter()
            .any(|(k, value)| k == key && value.is_none())
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

    /// Parses `--key` as a count of at least 1, with a default when absent.
    pub fn positive_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.parse_or(key, default, "positive integer")? {
            0 => Err(ArgError::Invalid {
                key: key.into(),
                value: self.get(key).unwrap_or_default().into(),
                expected: "positive integer",
            }),
            n => Ok(n),
        }
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
        assert_eq!(
            parse("x --out --out f").unwrap_err(),
            ArgError::Duplicate("out".into())
        );
    }

    #[test]
    fn keys_keep_command_line_order() {
        let a = parse("discover --top_n 10 --consolidate --explore 0.5").unwrap();
        assert_eq!(
            a.keys().collect::<Vec<_>>(),
            ["top_n", "consolidate", "explore"]
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
