//! The one command-line flag cursor, shared by the `mcpart` binary and
//! the `figures` driver.
//!
//! Each caller keeps its own `match` over flag names, one arm per flag;
//! the cursor hides only the index bookkeeping and the error wording:
//!
//! ```
//! use mcpart_bench::args::{ArgError, Flags};
//!
//! let args: Vec<String> = ["--latency", "10", "--json"].map(String::from).to_vec();
//! let (mut latency, mut json) = (5u32, false);
//! let mut flags = Flags::new(&args);
//! while let Some(flag) = flags.next_flag() {
//!     match flag {
//!         "--latency" => latency = flags.value(flag, "a number")?,
//!         "--json" => json = true,
//!         other => return Err(Flags::unknown(other)),
//!     }
//! }
//! assert_eq!((latency, json), (10, true));
//! # Ok::<(), ArgError>(())
//! ```

use std::fmt;
use std::str::FromStr;

/// A malformed command line; the message names the offending flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// A cursor over a command line's arguments.
pub struct Flags<'a> {
    args: &'a [String],
    next: usize,
}

impl<'a> Flags<'a> {
    /// A cursor at the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        Flags { args, next: 0 }
    }

    /// The next argument — a flag, or a positional the caller matches
    /// itself — or `None` past the last one.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.next)?;
        self.next += 1;
        Some(arg)
    }

    /// Consumes and parses the value of `flag`. A missing or malformed
    /// value is the error "`flag` needs `what`".
    pub fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, ArgError> {
        self.value_if(flag, what, |_| true)
    }

    /// Like [`Flags::value`], but zero (or less) is malformed too.
    pub fn positive<T: FromStr + PartialOrd + Default>(
        &mut self,
        flag: &str,
        what: &str,
    ) -> Result<T, ArgError> {
        self.value_if(flag, what, |v| *v > T::default())
    }

    /// Like [`Flags::value`], but a value failing `ok` is malformed too.
    pub fn value_if<T: FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, ArgError> {
        let Some(raw) = self.next_flag() else {
            return Err(ArgError(format!("{flag} needs {what}")));
        };
        raw.parse()
            .ok()
            .filter(|v| ok(v))
            .ok_or_else(|| ArgError(format!("{flag} needs {what}, got `{raw}`")))
    }

    /// The error for a flag that no arm accepts.
    pub fn unknown(flag: &str) -> ArgError {
        ArgError(format!("unknown option `{flag}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn values_are_parsed_and_named_in_errors() {
        let a = args(&["--n", "3", "--name", "x", "pos"]);
        let mut flags = Flags::new(&a);
        assert_eq!(flags.next_flag(), Some("--n"));
        assert_eq!(flags.value::<u32>("--n", "a number"), Ok(3));
        assert_eq!(flags.next_flag(), Some("--name"));
        assert_eq!(flags.value::<String>("--name", "a name").as_deref(), Ok("x"));
        assert_eq!(flags.next_flag(), Some("pos"));
        assert_eq!(flags.next_flag(), None);
        assert_eq!(
            flags.value::<u32>("--n", "a number"),
            Err(ArgError("--n needs a number".into()))
        );
    }

    #[test]
    fn malformed_and_non_positive_values_are_rejected() {
        let a = args(&["fast", "0", "-2", "7"]);
        let mut flags = Flags::new(&a);
        let err = flags.value::<u32>("--latency", "a number").unwrap_err();
        assert_eq!(err.to_string(), "--latency needs a number, got `fast`");
        assert!(flags.positive::<u64>("--batch", "a positive count").is_err());
        assert!(flags.value_if("--pct", "a percentage", |p: &f64| *p >= 0.0).is_err());
        assert_eq!(flags.positive::<u64>("--batch", "a positive count"), Ok(7));
        assert_eq!(Flags::unknown("--bogus").to_string(), "unknown option `--bogus`");
    }
}
