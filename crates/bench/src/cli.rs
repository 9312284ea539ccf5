//! The command-line parser every bench binary shares.
//!
//! Bad input fails loudly: an unknown flag, a flag missing its value or a
//! wrong number of positional arguments exits with status 2 and the
//! binary's usage line, instead of running with an option silently off.

use std::ops::RangeInclusive;

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    switches: Vec<String>,
    values: Vec<(String, String)>,
    /// The positional arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// True if switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of option `name` (the last one, if given twice).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses `args` against a binary's `switches` (no value) and `options`
/// (one value each, which may not start with `-`), expecting a count of
/// positional arguments within `positional`.
///
/// # Errors
///
/// Returns the reason on an unknown flag, an option without a value or a
/// positional count outside `positional`.
pub fn parse(
    args: &[String],
    switches: &[&str],
    options: &[&str],
    positional: RangeInclusive<usize>,
) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if switches.contains(&arg.as_str()) {
            parsed.switches.push(arg.clone());
        } else if options.contains(&arg.as_str()) {
            let value = it
                .next()
                .filter(|v| !v.starts_with('-'))
                .ok_or_else(|| format!("{arg} needs a value"))?;
            parsed.values.push((arg.clone(), value.clone()));
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag {arg}"));
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    let n = parsed.positional.len();
    if !positional.contains(&n) {
        return Err(format!("wrong number of arguments: {n}"));
    }
    Ok(parsed)
}

/// Exits with status 2 after printing `bin: reason` and `usage` on stderr.
pub fn reject(bin: &str, reason: &str, usage: &str) -> ! {
    eprintln!("{bin}: {reason}\n{usage}");
    std::process::exit(2)
}

/// Parses the process's arguments ([`parse`]) for binary `bin`. Prints
/// `usage` and exits 0 on `-h`/`--help`; [`reject`]s bad input.
pub fn parse_or_exit(
    bin: &str,
    usage: &str,
    switches: &[&str],
    options: &[&str],
    positional: RangeInclusive<usize>,
) -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{usage}");
        std::process::exit(0);
    }
    parse(&args, switches, options, positional).unwrap_or_else(|reason| reject(bin, &reason, usage))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_switches_options_and_positionals() {
        let a = parse(
            &args(&["x", "--quick", "--json", "out/", "y"]),
            &["--quick"],
            &["--json"],
            0..=2,
        )
        .expect("valid");
        assert!(a.switch("--quick"));
        assert_eq!(a.value("--json"), Some("out/"));
        assert_eq!(a.value("--trace"), None);
        assert_eq!(a.positional, ["x", "y"]);
    }

    #[test]
    fn rejects_bad_input() {
        let p = |s: &[&str]| parse(&args(s), &[], &["--check"], 1..=1).map(|_| ());
        assert_eq!(p(&["d", "--chek", "x"]), Err("unknown flag --chek".into()));
        assert_eq!(p(&["d", "--check"]), Err("--check needs a value".into()));
        assert_eq!(
            p(&["--check", "-o", "d"]),
            Err("--check needs a value".into())
        );
        assert_eq!(p(&[]), Err("wrong number of arguments: 0".into()));
        assert_eq!(p(&["a", "b"]), Err("wrong number of arguments: 2".into()));
    }
}
