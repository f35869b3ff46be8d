//! The one command-line splitter behind every `fwbench` subcommand.
//!
//! A command declares the positional count it takes, its valued flags
//! and its switches. Anything else is a usage error naming the argument:
//! ignoring it would run a different experiment than the command line
//! asks for.

use std::ops::RangeInclusive;

/// A command line, split against the flags it takes.
#[derive(Debug)]
pub struct Args<'a> {
    /// Non-flag arguments, in order.
    pub positional: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Split `args` into positionals (their count must lie in
    /// `positionals`), `valued` flags with their values and `switches`.
    /// The error is a one-line message for the caller to print before its
    /// usage text (exit 2).
    pub fn parse(
        args: &'a [String],
        positionals: RangeInclusive<usize>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Args<'a>, String> {
        let mut out = Args {
            positional: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                out.positional.push(a);
            } else if valued.contains(&a) {
                let v = it.next().ok_or_else(|| format!("{a} wants a value"))?;
                out.values.push((a, v));
            } else if switches.contains(&a) {
                out.switches.push(a);
            } else {
                return Err(format!("unknown flag {a}"));
            }
        }
        let (n, min) = (out.positional.len(), *positionals.start());
        if let Some(extra) = out.positional.get(*positionals.end()) {
            return Err(format!("unexpected argument {extra}"));
        }
        if n < min {
            return Err(format!("wants {min} positional argument(s), got {n}"));
        }
        Ok(out)
    }

    /// The value of the first occurrence of `flag`.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    /// Whether switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}
