//! Minimal flag parser: `--name value` pairs plus positional arguments,
//! checked against the flags and positionals one command's usage entry
//! lists.
//! (No external CLI dependency: the workspace has none; see DESIGN.md §5.)

use std::collections::HashMap;

/// Parsed command line: positionals in order, `--key value` options, and
/// bare `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// The flags a usage entry lists, each with whether it takes a value. A
/// flag whose token closes a bracket (`[--tiny]`, `--all)`) is bare; any
/// other is followed by its value's placeholder (`--out DIR`).
fn flag_spec(usage: &str) -> impl Iterator<Item = (&str, bool)> {
    usage.split_whitespace().filter_map(|token| {
        let name = token.trim_start_matches(['[', '(']).strip_prefix("--")?;
        let bare = name.ends_with([']', ')']);
        Some((name.trim_end_matches([']', ')']), !bare))
    })
}

/// How many positional words a usage entry takes: the command itself and
/// one per `<…>` placeholder (`<aminer|blog>`).
fn positional_count(usage: &str) -> usize {
    1 + usage
        .split_whitespace()
        .filter(|token| token.trim_start_matches(['[', '(']).starts_with('<'))
        .count()
}

impl Args {
    /// Parse `argv` (without the program name, so starting with the
    /// command) against `usage`, the command's entry of the usage text. A
    /// flag the entry does not list, a bare flag followed by a value, a
    /// valued flag followed by another `--...` or nothing, and a
    /// positional word beyond the entry's `<…>` placeholders are errors.
    pub fn parse(argv: &[String], usage: &str) -> Result<Args, String> {
        let mut out = Args::default();
        let positionals = positional_count(usage);
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            i += 1;
            let Some(name) = a.strip_prefix("--") else {
                if out.positional.len() == positionals {
                    return Err(format!("unexpected argument {a:?}"));
                }
                out.positional.push(a.clone());
                continue;
            };
            let valued = flag_spec(usage)
                .find(|&(n, _)| n == name)
                .map(|(_, valued)| valued)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = argv.get(i).filter(|v| !v.starts_with("--"));
            match (valued, value) {
                (true, Some(v)) => {
                    out.options.insert(name.to_string(), v.clone());
                    i += 1;
                }
                (true, None) => return Err(format!("--{name} needs a value")),
                (false, Some(v)) => return Err(format!("--{name} takes no value, got {v:?}")),
                (false, None) => out.flags.push(name.to_string()),
            }
        }
        Ok(out)
    }

    /// Positional argument by index.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// String option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    /// Parsed option with default.
    pub fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value for --{name}: {raw:?}")),
        }
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "transn x <a|b> --net FILE (--node ID | --all) [--dim N]
                 [--iterations N] [--tiny] --out DIR";

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(
            &s.split_whitespace().map(String::from).collect::<Vec<_>>(),
            USAGE,
        )
    }

    #[test]
    fn spec_reads_names_and_arity() {
        let spec: Vec<_> = flag_spec(USAGE).collect();
        assert_eq!(
            spec,
            [
                ("net", true),
                ("node", true),
                ("all", false),
                ("dim", true),
                ("iterations", true),
                ("tiny", false),
                ("out", true)
            ]
        );
    }

    #[test]
    fn positionals_and_options() {
        let a = parse("train --net g.tsv --dim 32 extra").unwrap();
        assert_eq!(a.pos(0), Some("train"));
        assert_eq!(a.pos(1), Some("extra"));
        assert_eq!(a.get("net"), Some("g.tsv"));
        assert_eq!(a.get_parse("dim", 64usize).unwrap(), 32);
        assert_eq!(a.get_parse("iterations", 5usize).unwrap(), 5);
    }

    #[test]
    fn positionals_beyond_the_placeholders_are_rejected() {
        assert_eq!(positional_count(USAGE), 2);
        assert_eq!(
            parse("x a b --tiny").unwrap_err(),
            "unexpected argument \"b\""
        );
        let bare = Args::parse(&["stats".into(), "extra".into()], "transn stats --net FILE");
        assert_eq!(bare.unwrap_err(), "unexpected argument \"extra\"");
    }

    #[test]
    fn flags_without_values() {
        let a = parse("generate aminer --tiny --out dir --all").unwrap();
        assert!(a.flag("tiny"));
        assert!(a.flag("all"));
        assert!(!a.flag("huge"));
        assert_eq!(a.get("out"), Some("dir"));
    }

    #[test]
    fn unlisted_flags_are_rejected() {
        assert_eq!(parse("x --dimm 4").unwrap_err(), "unknown flag --dimm");
        assert_eq!(parse("x --tiny --huge").unwrap_err(), "unknown flag --huge");
    }

    #[test]
    fn arity_is_enforced() {
        assert_eq!(
            parse("x --tiny aminer").unwrap_err(),
            "--tiny takes no value, got \"aminer\""
        );
        assert_eq!(parse("x --dim").unwrap_err(), "--dim needs a value");
        assert_eq!(parse("x --dim --tiny").unwrap_err(), "--dim needs a value");
    }

    #[test]
    fn missing_required_reports_name() {
        let a = parse("train").unwrap();
        let err = a.require("net").unwrap_err();
        assert!(err.contains("--net"));
    }

    #[test]
    fn bad_parse_reports_value() {
        let a = parse("x --dim banana").unwrap();
        let err = a.get_parse::<usize>("dim", 1).unwrap_err();
        assert!(err.contains("banana"));
    }
}
