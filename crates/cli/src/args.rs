//! Minimal flag parser for the `dbp` binary (no external deps): positional
//! subcommand + `--key value` flags.

use std::collections::BTreeMap;

/// Parsed command line: subcommand path and flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// Positional words before the first `--flag`.
    pub positional: Vec<String>,
    /// `--key value` pairs (`--key` alone stores an empty string).
    pub flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding `argv[0]`).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty flag name '--'".into());
                }
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().unwrap(),
                    _ => String::new(),
                };
                if out.flags.insert(key.to_string(), value).is_some() {
                    return Err(format!("duplicate flag --{key}"));
                }
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// Required u64 flag.
    pub fn u64_flag(&self, key: &str) -> Result<u64, String> {
        self.flags
            .get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))?
            .parse()
            .map_err(|e| format!("--{key}: {e}"))
    }

    /// Optional u64 flag with default.
    pub fn u64_flag_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// Optional f64 flag with default.
    pub fn f64_flag_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// Optional string flag.
    pub fn str_flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// The first of the space-separated `flags` that is present.
    pub fn first_of<'a>(&self, flags: &'a str) -> Option<&'a str> {
        flags.split(' ').find(|flag| self.has(flag))
    }

    /// Refuse every flag outside the space-separated `known` list — the
    /// flags command `cmd` reads — naming the first one.
    pub fn only(&self, cmd: &str, known: &str) -> Result<(), String> {
        let unknown = |flag: &&String| !known.split_whitespace().any(|k| k == flag.as_str());
        match self.flags.keys().find(unknown) {
            Some(flag) => Err(format!("--{flag} is not a flag of `dbp {cmd}`")),
            None => Ok(()),
        }
    }

    /// Refuse the space-separated `flags`, which `mode` would silently drop.
    pub fn refuse(&self, mode: &str, flags: &str) -> Result<(), String> {
        self.first_of(flags).map_or(Ok(()), |flag| {
            Err(format!("--{flag} is not supported with {mode}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = parse(&["adversary", "thm1", "--k", "8", "--mu", "10"]);
        assert_eq!(a.positional, vec!["adversary", "thm1"]);
        assert_eq!(a.u64_flag("k").unwrap(), 8);
        assert_eq!(a.u64_flag("mu").unwrap(), 10);
        assert_eq!(a.u64_flag_or("n", 4).unwrap(), 4);
    }

    #[test]
    fn bare_flags_are_boolean() {
        let a = parse(&["run", "--validate", "--algo", "ff"]);
        assert!(a.has("validate"));
        assert_eq!(a.str_flag("algo"), Some("ff"));
    }

    #[test]
    fn missing_required_flag_errors() {
        let a = parse(&["adversary"]);
        assert!(a.u64_flag("k").is_err());
    }

    #[test]
    fn duplicate_flag_errors() {
        let err = Args::parse(["--k", "1", "--k", "2"].iter().map(|s| s.to_string()));
        assert!(err.is_err());
    }

    #[test]
    fn refuse_names_the_first_listed_flag_present() {
        let a = parse(&["run", "--svg", "x.svg", "--fleet"]);
        assert_eq!(a.first_of("journal fleet svg"), Some("fleet"));
        assert_eq!(a.first_of("journal gantt"), None);
        assert!(a.refuse("--faults", "journal gantt").is_ok());
        assert_eq!(
            a.refuse("--faults", "gantt svg fleet"),
            Err("--svg is not supported with --faults".to_string())
        );
    }

    #[test]
    fn only_names_the_first_unknown_flag() {
        let a = parse(&["run", "--algo", "ff", "--jounral", "x.wal"]);
        assert_eq!(
            a.only("run", "algo journal"),
            Err("--jounral is not a flag of `dbp run`".to_string())
        );
        assert!(a.only("run", "algo jounral").is_ok());
        assert!(parse(&["compare", "f.json"]).only("compare", "").is_ok());
    }

    #[test]
    fn bad_number_errors() {
        let a = parse(&["x", "--k", "eight"]);
        assert!(a.u64_flag("k").is_err());
        assert!(a.f64_flag_or("k", 1.0).is_err());
    }
}
