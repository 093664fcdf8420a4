//! Shared fixtures for the Criterion benchmarks, and the report plumbing
//! every `BENCH_*.json` binary shares: the `--quick`/`--out` command line,
//! rounded wall fields, the host's parallelism and the report write.

use dbp_core::instance::Instance;
use dbp_workloads::{generate_mu_controlled, MuControlledConfig, SizeModel};
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

/// A report binary's command line: `--quick` (the smaller grid), any other
/// bare flag (see [`has`](Self::has)), and `--out PATH` / `--out=PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportArgs {
    /// `--quick` was given.
    pub quick: bool,
    /// Where the report goes: `--out`, else the binary's default name.
    pub out: PathBuf,
    args: Vec<String>,
}

impl ReportArgs {
    /// Parse `args` (program name excluded), writing to `default_out`
    /// unless `--out` says otherwise.
    ///
    /// # Errors
    /// `--out` as the last argument, with no path after it.
    pub fn parse(args: Vec<String>, default_out: &str) -> Result<ReportArgs, String> {
        let mut out = PathBuf::from(default_out);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--out" {
                out = PathBuf::from(it.next().ok_or("--out requires a path")?);
            } else if let Some(p) = a.strip_prefix("--out=") {
                out = PathBuf::from(p);
            }
        }
        Ok(ReportArgs {
            quick: args.iter().any(|a| a == "--quick"),
            out,
            args,
        })
    }

    /// [`parse`](Self::parse) the process arguments; `None` after printing
    /// the error to stderr.
    pub fn from_env(default_out: &str) -> Option<ReportArgs> {
        ReportArgs::parse(std::env::args().skip(1).collect(), default_out)
            .map_err(|e| eprintln!("{e}"))
            .ok()
    }

    /// Whether the bare flag `flag` (e.g. `--tiny`) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

/// Round nanoseconds to milliseconds (half-up) — never the truncation that
/// turned sub-millisecond quick-mode runs into `wall_ms: 0`.
pub fn ns_to_ms_rounded(ns: u128) -> u64 {
    ((ns + 500_000) / 1_000_000) as u64
}

/// The host's `std::thread::available_parallelism()` (1 when unknown), so
/// a report's scaling plateau can be attributed to the hardware.
pub fn available_parallelism() -> u64 {
    std::thread::available_parallelism()
        .map(|p| p.get() as u64)
        .unwrap_or(1)
}

/// Write `report` to `out` as pretty JSON and print `[report] PATH`; on
/// failure print `[error] cannot write PATH: ..` and exit nonzero.
pub fn write_report<T: Serialize>(out: &std::path::Path, report: &T) -> ExitCode {
    match dbp_obs::export::write_json(out, report) {
        Ok(()) => {
            println!("[report] {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[error] cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// A standard mixed workload of `n` items for throughput benches.
pub fn standard_workload(n: usize, seed: u64) -> Instance {
    generate_mu_controlled(&MuControlledConfig {
        n_items: n,
        mu: 10,
        arrival_rate: 0.05,
        sizes: SizeModel::Uniform { lo: 5, hi: 60 },
        seed,
        ..MuControlledConfig::new(10)
    })
}

/// A churn-heavy workload of `n` items for engine-scaling benches — the
/// shared [`dbp_workloads::churn`] fixture, re-exported under the bench
/// crate's historical name so `engine_baseline`, the perf regression test
/// and `dbp profile` all measure the same stream.
pub fn churn_workload(n: usize, seed: u64) -> Instance {
    dbp_workloads::churn(n, seed)
}

/// Random static multiset of `n` sizes for the exact-solver benches.
pub fn random_sizes(n: usize, seed: u64) -> Vec<u64> {
    // Simple SplitMix64 so the fixture does not depend on rand's API.
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..n).map(|_| 1 + next() % 60).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn report_args_parse_every_spelling() {
        let plain = ReportArgs::parse(args(&[]), "BENCH_X.json").unwrap();
        assert!(!plain.quick);
        assert_eq!(plain.out, PathBuf::from("BENCH_X.json"));
        let spaced = ReportArgs::parse(args(&["--quick", "--out", "a.json"]), "B").unwrap();
        assert!(spaced.quick);
        assert_eq!(spaced.out, PathBuf::from("a.json"));
        let joined = ReportArgs::parse(args(&["--out=b.json", "--tiny"]), "B").unwrap();
        assert_eq!(joined.out, PathBuf::from("b.json"));
        assert!(joined.has("--tiny") && !joined.has("--quick"));
        assert_eq!(
            ReportArgs::parse(args(&["--out"]), "B").unwrap_err(),
            "--out requires a path"
        );
    }

    #[test]
    fn ms_rounding_is_half_up() {
        assert_eq!(ns_to_ms_rounded(0), 0);
        assert_eq!(ns_to_ms_rounded(499_999), 0);
        assert_eq!(ns_to_ms_rounded(500_000), 1);
        assert_eq!(ns_to_ms_rounded(1_499_999), 1);
    }

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(standard_workload(50, 1), standard_workload(50, 1));
        assert_eq!(churn_workload(50, 1), churn_workload(50, 1));
        assert_eq!(random_sizes(10, 2), random_sizes(10, 2));
        assert!(random_sizes(10, 2).iter().all(|&s| (1..=60).contains(&s)));
    }
}
