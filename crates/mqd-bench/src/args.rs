//! Minimal CLI argument handling shared by every experiment binary.

use std::path::PathBuf;

/// Common experiment options.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Shrink workloads for a fast smoke run (`--quick`).
    pub quick: bool,
    /// Base RNG seed (`--seed N`).
    pub seed: u64,
    /// Report output directory (`--out DIR`, default `reports/`).
    pub out: PathBuf,
    /// Workload scale multiplier (`--scale X`, default 1.0).
    pub scale: f64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            quick: false,
            seed: 20130612,
            out: PathBuf::from("reports"),
            scale: 1.0,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`; unknown flags abort with a usage message.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--seed" => {
                    out.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"))
                }
                "--out" => {
                    out.out = PathBuf::from(it.next().unwrap_or_else(|| {
                        usage("--out needs a directory");
                    }))
                }
                "--scale" => {
                    out.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a float"))
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        out
    }

    /// `scale`, additionally shrunk 10x under `--quick`.
    pub fn effective_scale(&self) -> f64 {
        if self.quick {
            self.scale * 0.1
        } else {
            self.scale
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: <bin> [--quick] [--seed N] [--out DIR] [--scale X]");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let a = BenchArgs::parse_from(sv(&[]));
        assert!(!a.quick);
        assert_eq!(a.out, PathBuf::from("reports"));
        assert_eq!(a.effective_scale(), 1.0);
    }

    #[test]
    fn parses_all_flags() {
        let a = BenchArgs::parse_from(sv(&[
            "--quick", "--seed", "7", "--out", "/tmp/r", "--scale", "0.5",
        ]));
        assert!(a.quick);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, PathBuf::from("/tmp/r"));
        assert!((a.effective_scale() - 0.05).abs() < 1e-12);
    }
}
