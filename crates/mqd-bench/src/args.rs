//! Command-line options shared by every experiment of `repro`.

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
    /// Parses the four flags; every other argument that does not start
    /// with `--` is returned in order as a positional (the experiment ids
    /// of `repro`). An unknown flag, a missing or malformed value and a
    /// scale that is not a positive finite number are errors: a zero,
    /// negative or NaN scale would silently clamp every "day" to ten
    /// minutes.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut out = BenchArgs::default();
        let mut positional = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--seed" => {
                    out.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs an integer")?
                }
                "--out" => out.out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
                "--scale" => {
                    out.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--scale needs a positive finite number")?
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => positional.push(a),
            }
        }
        Ok((out, positional))
    }

    /// `scale`, additionally shrunk 10x under `--quick`.
    pub fn effective_scale(&self) -> f64 {
        if self.quick {
            self.scale * 0.1
        } else {
            self.scale
        }
    }

    /// The seed of one grid point: `--seed` plus the point's offset,
    /// wrapping, so a seed near `u64::MAX` writes the same bytes in debug
    /// and release builds.
    pub fn seed_at(&self, offset: usize) -> u64 {
        self.seed.wrapping_add(offset as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<(BenchArgs, Vec<String>), String> {
        BenchArgs::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let (a, ids) = parse(&[]).unwrap();
        assert!(!a.quick);
        assert_eq!(a.out, PathBuf::from("reports"));
        assert_eq!(a.effective_scale(), 1.0);
        assert!(ids.is_empty());
    }

    #[test]
    fn parses_all_flags_and_keeps_positionals_in_order() {
        let (a, ids) = parse(&[
            "fig09", "--quick", "--seed", "7", "table2", "--out", "/tmp/r", "--scale", "0.5",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, PathBuf::from("/tmp/r"));
        assert!((a.effective_scale() - 0.05).abs() < 1e-12);
        assert_eq!(ids, ["fig09", "table2"]);
    }

    #[test]
    fn scale_must_be_positive_and_finite() {
        for bad in ["nan", "0", "-1", "inf", "x"] {
            assert!(parse(&["--scale", bad]).is_err(), "--scale {bad}");
        }
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--seed", "-3"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn point_seeds_wrap() {
        let (a, _) = parse(&["--seed", &u64::MAX.to_string()]).unwrap();
        assert_eq!(a.seed_at(0), u64::MAX);
        assert_eq!(a.seed_at(3), 2);
    }
}
