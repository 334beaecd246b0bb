//! Hand-rolled option parsing (the workspace's dependency policy admits no
//! argument-parsing crate; the grammar is small and fixed).

use libra_core::KeepAlive;

/// Usage text for `libra help` and errors.
pub const USAGE: &str = "\
libra — the Libra (HPDC '23) reproduction CLI

USAGE:
  libra trace   --kind single|multi:<rpm>|poisson:<n>:<rpm> [--seed S] [--out FILE]
  libra run     --platform default|freyr|libra|ns|np|nsp
                [--cluster single|multi|jetstream:<n>] [--shards K]
                [--keepalive fixed[:secs]|histogram]
                [--trace FILE | --kind ...] [--seed S] [--out FILE]
                [--trace-out FILE.html]
  libra compare [--cluster ...] [--kind ...] [--seed S] [--reps R]
                [--keepalive ...]
  libra help

EXAMPLES:
  libra trace --kind single --seed 7 --out single.csv
  libra run --platform libra --trace single.csv --out libra.csv
  libra run --platform libra --keepalive histogram --kind multi:120
  libra run --platform libra --kind single --trace-out timeline.html
  libra compare --kind poisson:120:180 --reps 3";

/// Which trace to generate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceKind {
    /// The 165-invocation `single` set.
    Single,
    /// One of the ten `multi` sets, by RPM.
    Multi(u32),
    /// Poisson arrivals: n invocations at rpm.
    Poisson {
        /// Invocation count.
        n: usize,
        /// Requests per minute.
        rpm: f64,
    },
}

/// Which cluster preset to run on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClusterSpec {
    /// One 72-core node.
    Single,
    /// Four 32-core nodes.
    Multi,
    /// n 24-core nodes.
    Jetstream(usize),
}

/// Parsed options (one struct for all commands; irrelevant fields ignored).
#[derive(Clone, Debug)]
pub struct Opts {
    /// `--platform`
    pub platform: String,
    /// `--cluster`
    pub cluster: ClusterSpec,
    /// `--shards`
    pub shards: usize,
    /// `--kind`
    pub kind: TraceKind,
    /// `--trace` (input CSV; overrides `--kind`)
    pub trace_file: Option<String>,
    /// `--seed`
    pub seed: u64,
    /// `--out`
    pub out: Option<String>,
    /// `--trace-out` (execution-timeline HTML; enables span tracing)
    pub trace_out: Option<String>,
    /// `--reps`
    pub reps: u64,
    /// `--keepalive` (warm-container lifecycle policy)
    pub keepalive: KeepAlive,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            platform: "libra".into(),
            cluster: ClusterSpec::Single,
            shards: 1,
            kind: TraceKind::Single,
            trace_file: None,
            seed: 42,
            out: None,
            trace_out: None,
            reps: 1,
            keepalive: KeepAlive::default(),
        }
    }
}

impl Opts {
    /// Parse `--flag value` pairs.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value =
                || -> Result<&String, String> { it.next().ok_or(format!("{flag} needs a value")) };
            match flag.as_str() {
                "--platform" => o.platform = value()?.clone(),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--reps" => o.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
                "--shards" => o.shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?,
                "--out" => o.out = Some(value()?.clone()),
                "--trace" => o.trace_file = Some(value()?.clone()),
                "--trace-out" => o.trace_out = Some(value()?.clone()),
                "--keepalive" => o.keepalive = KeepAlive::parse(value()?)?,
                "--cluster" => {
                    let v = value()?;
                    o.cluster = match v.split_once(':') {
                        None if v == "single" => ClusterSpec::Single,
                        None if v == "multi" => ClusterSpec::Multi,
                        Some(("jetstream", n)) => {
                            match n.parse().map_err(|e| format!("--cluster jetstream: {e}"))? {
                                0 => return Err("need at least one worker node".into()),
                                n => ClusterSpec::Jetstream(n),
                            }
                        }
                        _ => return Err(format!("bad --cluster `{v}`")),
                    };
                }
                "--kind" => {
                    let v = value()?;
                    let parts: Vec<&str> = v.split(':').collect();
                    o.kind = match parts.as_slice() {
                        ["single"] => TraceKind::Single,
                        ["multi", rpm] => {
                            TraceKind::Multi(rpm.parse().map_err(|e| format!("--kind multi: {e}"))?)
                        }
                        ["poisson", n, rpm] => {
                            let n = n.parse().map_err(|e| format!("--kind poisson n: {e}"))?;
                            let rpm: f64 =
                                rpm.parse().map_err(|e| format!("--kind poisson rpm: {e}"))?;
                            if rpm.is_nan() || rpm <= 0.0 {
                                return Err("rpm must be positive".into());
                            }
                            TraceKind::Poisson { n, rpm }
                        }
                        _ => return Err(format!("bad --kind `{v}`")),
                    };
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if o.shards == 0 || o.reps == 0 {
            return Err("--shards and --reps must be positive".into());
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_apply() {
        let o = Opts::parse(&[]).unwrap();
        assert_eq!(o.platform, "libra");
        assert_eq!(o.kind, TraceKind::Single);
        assert_eq!(o.cluster, ClusterSpec::Single);
    }

    #[test]
    fn parses_full_run_invocation() {
        let o = Opts::parse(&args(
            "--platform freyr --cluster jetstream:50 --shards 4 --kind poisson:100:60 --seed 9 --out x.csv",
        ))
        .unwrap();
        assert_eq!(o.platform, "freyr");
        assert_eq!(o.cluster, ClusterSpec::Jetstream(50));
        assert_eq!(o.shards, 4);
        assert_eq!(o.kind, TraceKind::Poisson { n: 100, rpm: 60.0 });
        assert_eq!(o.seed, 9);
        assert_eq!(o.out.as_deref(), Some("x.csv"));
    }

    #[test]
    fn parses_multi_kind() {
        let o = Opts::parse(&args("--kind multi:120")).unwrap();
        assert_eq!(o.kind, TraceKind::Multi(120));
    }

    #[test]
    fn parses_trace_out() {
        assert_eq!(Opts::parse(&[]).unwrap().trace_out, None);
        let o = Opts::parse(&args("--trace-out t.html")).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.html"));
        assert!(Opts::parse(&args("--trace-out")).is_err(), "missing value");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(Opts::parse(&args("--bogus 1")).is_err());
        assert!(Opts::parse(&args("--kind nope")).is_err());
        assert!(Opts::parse(&args("--seed")).is_err(), "missing value");
        assert!(Opts::parse(&args("--shards 0")).is_err());
        assert!(Opts::parse(&args("--cluster jetstream:x")).is_err());
        assert!(Opts::parse(&args("--keepalive bogus")).is_err());
    }

    #[test]
    fn parses_keepalive_policies() {
        let label = |a: &[String]| Opts::parse(a).unwrap().keepalive.label();
        assert_eq!(label(&[]), KeepAlive::default().label());
        assert_eq!(label(&args("--keepalive fixed:10")), "fixed10");
        assert_eq!(label(&args("--keepalive histogram")), "histogram");
        let gone = Opts::parse(&args("--keepalive concurrency")).unwrap_err();
        assert!(gone.contains("fixed[:secs] | histogram"), "{gone}");
    }
}
