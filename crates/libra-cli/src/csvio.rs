//! Minimal CSV reading/writing for traces and results.
//!
//! Format (header required):
//!
//! ```csv
//! at_us,func,size,content_seed
//! 0,4,1000,42
//! ```
//!
//! Hand-rolled on purpose: the workspace's dependency policy admits `serde`
//! but no format crate, and the schema is two fixed record types.

use libra_sim::demand::InputMeta;
use libra_sim::function::FunctionSpec;
use libra_sim::ids::FunctionId;
use libra_sim::metrics::RunResult;
use libra_sim::time::SimTime;
use libra_sim::trace::Trace;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse(usize, String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// The trace CSV header.
pub const TRACE_HEADER: &str = "at_us,func,size,content_seed";

/// Write a trace as CSV.
pub fn write_trace(trace: &Trace, mut w: impl Write) -> Result<(), CsvError> {
    writeln!(w, "{TRACE_HEADER}")?;
    for e in &trace.entries {
        writeln!(w, "{},{},{},{}", e.at.as_micros(), e.func.0, e.input.size, e.input.content_seed)?;
    }
    Ok(())
}

/// Read a trace from CSV.
pub fn read_trace(r: impl Read) -> Result<Trace, CsvError> {
    let reader = BufReader::new(r);
    let mut trace = Trace::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if i == 0 {
            if line != TRACE_HEADER {
                return Err(CsvError::Parse(
                    1,
                    format!("expected header `{TRACE_HEADER}`, got `{line}`"),
                ));
            }
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 4 {
            return Err(CsvError::Parse(i + 1, format!("expected 4 columns, got {}", cols.len())));
        }
        let parse = |s: &str, what: &str| -> Result<u64, CsvError> {
            s.trim().parse().map_err(|_| CsvError::Parse(i + 1, format!("bad {what}: `{s}`")))
        };
        trace.push(
            SimTime(parse(cols[0], "at_us")?),
            FunctionId(parse(cols[1], "func")? as u32),
            InputMeta::new(parse(cols[2], "size")?, parse(cols[3], "content_seed")?),
        );
    }
    Ok(trace)
}

/// Write per-invocation results as CSV, naming each function from `funcs`,
/// the suite the run simulated.
pub fn write_results(
    result: &RunResult,
    funcs: &[FunctionSpec],
    mut w: impl Write,
) -> Result<(), CsvError> {
    writeln!(
        w,
        "inv,func,arrival_s,latency_s,exec_s,baseline_s,speedup,harvested,accelerated,safeguarded,oomed,cpu_reassigned_core_s"
    )?;
    for r in &result.records {
        writeln!(
            w,
            "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{:.4}",
            r.inv.0,
            funcs[r.func.idx()].name,
            r.arrival.as_secs_f64(),
            r.latency.as_secs_f64(),
            r.exec.as_secs_f64(),
            r.baseline_latency.as_secs_f64(),
            r.speedup,
            r.flags.harvested,
            r.flags.accelerated,
            r.flags.safeguarded,
            r.flags.oomed,
            r.cpu_reassigned_core_sec,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(SimTime(0), FunctionId(4), InputMeta::new(1000, 42));
        t.push(SimTime(1_500_000), FunctionId(5), InputMeta::new(7, 9));
        t
    }

    #[test]
    fn trace_roundtrips() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.entries, t.entries);
    }

    #[test]
    fn bad_header_is_rejected() {
        let err = read_trace("nope\n1,2,3,4\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse(1, _)), "{err}");
    }

    #[test]
    fn bad_column_count_is_rejected() {
        let data = format!("{TRACE_HEADER}\n1,2,3\n");
        let err = read_trace(data.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse(2, _)), "{err}");
    }

    #[test]
    fn bad_number_is_rejected_with_line() {
        let data = format!("{TRACE_HEADER}\n1,x,3,4\n");
        let err = read_trace(data.as_bytes()).unwrap_err();
        match err {
            CsvError::Parse(2, msg) => assert!(msg.contains("func")),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let data = format!("{TRACE_HEADER}\n\n1,2,3,4\n\n");
        let t = read_trace(data.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }
}
