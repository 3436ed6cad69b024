//! The harness's typed error spine.
//!
//! Every experiment returns `Result<Table, BenchError>`; binaries print
//! the error to stderr and exit nonzero instead of unwinding. Hand-rolled
//! `Display`/`Error`/`From` impls (the workspace is dependency-free — no
//! `thiserror`/`anyhow`).

use flo_core::CoreError;
use flo_sim::SimError;
use std::fmt;

/// Errors surfaced by the bench harness and experiment binaries.
#[derive(Debug)]
pub enum BenchError {
    /// The simulator rejected its inputs (topology, sweep, fault plan).
    Sim(SimError),
    /// The layout pass or a baseline rejected its inputs.
    Core(CoreError),
    /// Reading or writing a results artifact failed.
    Io(std::io::Error),
    /// A malformed artifact or metrics file.
    Parse(String),
    /// A malformed command-line argument or environment variable.
    InvalidArg(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Sim(e) => write!(f, "{e}"),
            BenchError::Core(e) => write!(f, "{e}"),
            BenchError::Io(e) => write!(f, "i/o error: {e}"),
            BenchError::Parse(why) => write!(f, "malformed input: {why}"),
            BenchError::InvalidArg(why) => write!(f, "invalid argument: {why}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Sim(e) => Some(e),
            BenchError::Core(e) => Some(e),
            BenchError::Io(e) => Some(e),
            BenchError::Parse(_) | BenchError::InvalidArg(_) => None,
        }
    }
}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> BenchError {
        BenchError::Sim(e)
    }
}

impl From<CoreError> for BenchError {
    fn from(e: CoreError) -> BenchError {
        BenchError::Core(e)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> BenchError {
        BenchError::Io(e)
    }
}

/// Experiment-binary `main` wrapper: run `f`, print any error to stderr
/// and exit with status 1. Keeps every binary panic-free on invalid
/// topology, workload spec, or artifact input.
pub fn exit_on_error<T>(result: Result<T, BenchError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_wraps_sources() {
        let e: BenchError = SimError::InvalidTopology("zero nodes".to_string()).into();
        assert!(e.to_string().contains("invalid topology"));
        let e: BenchError = CoreError::InvalidConfig("no threads".to_string()).into();
        assert!(e.to_string().contains("parallel config"));
        let e = BenchError::InvalidArg("--clients wants a number".to_string());
        assert!(e.to_string().contains("invalid argument"));
        let e: BenchError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("i/o error"));
        let e = BenchError::Parse("truncated JSONL".to_string());
        assert!(e.to_string().contains("malformed input"));
    }
}
