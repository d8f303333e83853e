//! Shared infrastructure for the experiment binaries (`src/bin/exp_*`)
//! that regenerate every quantitative claim of the paper — see
//! `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod session;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod traffic;
pub mod whp;

/// Experiment scale, selected with the `KB_SCALE` environment variable
/// (`quick` or `full`, default `full`). `quick` keeps every binary under
/// ~30 s for smoke-testing; `full` is what EXPERIMENTS.md records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweep for smoke tests.
    Quick,
    /// The full sweep recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Reads `KB_SCALE` from the environment.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("KB_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Picks `quick` or `full` variants of a sweep parameter.
    #[must_use]
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Reads the `KB_VERIFY` environment variable: `1` turns on the online
/// model/invariant checkers ([`kbcast::runner::RunOptions::verify`])
/// for the experiment binaries that support them. Any violation then
/// aborts the sweep with the offending seed instead of contributing a
/// silently-wrong data point.
#[must_use]
pub fn verify_from_env() -> bool {
    std::env::var("KB_VERIFY").as_deref() == Ok("1")
}

/// Reads the `KB_TRACE` environment variable: `1` turns on structured
/// round tracing ([`kbcast::runner::RunOptions::trace`]) in the
/// experiment binaries that support it, and makes them dump the
/// per-round JSONL event stream and the Chrome-trace span file next to
/// their summary JSON (see `radio_net::trace`).
#[must_use]
pub fn trace_from_env() -> bool {
    std::env::var("KB_TRACE").as_deref() == Ok("1")
}

/// Writes a binary's result file to the path named by the environment
/// variable `var` (`KB_E17_OUT`, `KB_BENCH_OUT`, ...), or to `default`
/// when it is unset, and prints the path written.
///
/// # Errors
///
/// Returns the write error, prefixed with the path. Binaries return it
/// from `main`, so a failed write exits non-zero.
pub fn write_result(var: &str, default: &str, text: &str) -> std::io::Result<()> {
    let path = std::env::var(var).unwrap_or_else(|_| default.to_string());
    std::fs::write(&path, text)
        .map_err(|e| std::io::Error::new(e.kind(), format!("could not write {path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_result_fails_on_an_unwritable_path() {
        // A directory cannot be written as a file, whatever the user's
        // permissions.
        let dir = std::env::temp_dir();
        let dir = dir.to_str().expect("temp dir is UTF-8");
        let err = write_result("KB_WRITE_RESULT_TEST_UNSET", dir, "{}")
            .expect_err("writing over a directory must fail");
        assert!(err.to_string().contains(dir), "error names the path: {err}");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
