//! Benchmark harness regenerating every table and figure of
//! *Constructing and Characterizing Covert Channels on GPGPUs*
//! (Naghibijouybari et al., MICRO-50 2017).
//!
//! Each experiment of the paper's evaluation has a data-generation function
//! in [`data`] returning the same rows/series the paper plots, shared by
//! the Criterion benches under `benches/` (one per table/figure) and by the
//! `figures` report binary, which prints everything with paper-reference
//! values side by side:
//!
//! ```text
//! cargo run --release -p gpgpu-bench --bin figures
//! ```

pub mod data;
pub mod report;

/// Whether quick (smoke) mode is on: `GPGPU_BENCH_QUICK=1`, the same switch
/// the vendored criterion honors for iteration counts. Unset, empty and
/// `0` mean full mode; any other value also means full mode — matching
/// criterion's strict `== "1"` check — but warns once instead of being
/// silently ignored (`GPGPU_BENCH_QUICK=true` used to quietly run the full
/// suite while looking like a smoke run).
pub fn quick() -> bool {
    gpgpu_covert::env::env_knob(
        "GPGPU_BENCH_QUICK",
        "0 or 1; running the full benchmark",
        false,
        false,
        parse_quick,
    )
}

/// The recognized `GPGPU_BENCH_QUICK` spellings (empty, `0`, `1`).
fn parse_quick(v: &str) -> Option<bool> {
    match v {
        "1" => Some(true),
        "" | "0" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::parse_quick;
    use gpgpu_covert::env::resolve_knob;

    #[test]
    fn quick_env_resolution_is_typed() {
        use std::env::VarError;
        let resolve_quick = |raw| resolve_knob(raw, false, false, parse_quick);
        assert_eq!(resolve_quick(Ok("1".into())), (true, None));
        assert_eq!(resolve_quick(Ok("0".into())), (false, None));
        assert_eq!(resolve_quick(Ok(String::new())), (false, None));
        assert_eq!(resolve_quick(Err(VarError::NotPresent)), (false, None));
        assert_eq!(resolve_quick(Ok("true".into())), (false, Some("`true`".to_string())));
    }
}
