//! The one resolver for the `GPGPU_*` environment knobs: a set but
//! unusable value falls back and warns once per process, never aborts.

use std::env::VarError;
use std::sync::Mutex;

/// Knobs that have already warned in this process.
static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Reads the knob `name`: unset resolves to `absent`; a value `parse`
/// accepts resolves to what it returns; anything else (including a
/// non-Unicode value) resolves to `rejected` with a one-time stderr warning
/// that names the value and says what was `expected`.
pub fn env_knob<T>(
    name: &'static str,
    expected: &str,
    absent: T,
    rejected: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let (value, bad) = resolve_knob(std::env::var(name), absent, rejected, parse);
    if let Some(bad) = bad {
        // A poisoned list only means another warning panicked mid-push;
        // the names it holds are still valid.
        let mut warned = WARNED.lock().unwrap_or_else(|p| p.into_inner());
        if !warned.contains(&name) {
            warned.push(name);
            eprintln!("warning: ignoring invalid {name} value {bad} (expected {expected})");
        }
    }
    value
}

/// Testable core of [`env_knob`]: the resolved value plus, when the
/// variable was present but unusable, a printable description of the
/// rejected value for the warning.
pub fn resolve_knob<T>(
    raw: Result<String, VarError>,
    absent: T,
    rejected: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> (T, Option<String>) {
    match raw {
        Err(VarError::NotPresent) => (absent, None),
        Err(VarError::NotUnicode(_)) => (rejected, Some("<non-unicode>".into())),
        Ok(v) => match parse(&v) {
            Some(value) => (value, None),
            None => (rejected, Some(format!("`{v}`"))),
        },
    }
}
