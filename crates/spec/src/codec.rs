//! The one `key=value` codec behind every textual grammar in the workspace:
//! topology, defense, sweep and arch-descriptor specs here, fault plans and
//! latency tables in `gpgpu-sim`, chaos plans and cache payloads in
//! `gpgpu-serve`.
//!
//! A grammar splits its input on its own separator (`,` `;` `:` or
//! whitespace) and hands the parts to [`pairs`], which owns the shared
//! rules: parts are trimmed, empty parts are skipped, a part without `=` is
//! rejected and so is a repeated key. Values are read with [`field`] (any
//! [`FromStr`] type) or [`u64_field`] (decimal or `0x` hex). Errors are
//! plain reasons; each grammar wraps them in its own error type and keeps
//! its own key `match`, validation and rendering.
//!
//! # Example
//!
//! ```
//! use gpgpu_spec::codec;
//!
//! let kv = codec::pairs("seed=0x10, kills=2".split(','), &[]).unwrap();
//! assert_eq!(kv, vec![("seed", "0x10"), ("kills", "2")]);
//! assert_eq!(codec::u64_field("seed", kv[0].1), Ok(16));
//! assert!(codec::pairs("seed=1,seed=2".split(','), &[]).is_err());
//! ```

use std::str::FromStr;

/// Tokenizes already-split `parts` into trimmed `(key, value)` pairs, in
/// input order. A value keeps any further `=` (`defense=partition=2`).
///
/// # Errors
///
/// A reason naming the part with no `=`, or the key that repeats (unless
/// it is listed in `repeatable`).
pub fn pairs<'a>(
    parts: impl Iterator<Item = &'a str>,
    repeatable: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    // No grammar has more than eight keys: one allocation per spec.
    let mut out: Vec<(&str, &str)> = Vec::with_capacity(8);
    for part in parts.map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) =
            part.split_once('=').ok_or_else(|| format!("expected key=value, got `{part}`"))?;
        let key = key.trim();
        if !repeatable.contains(&key) && out.iter().any(|&(k, _)| k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
        out.push((key, value.trim()));
    }
    Ok(out)
}

/// Parses the value of `key`.
///
/// # Errors
///
/// A reason of the form ``invalid <key> `<value>` ``.
pub fn field<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid {key} `{value}`"))
}

/// Parses a `u64` value of `key` written in decimal or `0x`/`0X` hex.
///
/// # Errors
///
/// As [`field`].
pub fn u64_field(key: &str, value: &str) -> Result<u64, String> {
    match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| format!("invalid {key} `{value}`")),
        None => field(key, value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_trim_skip_empty_parts_and_keep_later_equals() {
        let kv = pairs(" a = 1 ;; b=c=d ; ".split(';'), &[]).unwrap();
        assert_eq!(kv, vec![("a", "1"), ("b", "c=d")]);
        assert_eq!(pairs("".split(','), &[]).unwrap(), vec![]);
        assert_eq!(pairs("k=".split(','), &[]).unwrap(), vec![("k", "")]);
    }

    #[test]
    fn pairs_reject_bare_parts_and_repeated_keys() {
        assert_eq!(pairs("a=1,b".split(','), &[]), Err("expected key=value, got `b`".into()));
        assert_eq!(pairs("a=1, a =2".split(','), &[]), Err("duplicate key `a`".into()));
        let links = pairs("devices=x,link=0-1,link=1-2".split(','), &["link"]).unwrap();
        assert_eq!(links.len(), 3);
        assert!(pairs("devices=x,devices=y,link=0-1".split(','), &["link"]).is_err());
    }

    #[test]
    fn fields_name_the_key_and_seeds_take_hex_or_decimal() {
        assert_eq!(field::<u32>("bits", "24"), Ok(24));
        assert_eq!(field::<u32>("bits", "x"), Err("invalid bits `x`".into()));
        assert_eq!(field::<f64>("intensity", "0.5"), Ok(0.5));
        assert_eq!(u64_field("seed", "0x10"), u64_field("seed", "16"));
        assert_eq!(u64_field("seed", "0XFF"), Ok(255));
        assert_eq!(u64_field("seed", "0xzz"), Err("invalid seed `0xzz`".into()));
        assert!(u64_field("seed", "-1").is_err());
    }
}
