//! The scalar value type flowing between config fields, overlays, TOML
//! documents, and sweep axes.

use std::fmt;

/// A scalar config value: integer, bool, or string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An unsigned integer (all numeric config fields are u64-valued).
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string (enum-like fields: `predictor`, `stack_engine`).
    Str(String),
}

impl Value {
    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as a TOML literal (strings quoted).
    #[must_use]
    pub fn to_toml(&self) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => format!("{s:?}"),
        }
    }

    /// Parses a scalar literal: `true`/`false`, an integer (with optional
    /// `k`/`m` binary suffix: `8k` = 8·1024), a double-quoted string, or a
    /// bare identifier (treated as a string, so overlays can say
    /// `stack_engine=svf` without quotes).
    ///
    /// # Errors
    ///
    /// Rejects empty input, unterminated strings, and malformed numbers.
    pub fn parse(text: &str) -> Result<Value, String> {
        let t = text.trim();
        if t.is_empty() {
            return Err("empty value".to_string());
        }
        if t == "true" {
            return Ok(Value::Bool(true));
        }
        if t == "false" {
            return Ok(Value::Bool(false));
        }
        if let Some(inner) = t.strip_prefix('"') {
            let inner = inner
                .strip_suffix('"')
                .ok_or_else(|| format!("unterminated string {t:?}"))?;
            if inner.contains('"') {
                return Err(format!("stray quote inside {t:?}"));
            }
            return Ok(Value::Str(inner.to_string()));
        }
        if t.starts_with(|c: char| c.is_ascii_digit()) {
            let (digits, shift) = match t.strip_suffix(['k', 'K']) {
                Some(d) => (d, 10),
                None => match t.strip_suffix(['m', 'M']) {
                    Some(d) => (d, 20),
                    None => (t, 0),
                },
            };
            let n: u64 = digits
                .parse()
                .map_err(|_| format!("malformed integer {t:?}"))?;
            return n
                .checked_shl(shift)
                .filter(|v| v >> shift == n)
                .map(Value::Int)
                .ok_or_else(|| format!("integer {t:?} overflows"));
        }
        if t.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
            return Ok(Value::Str(t.to_string()));
        }
        Err(format!("malformed value {t:?}"))
    }
}

/// The literal [`Value::parse`] reads back as the same value: a string is
/// bare when it reads back as itself (`svf`, `stack-cache`) and quoted
/// otherwise (`"true"`, `"8k"`, `"a:b"`).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) if Value::parse(s).as_ref() == Ok(self) => write!(f, "{s}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("128").unwrap(), Value::Int(128));
        assert_eq!(Value::parse("8k").unwrap(), Value::Int(8192));
        assert_eq!(Value::parse("2M").unwrap(), Value::Int(2 << 20));
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("\"svf\"").unwrap(), Value::Str("svf".into()));
        assert_eq!(Value::parse("stack-cache").unwrap(), Value::Str("stack-cache".into()));
        assert!(Value::parse("").is_err());
        assert!(Value::parse("\"open").is_err());
        assert!(Value::parse("12x4").is_err());
        assert!(Value::parse("a b").is_err());
    }

    #[test]
    fn toml_rendering_round_trips() {
        for v in [Value::Int(64), Value::Bool(false), Value::Str("gshare".into())] {
            assert_eq!(Value::parse(&v.to_toml()).unwrap(), v);
        }
    }

    #[test]
    fn display_quotes_what_would_read_back_as_something_else() {
        for (v, shown) in [
            (Value::Str("svf".into()), "svf"),
            (Value::Str("stack-cache".into()), "stack-cache"),
            (Value::Str("true".into()), "\"true\""),
            (Value::Str("8k".into()), "\"8k\""),
            (Value::Str("a:b".into()), "\"a:b\""),
            (Value::Int(8192), "8192"),
        ] {
            assert_eq!(v.to_string(), shown);
            assert_eq!(Value::parse(shown), Ok(v));
        }
    }

    #[test]
    fn suffix_overflow_is_rejected() {
        assert!(Value::parse(&format!("{}k", u64::MAX)).is_err());
        assert!(Value::parse(&format!("{}m", u64::MAX / 2)).is_err());
    }
}
