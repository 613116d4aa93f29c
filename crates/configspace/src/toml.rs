//! A deliberately tiny TOML-subset reader.
//!
//! The container ships no serde/toml crates, so the config space carries
//! its own codec for the two documents it owns: flat `key = value` config
//! files ([`crate::to_toml`]) and sweep specs with one level of
//! `[section]` nesting and scalar arrays ([`crate::SweepSpec`]). Supported
//! grammar, a strict subset of TOML:
//!
//! ```toml
//! # comment
//! key = 128            # integers (optional k/m binary suffix)
//! key = true           # bools
//! key = "text"         # strings
//! [section]
//! key = [1, 2, 3]      # arrays of scalars
//! ```
//!
//! Anything outside the subset is a loud error — a sweep spec that cannot
//! be fully understood must not be silently half-applied.

use crate::value::Value;

/// One `key = value` line, tagged with the `[section]` it appeared under
/// (`""` for the top level).
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Enclosing section name, `""` at top level.
    pub section: String,
    /// The key.
    pub key: String,
    /// The parsed right-hand side.
    pub value: Entry,
}

/// A right-hand side: a scalar or an array of scalars.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A scalar literal.
    Scalar(Value),
    /// An array of scalar literals.
    Array(Vec<Value>),
}

impl Entry {
    /// The scalar payload, if this is a scalar.
    #[must_use]
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            Entry::Scalar(v) => Some(v),
            Entry::Array(_) => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Entry::Array(vs) => Some(vs),
            Entry::Scalar(_) => None,
        }
    }
}

/// A parsed document: items in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// Every `key = value` line, in order of appearance.
    pub items: Vec<Item>,
}

impl Document {
    /// The first top-level scalar under `key`, if present.
    #[must_use]
    pub fn top_scalar(&self, key: &str) -> Option<&Value> {
        self.items
            .iter()
            .find(|i| i.section.is_empty() && i.key == key)
            .and_then(|i| i.value.as_scalar())
    }

    /// All items under `section`, in order.
    #[must_use]
    pub fn section(&self, section: &str) -> Vec<&Item> {
        self.items.iter().filter(|i| i.section == section).collect()
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Checks a key is a bare TOML key (letters, digits, `_`, `-`).
fn check_key(key: &str, lineno: usize) -> Result<(), String> {
    if !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
        Ok(())
    } else {
        Err(format!("line {lineno}: malformed key {key:?}"))
    }
}

/// Parses a document in the subset grammar.
///
/// # Errors
///
/// Reports the first offending line: malformed keys or section headers,
/// missing `=`, unterminated arrays, and scalar literals [`Value::parse`]
/// rejects.
pub fn parse(text: &str) -> Result<Document, String> {
    let mut doc = Document::default();
    let mut section = String::new();
    for (n, raw) in text.lines().enumerate() {
        let lineno = n + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated section header"))?
                .trim();
            check_key(name, lineno)?;
            section = name.to_string();
            continue;
        }
        let (key, rhs) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`, got {line:?}"))?;
        let key = key.trim();
        check_key(key, lineno)?;
        let rhs = rhs.trim();
        let value = if let Some(inner) = rhs.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated array"))?;
            let mut vals = Vec::new();
            for part in inner.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue; // tolerate a trailing comma
                }
                vals.push(
                    Value::parse(part).map_err(|e| format!("line {lineno}: {e}"))?,
                );
            }
            if vals.is_empty() {
                return Err(format!("line {lineno}: empty array for {key:?}"));
            }
            Entry::Array(vals)
        } else {
            Entry::Scalar(Value::parse(rhs).map_err(|e| format!("line {lineno}: {e}"))?)
        };
        doc.items.push(Item { section: section.clone(), key: key.to_string(), value });
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let doc = parse(
            "# header\n\
             name = \"demo\" # trailing\n\
             count = 8k\n\
             fast = true\n\
             [axes]\n\
             ruu_size = [64, 128, 256,]\n",
        )
        .expect("parses");
        assert_eq!(doc.top_scalar("name"), Some(&Value::Str("demo".into())));
        assert_eq!(doc.top_scalar("count"), Some(&Value::Int(8192)));
        assert_eq!(doc.top_scalar("fast"), Some(&Value::Bool(true)));
        let axes = doc.section("axes");
        assert_eq!(axes.len(), 1);
        assert_eq!(
            axes[0].value.as_array().unwrap(),
            &[Value::Int(64), Value::Int(128), Value::Int(256)]
        );
        assert_eq!(doc.top_scalar("ruu_size"), None, "sectioned keys are not top-level");
    }

    #[test]
    fn comments_respect_strings() {
        let doc = parse("s = \"a#b\"\n").expect("parses");
        assert_eq!(doc.top_scalar("s"), Some(&Value::Str("a#b".into())));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse("key value\n").is_err(), "missing =");
        assert!(parse("[open\n").is_err(), "unterminated section");
        assert!(parse("a = [1, 2\n").is_err(), "unterminated array");
        assert!(parse("a = []\n").is_err(), "empty array");
        assert!(parse("a b = 1\n").is_err(), "malformed key");
        assert!(parse("a = 1.5\n").is_err(), "floats are outside the subset");
    }
}
