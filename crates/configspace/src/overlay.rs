//! Diff/overlay composition: a sweep point is `base + {ruu_size: 128,
//! stack_ports: 4}`, not a fresh 35-field document.

use std::fmt;

use svf_cpu::CpuConfig;

use crate::config;
use crate::value::Value;

/// An ordered list of field assignments applied on top of a base config.
///
/// Application is **last-write-wins**: assignments apply in order, so a
/// later assignment to the same field silently supersedes an earlier one
/// (that is composition, not a lint error) — but a field name the config
/// does not know, or a value of the wrong type, fails the whole overlay:
/// no assignment is ever silently dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Overlay {
    assigns: Vec<(String, Value)>,
}

impl Overlay {
    /// An empty overlay (applying it is the identity).
    #[must_use]
    pub fn new() -> Overlay {
        Overlay::default()
    }

    /// Appends one assignment (builder style).
    #[must_use]
    pub fn assign(mut self, field: &str, value: Value) -> Overlay {
        self.assigns.push((field.to_string(), value));
        self
    }

    /// The assignments, in application order.
    #[must_use]
    pub fn assigns(&self) -> &[(String, Value)] {
        &self.assigns
    }

    /// Whether the overlay changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assigns.is_empty()
    }

    /// Parses the compact overlay syntax: comma-separated `field=value`
    /// (or `field: value`) pairs, with optional surrounding braces —
    /// `{ruu_size: 128, stack_ports: 4}` and `ruu_size=128,stack_ports=4`
    /// parse identically. Values follow [`Value::parse`] (so
    /// `svf_bytes=8k` and `stack_engine=svf` work unquoted).
    ///
    /// # Errors
    ///
    /// Rejects malformed pairs and malformed values. Field-name validity
    /// is checked at [`Overlay::apply`] time, against the actual config.
    pub fn parse(text: &str) -> Result<Overlay, String> {
        let t = text.trim();
        let t = match t.strip_prefix('{') {
            Some(rest) => rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated brace in overlay {text:?}"))?,
            None => t,
        };
        let mut overlay = Overlay::new();
        for pair in t.split([',', '\n']).map(str::trim).filter(|p| !p.is_empty()) {
            let (field, value) = pair
                .split_once(['=', ':'])
                .ok_or_else(|| format!("overlay wants field=value pairs, got {pair:?}"))?;
            overlay = overlay.assign(field.trim(), Value::parse(value)?);
        }
        Ok(overlay)
    }

    /// Applies the overlay to a base config, in order, last write winning,
    /// then checks the finished config's cache geometry once (so the order
    /// of the assignments never matters).
    ///
    /// # Errors
    ///
    /// Fails (leaving no partial result) on unknown field names, values
    /// [`config::set`] rejects, or cache geometry that does not divide
    /// into a power-of-two number of sets.
    pub fn apply(&self, base: &CpuConfig) -> Result<CpuConfig, String> {
        let mut cfg = base.clone();
        for (field, value) in &self.assigns {
            config::set(&mut cfg, field, value)?;
        }
        config::validate(&cfg)?;
        Ok(cfg)
    }

    /// Concatenates overlays: `a.then(b)` applies `a` first, then `b`
    /// (so `b` wins conflicts, matching last-write-wins).
    #[must_use]
    pub fn then(mut self, later: Overlay) -> Overlay {
        self.assigns.extend(later.assigns);
        self
    }
}

impl fmt::Display for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (field, value)) in self.assigns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}: {value}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_braced_syntax_parse_identically() {
        let a = Overlay::parse("{ruu_size: 128, stack_ports: 4}").expect("braced");
        let b = Overlay::parse("ruu_size=128,stack_ports=4").expect("compact");
        assert_eq!(a, b);
        assert!(
            Overlay::parse("ruu_size=128 stack_ports=4").is_err(),
            "pairs without commas error loudly instead of misparsing"
        );
        let cfg = a.apply(&CpuConfig::wide16()).expect("applies");
        assert_eq!(cfg.ruu_size, 128);
        assert_eq!(cfg.stack_ports, 4);
    }

    #[test]
    fn last_write_wins_and_nothing_drops() {
        let o = Overlay::parse("ruu_size=64, ruu_size=128").expect("parses");
        let cfg = o.apply(&CpuConfig::wide16()).expect("applies");
        assert_eq!(cfg.ruu_size, 128, "last write wins");
        let bad = Overlay::parse("ruu_siez=64").expect("parse defers name checks");
        let err = bad.apply(&CpuConfig::wide16()).expect_err("unknown field");
        assert!(err.contains("ruu_siez"), "{err}");
        assert!(Overlay::parse("ruu_size").is_err(), "pair without a value");
    }

    #[test]
    fn then_composes_in_order() {
        let a = Overlay::parse("svf_bytes=4k").unwrap();
        let b = Overlay::parse("svf_bytes=8k, stack_engine=svf, stack_ports=2").unwrap();
        let cfg = a.then(b).apply(&CpuConfig::wide16()).unwrap();
        assert_eq!(cfg.svf.capacity_bytes, 8192);
        assert_eq!(cfg.stack_engine, svf_cpu::StackEngine::Svf);
    }

    #[test]
    fn engine_parameters_compose_in_either_order() {
        let before = Overlay::parse("svf_bytes=2k, stack_engine=svf, stack_ports=1").unwrap();
        let after = Overlay::parse("stack_ports=1, stack_engine=svf, svf_bytes=2k").unwrap();
        let base = CpuConfig::wide16();
        assert_eq!(before.apply(&base).unwrap(), after.apply(&base).unwrap());
    }

    #[test]
    fn geometry_is_checked_on_the_finished_config() {
        let base = CpuConfig::wide16();
        let err = Overlay::parse("dl1_assoc=3").unwrap().apply(&base).unwrap_err();
        assert!(err.contains("dl1"), "{err}");
        let shrink = Overlay::parse("dl1_bytes=64, dl1_assoc=1, dl1_line_bytes=8").unwrap();
        assert_eq!(shrink.apply(&base).unwrap().hierarchy.dl1.size_bytes, 64);
    }

    #[test]
    fn display_is_the_issue_syntax() {
        let o = Overlay::parse("ruu_size=128, stack_engine=svf").unwrap();
        assert_eq!(o.to_string(), "{ruu_size: 128, stack_engine: svf}");
    }
}
