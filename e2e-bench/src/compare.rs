//! Comparing two sets of benchmark runs (a baseline and a change).
//!
//! The rule: run both sides on the same seeds, pair runs by seed, and for
//! every (metric, workload)
//!
//! * report each side's median and quartiles and how many pairs the change
//!   won (ties count for neither side);
//! * call it a **gain** only if the change won at least nine tenths of the
//!   pairs and the medians differ by more than the baseline's own
//!   interquartile distance;
//! * otherwise, for a metric with a bound, call it **unresolved** when the
//!   baseline's spread is wider than the bound (unless every change run
//!   beats every baseline run), a **regression** when the change's median
//!   is worse by more than the bound, and **within bound** otherwise.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use crate::table::Better;

/// One run's result, as the benchmark appends it with `--jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed the run used.
    pub seed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing `workload`, `seed` or `metrics` member.
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = Json::parse(line)?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record has no workload")?;
        let seed = v
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or("record has no seed")?;
        let members = v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("record has no metrics")?;
        let mut metrics = BTreeMap::new();
        for (name, m) in members {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            metrics.insert(name.clone(), value);
        }
        Ok(Record {
            workload: workload.to_string(),
            seed: seed as u64,
            metrics,
        })
    }
}

/// Parses a JSONL file's text, skipping blank lines.
///
/// # Errors
///
/// The first malformed line, with its line number.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The outcome for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9/10 of the pairs by more than the
    /// baseline's spread.
    Gain,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse than the bound allows.
    Regression,
    /// The baseline's own spread is wider than the bound.
    Unresolved,
    /// A metric without a bound that shows no gain.
    NoClaim,
}

impl Verdict {
    /// Lower-case label for printing.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::WithinBound => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NoClaim => "-",
        }
    }
}

/// Summary of one (metric, workload) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Baseline median.
    pub base_median: f64,
    /// Baseline first and third quartiles.
    pub base_quartiles: (f64, f64),
    /// Change median.
    pub new_median: f64,
    /// Change first and third quartiles.
    pub new_quartiles: (f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The baseline's interquartile spread as a share of its median.
    pub base_spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one (metric, workload): `base` and `new` are the two sides'
/// values, `pairs` the seed-matched `(base, new)` pairs.
#[must_use]
pub fn judge(
    base: &[f64],
    new: &[f64],
    pairs: &[(f64, f64)],
    better: Better,
    bound: Option<f64>,
) -> Judgement {
    let base_median = median(base);
    let new_median = median(new);
    let base_quartiles = quartiles(base);
    let wins = pairs
        .iter()
        .filter(|(b, n)| better.improves(*n, *b))
        .count();
    let base_spread = spread(base);
    let iqr = base_quartiles.1 - base_quartiles.0;
    let gain = !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better.improves(new_median, base_median)
        && (new_median - base_median).abs() > iqr;
    let every_run_better = !base.is_empty()
        && !new.is_empty()
        && new
            .iter()
            .all(|&n| base.iter().all(|&b| better.improves(n, b)));
    let verdict = if gain {
        Verdict::Gain
    } else {
        match bound {
            None => Verdict::NoClaim,
            Some(bound) if base_spread > bound && !every_run_better => Verdict::Unresolved,
            Some(bound) if better.worsening(new_median, base_median) > bound => Verdict::Regression,
            Some(_) => Verdict::WithinBound,
        }
    };
    Judgement {
        base_median,
        base_quartiles,
        new_median,
        new_quartiles: quartiles(new),
        wins,
        pairs: pairs.len(),
        base_spread,
        verdict,
    }
}

/// Seed-matched `(base, new)` values of `metric` on `workload`: the i-th
/// baseline run of a seed pairs with the i-th change run of that seed.
#[must_use]
pub fn pair_by_seed(
    base: &[Record],
    new: &[Record],
    workload: &str,
    metric: &str,
) -> Vec<(f64, f64)> {
    let side = |rs: &[Record]| {
        let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for r in rs.iter().filter(|r| r.workload == workload) {
            if let Some(&v) = r.metrics.get(metric) {
                by_seed.entry(r.seed).or_default().push(v);
            }
        }
        by_seed
    };
    let (b, n) = (side(base), side(new));
    b.iter()
        .filter_map(|(seed, bs)| {
            n.get(seed)
                .map(|ns| bs.iter().copied().zip(ns.iter().copied()))
        })
        .flatten()
        .collect()
}

/// All values of `metric` on `workload`.
#[must_use]
pub fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(f: impl Fn(f64) -> f64) -> Vec<f64> {
        (0..10).map(|i| f(f64::from(i))).collect()
    }

    fn zip(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn a_consistent_large_win_is_a_gain() {
        let base = ten(|i| 10.0 + 0.01 * i);
        let new = ten(|i| 9.0 + 0.01 * i);
        let j = judge(&base, &new, &zip(&base, &new), Better::Lower, Some(0.1));
        assert_eq!((j.wins, j.pairs, j.verdict), (10, 10, Verdict::Gain));
    }

    #[test]
    fn a_win_inside_the_baseline_spread_is_not_a_gain() {
        // The change wins every pair, but by less than the baseline's own
        // interquartile distance.
        let base = ten(|i| 10.0 + i);
        let new = ten(|i| 9.9 + i);
        let j = judge(&base, &new, &zip(&base, &new), Better::Lower, None);
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::NoClaim);
    }

    #[test]
    fn eight_of_ten_wins_is_not_a_gain() {
        let base = ten(|_| 10.0);
        let mut new = ten(|_| 5.0);
        new[0] = 11.0;
        new[1] = 10.0; // a tie counts for neither side
        let j = judge(&base, &new, &zip(&base, &new), Better::Lower, Some(0.1));
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::WithinBound);
    }

    #[test]
    fn regressions_and_unresolved_spreads() {
        let base = ten(|i| 100.0 + 0.1 * i);
        let slower = ten(|i| 120.0 + 0.1 * i);
        let j = judge(
            &base,
            &slower,
            &zip(&base, &slower),
            Better::Lower,
            Some(0.1),
        );
        assert_eq!(j.verdict, Verdict::Regression);
        let within = ten(|i| 105.0 + 0.1 * i);
        let j = judge(
            &base,
            &within,
            &zip(&base, &within),
            Better::Lower,
            Some(0.1),
        );
        assert_eq!(j.verdict, Verdict::WithinBound);
        // Higher-is-better metrics regress downwards.
        let j = judge(&base, &ten(|_| 80.0), &[], Better::Higher, Some(0.1));
        assert_eq!(j.verdict, Verdict::Regression);

        let noisy = ten(|i| 50.0 + 20.0 * i);
        let j = judge(
            &noisy,
            &noisy,
            &zip(&noisy, &noisy),
            Better::Lower,
            Some(0.1),
        );
        assert_eq!(
            j.verdict,
            Verdict::Unresolved,
            "spread {:.2} > bound",
            j.base_spread
        );
        // ...unless every change run beats every baseline run.
        let j = judge(&noisy, &ten(|_| 1.0), &[], Better::Lower, Some(0.1));
        assert_eq!(j.verdict, Verdict::WithinBound);
    }

    #[test]
    fn records_parse_and_pair_by_seed() {
        let text = "\
{\"workload\": \"w\", \"seed\": 1, \"metrics\": {\"m\": {\"value\": 1.5, \"unit\": \"s\"}}}\n\
\n\
{\"workload\": \"w\", \"seed\": 2, \"metrics\": {\"m\": {\"value\": 2.5, \"unit\": \"s\"}}}\n\
{\"workload\": \"x\", \"seed\": 1, \"metrics\": {\"m\": {\"value\": 9.0, \"unit\": \"s\"}}}\n";
        let base = parse_records(text).expect("parses");
        assert_eq!(base.len(), 3);
        let new = parse_records(
            "{\"workload\": \"w\", \"seed\": 2, \"metrics\": {\"m\": {\"value\": 2.0, \"unit\": \"s\"}}}",
        )
        .expect("parses");
        assert_eq!(pair_by_seed(&base, &new, "w", "m"), vec![(2.5, 2.0)]);
        assert_eq!(values(&base, "w", "m"), vec![1.5, 2.5]);
        assert!(parse_records("{\"seed\": 1}").is_err());
        assert!(parse_records("not json").unwrap_err().starts_with("line 1"));
    }
}
