//! Metric collection, correctness gates and the output format.

use std::fmt::Write as _;

use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Measured but not part of this mode's metric list: printed in
    /// the table, left out of the result line.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Gate name and failure count of every gate that failed.
    pub gate_failures: Vec<(String, u64)>,
}

/// Metric names: letters, digits, `_`, `.` and `-`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Report {
    /// Records a value measured as one quantity over `n` samples.
    pub fn exact(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        if !valid_name(name) {
            self.fail_gate(&format!("metric_name:{name}"), 1);
        }
        if !value.is_finite() {
            self.fail_gate(&format!("finite:{name}"), 1);
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    /// Records the median of `samples`.
    pub fn median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        match stats::median(samples) {
            Some(m) => self.exact(name, m, unit, samples.len()),
            None => self.fail_gate(&format!("no_samples:{name}"), 1),
        }
    }

    /// Records percentile `q` of `samples` under the ≥ 10-beyond rule; a
    /// refused percentile fails the run rather than print a number it
    /// did not measure.
    pub fn percentile(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        match stats::percentile(samples, q) {
            Some((v, n)) => self.exact(name, v, unit, n),
            None => self.fail_gate(&format!("too_few_samples:{name}:n={}", samples.len()), 1),
        }
    }

    /// Records [`stats::windowed_percentile`] of `samples`; refused like
    /// [`Report::percentile`].
    pub fn windowed_percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        window: usize,
        q: f64,
        unit: &'static str,
    ) {
        match stats::windowed_percentile(samples, window, q) {
            Some((v, n)) => self.exact(name, v, unit, n),
            None => self.fail_gate(&format!("too_few_samples:{name}:n={}", samples.len()), 1),
        }
    }

    /// Counts `failures` against gate `gate` (no-op for zero).
    pub fn fail_gate(&mut self, gate: &str, failures: u64) {
        if failures > 0 {
            self.failed += failures;
            self.gate_failures.push((gate.to_string(), failures));
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Keeps only the listed metrics (in that order); a missing one, or
    /// one with another unit, fails the run.
    pub fn select(&mut self, wanted: &[(&str, &str)]) {
        let mut kept = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => kept.push(m.clone()),
                Some(_) => self.fail_gate(&format!("unit:{name}"), 1),
                None => self.fail_gate(&format!("missing:{name}"), 1),
            }
        }
        let listed = |m: &Metric| wanted.iter().any(|&(name, _)| name == m.name);
        self.info = self.metrics.drain(..).filter(|m| !listed(m)).collect();
        self.metrics = kept;
    }

    /// Human-readable table: one metric per line with unit and sample
    /// count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<44} {:>18.6} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        for m in &self.info {
            let _ = writeln!(
                out,
                "  (info) {:<37} {:>18.6} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        for (gate, n) in &self.gate_failures {
            let _ = writeln!(out, "  GATE FAILED {gate}: {n}");
        }
        out
    }

    /// The result line. A run whose gates failed reports no numbers.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        if self.correct() {
            for (i, m) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                );
            }
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_charset() {
        assert!(valid_name("linalg.ols_into.ns"));
        assert!(valid_name("fix_latency_p99_us"));
        assert!(valid_name("core.service.process_round.p90_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("core.solver.{nr}"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn failed_gate_suppresses_numbers() {
        let mut r = Report::default();
        r.exact("a", 1.5, "ms", 3);
        r.attempted = 10;
        assert!(r
            .json()
            .contains("\"a\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        r.fail_gate("parity", 2);
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 2, \"metrics\": {}}"
        );
    }

    #[test]
    fn too_few_samples_is_a_failure_not_a_number() {
        let mut r = Report::default();
        r.percentile("p99", &[1.0; 500], 0.99, "us");
        assert!(!r.correct());
        assert!(r.metrics.is_empty());
    }

    #[test]
    fn select_orders_and_flags_missing() {
        let mut r = Report::default();
        r.exact("b", 2.0, "s", 1);
        r.exact("a", 1.0, "s", 1);
        r.exact("extra", 3.0, "s", 1);
        r.select(&[("a", "s"), ("b", "s")]);
        assert_eq!(r.metrics[0].name, "a");
        assert_eq!(r.info.len(), 1);
        assert!(!r.json().contains("extra"));
        assert!(r.table().contains("(info) extra"));
        assert!(r.correct());
        r.select(&[("a", "ms")]);
        assert!(!r.correct());
        let mut r = Report::default();
        r.select(&[("c", "s")]);
        assert!(!r.correct());
    }
}
