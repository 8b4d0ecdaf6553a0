//! Command classes and latency percentiles.
//!
//! Every command a workload sends falls into exactly one class, and
//! latencies are only ever summarised within one class: a percentile
//! over a mixed stream lands on whichever boundary between two command
//! kinds the mix happens to put there.

use std::time::Duration;

/// The class of one protocol command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `match`: a Harmony engine run.
    Match,
    /// Journaled decisions: `accept` / `reject`.
    Edit,
    /// Non-mutating reads: `proposals`, `weights`, `export`.
    Read,
    /// Session and workspace set-up: `session …`, `load`,
    /// `match-config`. Counted, never summarised.
    Setup,
}

impl Class {
    /// The classes that get latency percentiles, in report order.
    pub const TIMED: [Class; 3] = [Class::Match, Class::Edit, Class::Read];

    /// Metric-name stem (`match_p50_ms`, …).
    pub fn name(self) -> &'static str {
        match self {
            Class::Match => "match",
            Class::Edit => "edit",
            Class::Read => "read",
            Class::Setup => "setup",
        }
    }
}

/// Classify one command line. `None` means the benchmark sends a
/// command it has no class for — a bug in the workload, never silently
/// folded into some other class.
pub fn classify(command: &str) -> Option<Class> {
    let words: Vec<&str> = command.split_whitespace().collect();
    match words.as_slice() {
        ["match", _, _] | ["match", _, _, "subtree", _] => Some(Class::Match),
        ["accept" | "reject", _, _, _, _] => Some(Class::Edit),
        ["proposals", _, _, ..] | ["weights"] | ["export"] => Some(Class::Read),
        ["session", "new" | "close" | "attach", ..] | ["load", _, _] | ["match-config", ..] => {
            Some(Class::Setup)
        }
        _ => None,
    }
}

/// Samples beyond a quantile required before it is reported: with
/// fewer, one outlier more or less moves it.
pub const MIN_TAIL: usize = 10;

/// The `q`-quantile (nearest rank) of `samples`, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it. Sorts `samples`.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[rank - 1])
}

/// The `q`-quantile (nearest rank) of `samples` with no tail
/// requirement, 0 when empty: for per-layer diagnostics, which carry no
/// bound.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Client-side command accounting for one run: per-class latencies
/// plus attempted/failed counts over every class.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    /// Every command's class and round trip (ms), in send order.
    sequence: Vec<(Class, f64)>,
    /// Commands sent (any class).
    pub attempted: u64,
    /// Commands answered `err` or lost to an I/O error.
    pub failed: u64,
    /// Bytes of response body received for read-class commands.
    pub read_bytes: u64,
}

impl Recorder {
    /// Record one completed command.
    pub fn record(&mut self, class: Class, elapsed: Duration, ok: bool, body_len: usize) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if class == Class::Read {
            self.read_bytes += body_len as u64;
        }
        self.sequence.push((class, elapsed.as_secs_f64() * 1e3));
    }

    /// Latency samples of one class, in milliseconds, in send order.
    pub fn samples(&self, class: Class) -> Vec<f64> {
        self.sequence
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, ms)| *ms)
            .collect()
    }

    /// The `q`-quantile latency of `class`, if enough samples exist.
    pub fn quantile(&self, class: Class, q: f64) -> Option<f64> {
        percentile(&mut self.samples(class), q)
    }

    /// Add another recorder's commands to this one.
    pub fn merge(&mut self, other: &Recorder) {
        self.sequence.extend_from_slice(&other.sequence);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.read_bytes += other.read_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every command shape the workloads send, with its class.
    const WORKLOAD_COMMANDS: &[(&str, Class)] = &[
        ("match clinical_src clinical_tgt", Class::Match),
        ("accept a b a/E/x b/e/y", Class::Edit),
        ("reject a b a/E/x b/e/y", Class::Edit),
        ("proposals a b k 8 undecided", Class::Read),
        ("proposals a b threshold 0.25", Class::Read),
        ("proposals a b k 8", Class::Read),
        ("weights", Class::Read),
        ("export", Class::Read),
        ("session new", Class::Setup),
        ("session new fleet-a", Class::Setup),
        ("session attach fleet-a", Class::Setup),
        ("session close", Class::Setup),
        ("load er clinical_src", Class::Setup),
        ("match-config threads 1", Class::Setup),
    ];

    #[test]
    fn every_workload_command_has_exactly_one_class() {
        for &(command, class) in WORKLOAD_COMMANDS {
            assert_eq!(classify(command), Some(class), "{command}");
        }
    }

    #[test]
    fn unclassified_commands_are_refused() {
        for command in [
            "",
            "query ? ? ?",
            "generate a b",
            "match a",
            "accept a b x",
            "shutdown",
            "repl promote s 3",
        ] {
            assert_eq!(classify(command), None, "{command:?}");
        }
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let mut few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&mut few, 0.9), None, "99 samples: 9 beyond p90");
        let mut enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut enough, 0.9), Some(90.0));
        let mut tail = enough.clone();
        let p = percentile(&mut tail, 0.9).unwrap();
        assert_eq!(tail.iter().filter(|&&v| v > p).count(), MIN_TAIL);
    }

    #[test]
    fn p50_is_the_nearest_rank_median() {
        let mut v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(20.0));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn recorder_keeps_classes_apart() {
        let mut r = Recorder::default();
        for i in 0..120 {
            r.record(Class::Match, Duration::from_millis(100), true, 0);
            r.record(Class::Read, Duration::from_micros(100 + i), true, 10);
        }
        r.record(Class::Setup, Duration::from_millis(5), false, 0);
        assert_eq!(r.attempted, 241);
        assert_eq!(r.failed, 1);
        assert_eq!(r.read_bytes, 1200);
        assert_eq!(r.quantile(Class::Match, 0.9), Some(100.0));
        assert!(r.quantile(Class::Read, 0.9).unwrap() < 1.0);
        assert_eq!(r.quantile(Class::Edit, 0.5), None);
    }
}
