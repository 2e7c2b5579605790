//! Seeded randomness, order statistics, the metric table and readers for
//! the daemon's JSON replies.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use rel_service::json::Value;

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs on every platform and commit.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The figure a time sampled across a run is reported as: the fast fifth
/// of its samples (nearest-rank 20th percentile; `fast_high`, the 80th, for
/// rates).  The shared host alternates between a fast and a slower speed
/// every second or so, and a slow stretch only ever adds time, so this
/// figure holds as long as a fifth of the samples ran fast, while a change
/// that slows every sample moves it fully.
pub fn fast_low(samples: &[f64]) -> f64 {
    percentile(samples, 0.2)
}

pub fn fast_high(samples: &[f64]) -> f64 {
    percentile(samples, 0.8)
}

/// Times one run of a fixed workload of this package's own code, in ms:
/// allocation, hashing, sorting and tree walks, the kinds of work the
/// checker and the daemon do.  No change to the program touches it, so its
/// time measures only the host's speed (see `scale_to_host` in main.rs).
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::new(0x2ef);
    let mut groups: HashMap<String, Vec<u64>> = HashMap::new();
    let mut tree = BTreeMap::new();
    for i in 0..REFERENCE_ITEMS {
        let key = format!("v{}", rng.next_u64() % 4096);
        tree.insert(rng.next_u64() % 65_536, key.clone());
        groups.entry(key).or_default().push(i);
    }
    let mut keys: Vec<&String> = tree.values().collect();
    keys.sort();
    keys.dedup();
    let acc = groups
        .values()
        .map(|v| v.iter().sum::<u64>())
        .fold(keys.len() as u64, u64::wrapping_add);
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

const REFERENCE_ITEMS: u64 = 20_000;

/// Peak resident set (VmHWM) of a process in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Adds `value` to the metric `name`, which starts at 0.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.entry(name.to_string()).or_insert((0.0, unit)).0 += value;
    }

    pub fn add_all(&mut self, other: &Metrics) {
        for (name, (value, unit)) in &other.0 {
            self.add(name, *value, unit);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }
}

/// Lookups on a daemon reply that read an absent or mistyped field as 0,
/// false or empty.
pub trait Reply {
    /// The number at `key`.
    fn num(&self, key: &str) -> f64;
    /// The number at a dotted path such as `wal.appends`.
    fn path_num(&self, path: &str) -> f64;
    /// Whether `key` is `true`.
    fn flag(&self, key: &str) -> bool;
    /// The array at `key`.
    fn items(&self, key: &str) -> &[Value];
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(n) => *n as f64,
        Value::Num(x) => *x,
        _ => 0.0,
    }
}

impl Reply for Value {
    fn num(&self, key: &str) -> f64 {
        self.get(key).map_or(0.0, number)
    }

    fn path_num(&self, path: &str) -> f64 {
        path.split('.')
            .try_fold(self, |v, part| v.get(part))
            .map_or(0.0, number)
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key) == Some(&Value::Bool(true))
    }

    fn items(&self, key: &str) -> &[Value] {
        match self.get(key) {
            Some(Value::Arr(items)) => items,
            _ => &[],
        }
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    Value::Str(s.to_string()).to_string()
}

/// What a workload run hands back to `main`.
pub struct RunOut {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Wrong verdicts and determinism mismatches; any makes `correct` false.
    pub wrong: Vec<String>,
    /// Exact counts for the cross-run determinism check, by record name.
    pub det: Vec<(String, Vec<u64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn seeded_streams_repeat() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }

    #[test]
    fn replies_read_by_name() {
        let v = rel_service::json::parse(
            r#"{"ok":true,"defs":[{"us":-1.5e2,"n":3}],"cache":{"wal":{"appends":4}}}"#,
        )
        .unwrap();
        assert!(v.flag("ok") && !v.flag("defs"));
        assert_eq!(v.items("defs")[0].num("us"), -150.0);
        assert_eq!(v.items("defs")[0].num("n"), 3.0);
        assert_eq!(v.path_num("cache.wal.appends"), 4.0);
        assert_eq!(v.path_num("cache.wal.bytes"), 0.0);
        assert_eq!(quote("x\n\"y\""), r#""x\n\"y\"""#);
        let (mut m, mut n) = (Metrics::default(), Metrics::default());
        m.add("a", 1.5, "ms");
        n.add("a", 1.0, "ms");
        n.add("b", 2.0, "count");
        m.add_all(&n);
        assert_eq!((m.get("a"), m.get("b")), (2.5, 2.0));
    }
}
