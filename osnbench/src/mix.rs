//! The read traffic mix and the oracle every answer is checked against.
//!
//! No real traffic exists for this daemon, so the mix is an assumption:
//! 45% `/v1/metrics/{day}`, 30% `/v1/communities/{day}`, 10% `/v1/days`
//! and 5% each of `/v1/head`, `/v1/meta` and `/healthz`. Days are drawn
//! Zipf(s = 1) over the queryable days, newest first, and half of all
//! requests ask for gzip.

use osn_core::query::SnapshotQuery;
use osn_graph::Day;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    Metrics(Day),
    Communities(Day),
    Days,
    Head,
    Meta,
    Health,
}

impl Target {
    pub fn path(self) -> String {
        match self {
            Target::Metrics(d) => format!("/v1/metrics/{d}"),
            Target::Communities(d) => format!("/v1/communities/{d}"),
            Target::Days => "/v1/days".to_string(),
            Target::Head => "/v1/head".to_string(),
            Target::Meta => "/v1/meta".to_string(),
            Target::Health => "/healthz".to_string(),
        }
    }
}

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub target: Target,
    pub gzip: bool,
}

impl Request {
    pub fn bytes(&self) -> Vec<u8> {
        crate::http::get(&self.target.path(), self.gzip)
    }
}

/// Seeded request generator.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    /// `harmonic[k]` = Σ_{i=1..k} 1/i, for Zipf(1) draws by bisection.
    harmonic: Vec<f64>,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed),
            harmonic: vec![0.0],
        }
    }

    /// Index into a list of `n` days, 0 = newest, Zipf(1) distributed.
    fn zipf_rank(&mut self, n: usize) -> usize {
        while self.harmonic.len() <= n {
            let k = self.harmonic.len();
            let last = self.harmonic[k - 1];
            self.harmonic.push(last + 1.0 / k as f64);
        }
        let u = self.rng.unit() * self.harmonic[n];
        // First k in 1..=n with harmonic[k] > u.
        self.harmonic[1..=n].partition_point(|&h| h <= u).min(n - 1)
    }

    /// A day from `days` (ascending), newest first; `None` when empty.
    fn day(&mut self, days: &[Day]) -> Option<Day> {
        (!days.is_empty()).then(|| days[days.len() - 1 - self.zipf_rank(days.len())])
    }

    /// The next point request against the given queryable days.
    pub fn next(&mut self, metric_days: &[Day], community_days: &[Day]) -> Request {
        let roll = self.rng.unit();
        let gzip = self.rng.unit() < 0.5;
        let target = if roll < 0.45 {
            self.day(metric_days).map(Target::Metrics)
        } else if roll < 0.75 {
            self.day(community_days).map(Target::Communities)
        } else if roll < 0.85 {
            Some(Target::Days)
        } else if roll < 0.90 {
            Some(Target::Head)
        } else if roll < 0.95 {
            Some(Target::Meta)
        } else {
            Some(Target::Health)
        };
        Request {
            target: target.unwrap_or(Target::Days),
            gzip,
        }
    }
}

/// How a response body is judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Byte-identical to this.
    Exact(Vec<u8>),
    /// A JSON object starting with this prefix.
    JsonPrefix(String),
}

impl Expect {
    pub fn accepts(&self, body: &[u8]) -> bool {
        match self {
            Expect::Exact(want) => body == &want[..],
            Expect::JsonPrefix(prefix) => {
                body.starts_with(prefix.as_bytes()) && body.ends_with(b"}")
            }
        }
    }
}

/// The answer `query` must give for `target`; `follow` says whether the
/// daemon serves a live head (its `/v1/head` differs). `None` means the
/// day has no row, which the mix never asks for.
pub fn expect(query: &SnapshotQuery, target: Target, follow: bool) -> Option<Expect> {
    Some(match target {
        Target::Metrics(d) => Expect::Exact(query.metrics_row_csv(d)?.into_bytes()),
        Target::Communities(d) => Expect::Exact(query.communities_row_csv(d)?.into_bytes()),
        Target::Days => Expect::Exact(query.days_json().into_bytes()),
        Target::Health => Expect::Exact(b"ok\n".to_vec()),
        Target::Meta => {
            // Everything up to the serving crate's version string.
            let full = query.meta_json("");
            Expect::JsonPrefix(full.trim_end_matches("\"}").to_string())
        }
        Target::Head => Expect::JsonPrefix(if follow {
            "{\"follow\":true,".to_string()
        } else {
            "{\"follow\":false,\"health\":\"complete\",\"published\":true,".to_string()
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_shares_and_zipf_favour_the_newest_day() {
        let days: Vec<Day> = (0..50).map(|d| d * 7 + 1).collect();
        let mut mix = Mix::new(42);
        let n = 40_000;
        let (mut metrics, mut newest, mut gzip) = (0, 0, 0);
        for _ in 0..n {
            let r = mix.next(&days, &days);
            gzip += usize::from(r.gzip);
            if let Target::Metrics(d) = r.target {
                metrics += 1;
                newest += usize::from(d == *days.last().unwrap());
            }
        }
        let share = |k: usize| k as f64 / n as f64;
        assert!((share(metrics) - 0.45).abs() < 0.02);
        assert!((share(gzip) - 0.5).abs() < 0.02);
        // Zipf(1) over 50 days: P(newest) = 1 / H_50 ≈ 0.222.
        assert!((newest as f64 / metrics as f64 - 0.222).abs() < 0.02);
        // Same seed, same sequence.
        assert_eq!(
            Mix::new(7).next(&days, &days),
            Mix::new(7).next(&days, &days)
        );
    }

    #[test]
    fn json_prefix_expectations() {
        let e = Expect::JsonPrefix("{\"a\":".to_string());
        assert!(e.accepts(b"{\"a\":1}"));
        assert!(!e.accepts(b"{\"b\":1}"));
        assert!(!e.accepts(b"{\"a\":1"));
    }
}
