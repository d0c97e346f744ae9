//! Reads a pool's metrics registry through its Prometheus text exposition,
//! the same view an operator scraping `/metrics` gets. Two scrapes taken
//! around a phase give that phase's counts and distributions.

use std::collections::BTreeMap;

use respct::MetricsRegistry;

/// One scrape: every sample line, keyed by its series name (labels
/// included, e.g. `respct_rp_stall_ns_bucket{le="1023"}`).
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

/// A histogram's change between two scrapes.
#[derive(Debug, Default)]
pub struct HistDelta {
    /// `(inclusive upper bound, observations)` per non-empty bucket.
    pub buckets: Vec<(f64, f64)>,
    pub count: f64,
    pub sum: f64,
}

impl HistDelta {
    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// Upper bound of the bucket holding quantile `q`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let rank = (q * self.count).ceil().max(1.0);
        let mut seen = 0.0;
        for &(bound, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bound;
            }
        }
        self.buckets.last().map_or(0.0, |b| b.0)
    }
}

impl Scrape {
    pub fn of(registry: &MetricsRegistry) -> Scrape {
        Scrape::parse(&registry.to_prometheus())
    }

    pub fn parse(text: &str) -> Scrape {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        Scrape { series }
    }

    /// A counter or gauge; 0 when the series does not exist (yet).
    pub fn value(&self, name: &str) -> f64 {
        self.series.get(name).copied().unwrap_or(0.0)
    }

    /// Non-cumulative bucket counts of histogram `name`, keyed by bound.
    fn buckets(&self, name: &str) -> BTreeMap<u64, f64> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut cumulative: Vec<(u64, f64)> = self
            .series
            .iter()
            .filter_map(|(k, &v)| {
                let bound = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                Some((bound.parse().ok()?, v))
            })
            .collect();
        cumulative.sort_by_key(|&(b, _)| b);
        let mut prev = 0.0;
        cumulative
            .into_iter()
            .map(|(b, cum)| {
                let c = cum - prev;
                prev = cum;
                (b, c)
            })
            .collect()
    }

    /// The change of histogram `name` since `before`.
    pub fn hist_since(&self, before: &Scrape, name: &str) -> HistDelta {
        let old = before.buckets(name);
        let buckets = self
            .buckets(name)
            .into_iter()
            .map(|(b, c)| (b as f64, c - old.get(&b).copied().unwrap_or(0.0)))
            .filter(|&(_, c)| c > 0.0)
            .collect();
        HistDelta {
            buckets,
            count: self.delta(before, &format!("{name}_count")),
            sum: self.delta(before, &format!("{name}_sum")),
        }
    }

    /// The change of a counter since `before`.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.value(name) - before.value(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_between_scrapes() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat_ns", "latency", respct_obs::Unit::None);
        let c = r.counter("ops_total", "ops", respct_obs::Unit::None);
        h.record(10);
        c.add(5);
        let before = Scrape::of(&r);
        for v in [10, 1000, 1000, 100_000] {
            h.record(v);
        }
        c.add(7);
        let after = Scrape::of(&r);
        assert_eq!(after.delta(&before, "ops_total"), 7.0);
        let d = after.hist_since(&before, "lat_ns");
        assert_eq!(d.count, 4.0);
        assert_eq!(d.sum, 102_010.0);
        assert_eq!(d.quantile(0.25), 10.0);
        assert!(d.quantile(0.5) >= 1000.0 && d.quantile(0.5) < 1100.0);
        assert!(d.quantile(1.0) >= 100_000.0);
        assert_eq!(after.value("no_such_metric"), 0.0);
    }
}
