//! The metric catalogue and the one-line JSON result every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("capacity_per_s", "1/s"),
    ("get_p50_us", "us"),
    ("put_p50_us", "us"),
    ("ckpt_per_s", "1/s"),
    ("recovery_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer a
/// workload does not pass through reads 0 on it (see the README).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("server.transport_us", "us"),
    ("server.batch_size", "count"),
    ("service.get_ns", "ns"),
    ("service.put_ns", "ns"),
    ("service.end_batch_us", "us"),
    ("map.op_ns", "ns"),
    ("incll.first_touch_per_op", "count/op"),
    ("incll.write_amp", "B/B"),
    ("ckpt.wait_us", "us"),
    ("ckpt.stw_us", "us"),
    ("ckpt.flush_us", "us"),
    ("ckpt.drain_us", "us"),
    ("ckpt.lines", "count"),
    ("ckpt.pushouts_per_s", "1/s"),
    ("rp.stall_p50_us", "us"),
    ("rp.stall_p99_us", "us"),
    ("pmem.pwb_per_op", "count/op"),
    ("pmem.psync_per_op", "count/op"),
    ("recovery.procedure_ms", "ms"),
    ("recovery.scan_span_ms", "ms"),
    ("recovery.cells_scanned", "count"),
    ("recovery.cells_rolled_back", "count"),
    ("recovery.freelist_violations", "count"),
    ("tail.get_p90_us", "us"),
    ("tail.put_p90_us", "us"),
    ("tail.get_p99_us", "us"),
    ("tail.put_p99_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// What a run found: metric values, operation counts and the verdict of
/// its correctness checks.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted: requests, map operations, keys checked after
    /// recovery, recoveries.
    pub attempted: u64,
    /// Attempted operations that failed: BUSY, ERR, wrong value, a failed
    /// post-recovery check. A lost connection fails the whole run instead.
    pub failed: u64,
    /// False once any output disagreed with the benchmark's model.
    pub wrong_output: bool,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Counts one checked operation and whether it failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Prints every metric of the selected set as a readable table, then the
    /// JSON result line.
    pub fn print(&self, traced: bool) {
        let set = if traced { PER_LAYER } else { END_TO_END };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(name) {
                println!("{name:>28} {v:>16.4} {unit}");
            }
        }
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            !self.wrong_output,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
