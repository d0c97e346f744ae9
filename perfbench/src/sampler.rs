//! Per-window rates: a phase's throughput and checkpoint rate are taken as
//! medians over fixed windows, so one stall of the shared host moves one
//! window and not the figure.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Window length for rates.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Sub-window length for tail latencies (grouped further until each group
/// holds enough samples; see `Windowed::windowed_quantile`).
pub const LAT_WINDOW: Duration = Duration::from_millis(100);

/// Median per-second rates over a phase's windows.
pub struct Rates {
    pub ops: f64,
    pub ckpts: f64,
}

/// Whole windows in a phase of `secs`.
pub fn windows_in(secs: f64) -> usize {
    ((secs / WINDOW.as_secs_f64()).round() as usize).max(1)
}

/// Samples `read` (cumulative operations done, cumulative checkpoints
/// committed) at the start and at the end of each of `windows` windows,
/// sleeping in between, and returns the median rate of each.
pub fn sample(windows: usize, mut read: impl FnMut() -> (u64, f64)) -> Rates {
    let t0 = Instant::now();
    let (mut prev_t, mut prev) = (t0, read());
    let (mut ops, mut ckpts) = (Vec::new(), Vec::new());
    for k in 1..=windows as u32 {
        let due = t0 + WINDOW * k;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let (now, cur) = (Instant::now(), read());
        let dt = (now - prev_t).as_secs_f64();
        ops.push(cur.0.saturating_sub(prev.0) as f64 / dt);
        ckpts.push((cur.1 - prev.1) / dt);
        (prev_t, prev) = (now, cur);
    }
    Rates {
        ops: median(&mut ops),
        ckpts: median(&mut ckpts),
    }
}
