//! The repository's benchmark: one command, three workloads, end-to-end
//! metrics by default and per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --tmpdir <dir>
//! ```
//!
//! Workloads (see README.md for the inputs and why each was chosen):
//!
//! * `kv-read-mostly` — TCP KV, 95 % GET over ~1M keys, async acks;
//! * `kv-sync-write` — TCP KV, 50 % PUT over 10k hot keys of 1 KiB, sync
//!   acks (a checkpoint before every write batch's responses);
//! * `map-ckpt-recover` — in-process `PHashMap` mix, 90 % updates, on a
//!   1 GiB pool with the pipelined drain, then crash and recovery.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A run that stalls or fails a stage
//! exits non-zero without printing it.

mod check;
mod kv;
mod loadgen;
mod map;
mod report;
mod sampler;
mod scrape;
mod stats;
mod watchdog;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use respct::{Pool, RecoveryReport, ViolationKind};
use respct_apps::kv::Durability;

use report::Report;
use scrape::Scrape;
use stats::median;
use watchdog::Watchdog;

/// Client connections, client threads, server workers and map threads:
/// the host's two cores.
pub const CONNS: u64 = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Extra time a timed stage may take beyond its nominal length.
pub const SLACK: Duration = Duration::from_secs(20);

/// A whole run, set-up and checks included, must end within this.
const RUN_BUDGET: Duration = Duration::from_secs(170);

const READ_MOSTLY: kv::KvSpec = kv::KvSpec {
    keys: 1 << 20,
    value_len: 32,
    read_pct: 95,
    durability: Durability::Async,
    pool_bytes: 512 << 20,
    nbuckets: 1 << 19,
    window: 32,
    open_rate: 60_000,
    recoveries: 9,
};

const SYNC_WRITE: kv::KvSpec = kv::KvSpec {
    keys: 10_000,
    value_len: 1024,
    read_pct: 50,
    durability: Durability::Sync,
    pool_bytes: 128 << 20,
    nbuckets: 8192,
    window: 32,
    open_rate: 20_000,
    recoveries: 31,
};

const MAP: map::MapSpec = map::MapSpec {
    keyspace: 4 << 20,
    threads: CONNS,
    nbuckets: 1 << 21,
    pool_bytes: 1 << 30,
    update_pct: 90,
    period: Duration::from_millis(8),
    pipeline: "4",
    burst_per_thread: 1 << 16,
    recoveries: 5,
};

/// What every workload gets from the command line.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Pool files live here; removed on every exit path.
    pub tmp: PathBuf,
    pub wd: Watchdog,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload kv-read-mostly|kv-sync-write|map-ckpt-recover \
         --seed N --seconds S --trace 0|1 --tmpdir DIR"
    );
    std::process::exit(2)
}

fn main() {
    let (mut workload, mut seed, mut seconds, mut trace, mut tmp) = (None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(val) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 60.0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            "--tmpdir" => tmp = Some(PathBuf::from(val)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(tmp)) =
        (workload, seed, seconds, trace, tmp)
    else {
        usage()
    };
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let env = Env {
        seed,
        seconds,
        trace,
        wd: Watchdog::start(RUN_BUDGET, tmp.clone()),
        tmp,
    };
    let mut rep = Report::default();
    let result = match workload.as_str() {
        "kv-read-mostly" => kv::run(&READ_MOSTLY, &env, &mut rep),
        "kv-sync-write" => kv::run(&SYNC_WRITE, &env, &mut rep),
        "map-ckpt-recover" => map::run(&MAP, &env, &mut rep),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!(
            "perfbench: {workload} failed in stage `{}`: {e}",
            env.wd.current()
        );
        let _ = std::fs::remove_dir_all(&env.tmp);
        std::process::exit(1);
    }
    rep.set("peak_rss_mib", report::peak_rss_mib());
    let _ = std::fs::remove_dir_all(&env.tmp);
    drop(env);
    rep.print(trace);
}

/// Checkpoints committed so far, read from the pool's registry.
pub fn ckpt_count(registry: &respct::MetricsRegistry) -> f64 {
    Scrape::of(registry).value("respct_checkpoint_total_ns_count")
}

/// Sets the checkpoint, restart-point, InCLL and pmem layer metrics from
/// the pool registry's change over a phase of `ops` operations lasting
/// `secs`.
pub fn runtime_layers(rep: &mut Report, before: &Scrape, after: &Scrape, ops: f64, secs: f64) {
    let hist = |name| after.hist_since(before, name);
    let per_op = |name| after.delta(before, name) / ops.max(1.0);
    rep.set(
        "ckpt.wait_us",
        hist("respct_checkpoint_wait_ns").mean() / 1e3,
    );
    rep.set("ckpt.stw_us", hist("respct_checkpoint_stw_ns").mean() / 1e3);
    rep.set(
        "ckpt.flush_us",
        hist("respct_checkpoint_flush_ns").mean() / 1e3,
    );
    rep.set(
        "ckpt.drain_us",
        hist("respct_checkpoint_drain_ns").mean() / 1e3,
    );
    rep.set("ckpt.lines", hist("respct_checkpoint_lines").mean());
    rep.set(
        "ckpt.pushouts_per_s",
        after.delta(before, "respct_drain_pushouts_total") / secs,
    );
    let stall = hist("respct_rp_stall_ns");
    rep.set("rp.stall_p50_us", stall.quantile(0.5) / 1e3);
    rep.set("rp.stall_p99_us", stall.quantile(0.99) / 1e3);
    rep.set(
        "incll.first_touch_per_op",
        per_op("respct_incll_first_touch_total"),
    );
    let stored = after.delta(before, "respct_bytes_stored_total");
    let flushed = after.delta(before, "respct_bytes_flushed_total");
    rep.set(
        "incll.write_amp",
        if stored > 0.0 { flushed / stored } else { 0.0 },
    );
    rep.set("pmem.pwb_per_op", per_op("respct_pmem_pwb_total"));
    rep.set("pmem.psync_per_op", per_op("respct_pmem_psync_total"));
}

/// Free-list violations `Pool::verify` found in recovered pools; see
/// [`verify`].
static FREELIST_VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Runs `Pool::verify` on a recovered pool, prints every violation, and
/// returns whether it is clean. Free-list violations are the exception:
/// the allocator hands out a free-list block whose link word the new owner
/// overwrites without logging, so after a crash in that epoch the rolled-
/// back head can lead to a wild link (CHANGES.md, `FOUND:`). Whether a run
/// meets it depends on the free list at the last checkpoint, that is on the
/// seed, so it is counted in `recovery.freelist_violations` and not as a
/// failed operation.
pub fn verify(pool: &Arc<Pool>) -> bool {
    let report = pool.verify();
    let mut clean = true;
    for v in &report.violations {
        eprintln!("perfbench: Pool::verify: {v:?}");
        if v.kind == ViolationKind::FreeList {
            FREELIST_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        } else {
            clean = false;
        }
    }
    clean
}

/// Copies `src` to a new file `dst` with plain reads and writes.
/// `std::fs::copy` is not used: its `copy_file_range` loop asks for more at
/// the end of the source, which under a file-size limit equal to the pool
/// size raises `SIGXFSZ` although no byte beyond the source is written.
fn copy_file(src: &Path, dst: &Path) -> std::io::Result<()> {
    use std::io::{Read, Write};
    let mut from = std::fs::File::open(src)?;
    let mut to = std::fs::File::create(dst)?;
    let mut buf = vec![0u8; 4 << 20];
    loop {
        let n = from.read(&mut buf)?;
        if n == 0 {
            return to.flush();
        }
        to.write_all(&buf[..n])?;
    }
}

/// Recovers `n` fresh copies of the crashed pool file `crashed` with
/// `recover`, which returns the wall time of its `Pool::open` in ms, the
/// recovery report and whether the recovered pool passed its checks. Sets
/// `recovery_ms` (median wall time) and the recovery layer metrics.
pub fn recover_copies(
    crashed: &Path,
    tmp: &Path,
    n: usize,
    rep: &mut Report,
    mut recover: impl FnMut(&Path) -> Result<(f64, RecoveryReport, bool), String>,
) -> Result<(), String> {
    let (mut wall, mut procedure, mut span, mut scanned, mut rolled) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        let copy = tmp.join(format!("recover-{i}.pool"));
        copy_file(crashed, &copy).map_err(|e| format!("copy the crashed pool: {e}"))?;
        let result = recover(&copy);
        let _ = std::fs::remove_file(&copy);
        let (ms, report, ok) = result.map_err(|e| format!("recovery {i}: {e}"))?;
        if !ok {
            eprintln!("perfbench: recovery {i} failed its checks");
        }
        rep.count(1, u64::from(!ok));
        rep.wrong_output |= !ok;
        wall.push(ms);
        procedure.push(report.duration.as_secs_f64() * 1e3);
        span.push(report.scan_span.as_secs_f64() * 1e3);
        scanned.push(report.cells_scanned as f64);
        rolled.push(report.cells_rolled_back as f64);
    }
    eprintln!("perfbench: recovery wall times (ms): {wall:?}");
    rep.set("recovery_ms", median(&mut wall));
    rep.set("recovery.procedure_ms", median(&mut procedure));
    rep.set("recovery.scan_span_ms", median(&mut span));
    rep.set("recovery.cells_scanned", median(&mut scanned));
    rep.set("recovery.cells_rolled_back", median(&mut rolled));
    rep.set(
        "recovery.freelist_violations",
        FREELIST_VIOLATIONS.load(Ordering::Relaxed) as f64,
    );
    Ok(())
}
