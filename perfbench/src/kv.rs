//! The two KV workloads: the TCP server (`KvServer`, the front end of
//! `respct-kvd`) over loopback on an mmap pool file, loaded by
//! [`crate::loadgen`], then dropped without a final checkpoint and
//! recovered from its pool file.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use respct::{MetricsRegistry, Pool};
use respct_apps::backend::{pool_config_sized, BACKEND_ENV};
use respct_apps::kv::server::KvServer;
use respct_apps::kv::service::KvService;
use respct_apps::kv::{Durability, KvRequest, KvResponse, KvServerConfig};

use crate::check::{self, Rng};
use crate::loadgen::{Conn, Mix, Pace, PhaseRec, Tally};
use crate::report::Report;
use crate::sampler::{self, Rates, LAT_WINDOW};
use crate::scrape::Scrape;
use crate::stats::{median, LatHist};
use crate::{runtime_layers, Env, CONNS, SETUPS};

/// One KV workload's inputs.
pub struct KvSpec {
    /// Keys, all preloaded at version 0 and partitioned across connections.
    pub keys: u64,
    pub value_len: usize,
    /// Percentage of GETs; the rest are PUTs.
    pub read_pct: u64,
    pub durability: Durability,
    pub pool_bytes: usize,
    pub nbuckets: u64,
    /// Outstanding requests per connection in the closed-loop phase.
    pub window: usize,
    /// Offered rate of the open-loop phase, requests/s over all connections.
    pub open_rate: u64,
    /// Copies of the crashed pool file recovered and timed.
    pub recoveries: usize,
}

/// Requests per batch in the in-process preload and service probe (the
/// server's default batch limit).
const BATCH: usize = 16;

impl KvSpec {
    fn config(&self) -> KvServerConfig {
        KvServerConfig::builder()
            .workers(CONNS as usize)
            .max_value_len(self.value_len)
            .nbuckets(self.nbuckets)
            .pool_bytes(self.pool_bytes)
            .durability(self.durability)
            .build()
            .expect("valid KV config")
    }

    /// Opens the service on the pool file `path`: create on a fresh file,
    /// recover on an existing one.
    fn open(&self, path: &Path) -> Result<Arc<KvService>, String> {
        std::env::set_var(BACKEND_ENV, format!("mmap:{}", path.display()));
        KvService::open(self.config())
            .map(|(svc, _)| svc)
            .map_err(|e| format!("open KV service: {e}"))
    }
}

pub fn run(spec: &KvSpec, env: &Env, rep: &mut Report) -> Result<(), String> {
    let salt = check::mix(env.seed, 0x5a17, 0);

    // Set up several times and keep the last: the median is the set-up
    // time, and the earlier copies warm nothing the kept one uses.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        env.wd.stage("kv setup", Duration::from_secs(60));
        let path = env.tmp.join(format!("kv-{i}.pool"));
        let t0 = Instant::now();
        let svc = spec.open(&path)?;
        preload(&svc, spec, salt)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some((svc, path));
        } else {
            drop(svc);
            let _ = std::fs::remove_file(&path);
        }
    }
    rep.set("setup_s", median(&mut setup_s));
    let (svc, pool_path) = kept.expect("at least one set-up");

    let server = KvServer::start(Arc::clone(&svc), "127.0.0.1:0")
        .map_err(|e| format!("start KV server: {e}"))?;
    let mix = Mix {
        conns: CONNS,
        keys_per_conn: spec.keys / CONNS,
        read_pct: spec.read_pct,
        value_len: spec.value_len,
        salt,
    };
    let mut conns = (0..CONNS)
        .map(|c| Conn::connect(server.local_addr(), c, &mix, env.seed))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;

    let secs = env.seconds;
    let closed = Pace::Closed {
        window: spec.window,
    };
    env.wd.stage(
        "kv warm-up",
        Duration::from_secs_f64(secs * 0.1) + crate::SLACK,
    );
    phase(&mut conns, closed, secs * 0.1, false, svc.registry())?;

    // Closed-loop capacity. A traced run measures the first half untraced
    // and the second half traced, and reports the difference as overhead.
    env.wd.stage(
        "kv capacity",
        Duration::from_secs_f64(secs * 0.4) + crate::SLACK,
    );
    let before = Scrape::of(svc.registry());
    let t0 = Instant::now();
    let cap_secs = if env.trace { secs * 0.2 } else { secs * 0.4 };
    let (cap, rates) = phase(&mut conns, closed, cap_secs, false, svc.registry())?;
    let elapsed = t0.elapsed().as_secs_f64();
    let after = Scrape::of(svc.registry());
    rep.set("capacity_per_s", rates.ops);
    rep.set("ckpt_per_s", rates.ckpts);
    runtime_layers(rep, &before, &after, cap.completed as f64, elapsed);
    rep.set(
        "server.batch_size",
        after.hist_since(&before, "respct_kv_batch_size").mean(),
    );
    if env.trace {
        let (traced, traced_rates) = phase(&mut conns, closed, cap_secs, true, svc.registry())?;
        let (capacity, traced_capacity) = (rates.ops, traced_rates.ops);
        rep.set(
            "trace.overhead_pct",
            (capacity - traced_capacity) / capacity * 100.0,
        );
        rep.set("wire.encode_ns", traced.encode.mean());
        rep.set("wire.decode_ns", traced.decode.mean());
        eprintln!("perfbench: traced capacity {traced_capacity:.1}/s, untraced {capacity:.1}/s");
    }

    // Open loop at the workload's fixed rate.
    env.wd.stage(
        "kv open loop",
        Duration::from_secs_f64(secs * 0.5) + crate::SLACK,
    );
    let before = Scrape::of(svc.registry());
    let interval_ns = 1_000_000_000 * CONNS / spec.open_rate;
    let (open, _) = phase(
        &mut conns,
        Pace::Open { interval_ns },
        secs * 0.5,
        false,
        svc.registry(),
    )?;
    let after = Scrape::of(svc.registry());
    let (get, put) = (open.get.total(), open.put.total());
    rep.set("get_p50_us", get.quantile(0.5) / 1e3);
    rep.set("put_p50_us", put.quantile(0.5) / 1e3);
    rep.set("tail.get_p90_us", open.get.windowed_quantile(0.9) / 1e3);
    rep.set("tail.put_p90_us", open.put.windowed_quantile(0.9) / 1e3);
    rep.set("tail.get_p99_us", open.get.windowed_quantile(0.99) / 1e3);
    rep.set("tail.put_p99_us", open.put.windowed_quantile(0.99) / 1e3);
    rep.set("loadgen.late_p99_us", open.late.quantile(0.99) / 1e3);
    let mut all = get.clone();
    all.merge(&put);
    let service_ns = after.hist_since(&before, "respct_kv_op_ns").mean();
    rep.set("server.transport_us", (all.mean() - service_ns) / 1e3);

    let mut tally = Tally::default();
    for c in &conns {
        tally.add(&c.tally);
    }
    rep.count(tally.sent, tally.failed());
    rep.wrong_output |= tally.mismatches > 0;
    eprintln!("perfbench: load {tally:?}");

    let model: Vec<(u64, u64)> = conns.iter().flat_map(Conn::model).collect();
    drop(conns);

    if env.trace {
        env.wd.stage("kv service probe", Duration::from_secs(30));
        service_probe(&svc, spec, salt, &model, rep);
    }

    // Crash: stop the server and drop the service without a checkpoint.
    env.wd.stage("kv crash", Duration::from_secs(30));
    drop(server);
    if Arc::strong_count(&svc) != 1 {
        return Err("the stopped server still holds the KV service".into());
    }
    drop(svc);

    env.wd.stage("kv recovery", Duration::from_secs(60));
    let cfg = pool_config_sized(spec.pool_bytes);
    crate::recover_copies(&pool_path, &env.tmp, spec.recoveries, rep, |path| {
        let t0 = Instant::now();
        let (pool, report) = Pool::open(path, cfg.clone()).map_err(|e| format!("{e:?}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = report.ok_or("the pool file was not recovered")?;
        Ok((ms, report, crate::verify(&pool)))
    })?;

    env.wd.stage("kv durability check", Duration::from_secs(60));
    let svc = spec.open(&pool_path)?;
    durability_check(&svc, spec, salt, &model, rep);
    drop(svc);
    let _ = std::fs::remove_file(&pool_path);
    Ok(())
}

/// Runs one phase on every connection, one thread each, while this thread
/// samples per-window rates from the clients' progress and the registry.
fn phase(
    conns: &mut [Conn],
    pace: Pace,
    secs: f64,
    trace: bool,
    registry: &MetricsRegistry,
) -> Result<(PhaseRec, Rates), String> {
    let dur = Duration::from_secs_f64(secs);
    let window_ns = LAT_WINDOW.as_nanos() as u64;
    let windows = sampler::windows_in(secs);
    let lat_windows = (secs / LAT_WINDOW.as_secs_f64()).ceil() as usize;
    let progress: Vec<AtomicU64> = conns.iter().map(|_| AtomicU64::new(0)).collect();
    let (results, rates) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&progress)
            .map(|(c, done)| {
                s.spawn(move || {
                    c.trace = trace;
                    let mut rec = PhaseRec::new(window_ns, lat_windows);
                    c.run(pace, dur, &mut rec, done).map(|()| rec)
                })
            })
            .collect();
        let rates = sampler::sample(windows, || {
            let ops = progress.iter().map(|p| p.load(Ordering::Relaxed)).sum();
            (ops, crate::ckpt_count(registry))
        });
        let results: Vec<Result<PhaseRec, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (results, rates)
    });
    let mut all = PhaseRec::new(window_ns, lat_windows);
    for r in results {
        all.merge(&r?);
    }
    Ok((all, rates))
}

/// Loads every key at version 0 through the service's own API, on
/// `CONNS` threads with the server's batch size.
fn preload(svc: &Arc<KvService>, spec: &KvSpec, salt: u64) -> Result<(), String> {
    let failures: u64 = std::thread::scope(|s| {
        (0..CONNS)
            .map(|t| {
                s.spawn(move || {
                    let mut ctx = svc.worker_ctx();
                    let mut value = vec![0; spec.value_len];
                    let (mut failures, mut batch) = (0, 0);
                    for key in (t..spec.keys).step_by(CONNS as usize) {
                        check::fill_value(&mut value, salt, key, 0);
                        let req = KvRequest::Put {
                            key,
                            value: value.clone(),
                        };
                        if svc.apply(&mut ctx, &req) != KvResponse::Ok {
                            failures += 1;
                        }
                        batch += 1;
                        if batch == BATCH {
                            svc.end_batch(&mut ctx, true, batch);
                            batch = 0;
                        }
                    }
                    svc.end_batch(&mut ctx, true, batch);
                    failures
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("preload thread"))
            .sum()
    });
    if failures > 0 {
        return Err(format!("{failures} preload PUTs failed"));
    }
    Ok(())
}

/// Traced runs only: times `KvService::apply` and `end_batch` called
/// directly, with the workload's mix. GETs read model keys (and check
/// them); PUTs go to keys above the model's range, so the model stays
/// what the clients left.
fn service_probe(
    svc: &Arc<KvService>,
    spec: &KvSpec,
    salt: u64,
    model: &[(u64, u64)],
    rep: &mut Report,
) {
    const PROBE_KEYS: u64 = 1024;
    let mut value = vec![0; spec.value_len];
    let mut ctx = svc.worker_ctx();
    for k in 0..PROBE_KEYS {
        check::fill_value(&mut value, salt, spec.keys + k, 0);
        let req = KvRequest::Put {
            key: spec.keys + k,
            value: value.clone(),
        };
        svc.apply(&mut ctx, &req);
        if k % BATCH as u64 == 0 {
            svc.end_batch(&mut ctx, true, BATCH);
        }
    }
    svc.end_batch(&mut ctx, true, BATCH);
    let (mut get, mut put, mut end) = (LatHist::default(), LatHist::default(), LatHist::default());
    let mut rng = Rng::new(salt);
    let mut scratch = vec![0; spec.value_len];
    let (mut checked, mut wrong) = (0u64, 0u64);
    let t_end = Instant::now() + Duration::from_secs(1);
    while Instant::now() < t_end {
        let mut wrote = false;
        for _ in 0..BATCH {
            let r = rng.next_u64();
            if r % 100 < spec.read_pct {
                let (key, version) = model[(r >> 8) as usize % model.len()];
                let t0 = Instant::now();
                let resp = svc.apply(&mut ctx, &KvRequest::Get { key });
                get.record(t0.elapsed().as_nanos() as u64);
                checked += 1;
                let ok = matches!(&resp, KvResponse::Value(v)
                    if check::check_exact(v, &mut scratch, salt, key, version).is_ok());
                wrong += u64::from(!ok);
            } else {
                let key = spec.keys + (r >> 8) % PROBE_KEYS;
                check::fill_value(&mut value, salt, key, r >> 8);
                let req = KvRequest::Put {
                    key,
                    value: value.clone(),
                };
                let t0 = Instant::now();
                svc.apply(&mut ctx, &req);
                put.record(t0.elapsed().as_nanos() as u64);
                wrote = true;
            }
        }
        let t0 = Instant::now();
        svc.end_batch(&mut ctx, wrote, BATCH);
        end.record(t0.elapsed().as_nanos() as u64);
    }
    rep.set("service.get_ns", get.mean());
    rep.set("service.put_ns", put.mean());
    rep.set("service.end_batch_us", end.mean() / 1e3);
    rep.count(checked, wrong);
    rep.wrong_output |= wrong > 0;
}

/// Reads every model key back from the recovered service. Under sync
/// durability each key must hold exactly its last acknowledged version;
/// under async durability any version the client wrote up to that one
/// (what the last checkpoint before the crash captured).
fn durability_check(
    svc: &Arc<KvService>,
    spec: &KvSpec,
    salt: u64,
    model: &[(u64, u64)],
    rep: &mut Report,
) {
    let exact = spec.durability == Durability::Sync;
    let chunk = model.len().div_ceil(CONNS as usize);
    let (wrong, latest): (u64, u64) = std::thread::scope(|s| {
        model
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut ctx = svc.worker_ctx();
                    let mut scratch = vec![0; spec.value_len];
                    let (mut wrong, mut latest) = (0u64, 0u64);
                    for (i, &(key, version)) in part.iter().enumerate() {
                        let ok = match svc.apply(&mut ctx, &KvRequest::Get { key }) {
                            KvResponse::Value(v) if exact => {
                                check::check_exact(&v, &mut scratch, salt, key, version).is_ok()
                            }
                            KvResponse::Value(v) => {
                                match check::check_at_most(&v, &mut scratch, salt, key, version) {
                                    Ok(got) => {
                                        latest += u64::from(got == version);
                                        true
                                    }
                                    Err(_) => false,
                                }
                            }
                            _ => false,
                        };
                        if !ok && wrong < 5 {
                            eprintln!("perfbench: recovered key {key} is wrong (model {version})");
                        }
                        wrong += u64::from(!ok);
                        if i % BATCH == BATCH - 1 {
                            svc.end_batch(&mut ctx, false, BATCH);
                        }
                    }
                    (wrong, latest)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("check thread"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    let clean = svc.pool().is_some_and(crate::verify);
    eprintln!(
        "perfbench: durability check: {} keys, {wrong} wrong, {} at their last version, verify {}",
        model.len(),
        if exact {
            model.len() as u64 - wrong
        } else {
            latest
        },
        if clean { "clean" } else { "NOT clean" }
    );
    rep.count(model.len() as u64 + 1, wrong + u64::from(!clean));
    rep.wrong_output |= wrong > 0 || !clean;
}
