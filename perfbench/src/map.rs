//! The in-process workload: the write-intensive `PHashMap` mix of the
//! paper's Fig. 8/11 under the periodic checkpointer with the pipelined
//! drain, then an explicit checkpoint, a dirty burst, a crash (drop with
//! no checkpoint) and timed recoveries of copies of the crashed image.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use respct::{Pool, ThreadHandle};
use respct_apps::backend::{pool_config_sized, PIPELINE_ENV};
use respct_ds::{rp_ids, PHashMap};

use crate::check::{self, Rng, SENTINEL};
use crate::report::Report;
use crate::sampler::{self, Rates, LAT_WINDOW};
use crate::scrape::Scrape;
use crate::stats::{median, Windowed};
use crate::{runtime_layers, Env, SETUPS};

pub struct MapSpec {
    /// Keys `0..keyspace`, split across threads by `key % threads`; every
    /// other key of a thread's share is present after the prefill.
    pub keyspace: u64,
    pub threads: u64,
    pub nbuckets: u64,
    pub pool_bytes: usize,
    /// Percentage of updates (half inserts, half removes); the rest are gets.
    pub update_pct: u64,
    pub period: Duration,
    /// Epoch-ring depth, passed through `RESPCT_PIPELINE`.
    pub pipeline: &'static str,
    /// Operations per thread in the dirty burst of the crashed epoch.
    pub burst_per_thread: u64,
    pub recoveries: usize,
}

/// One thread's model: `values[j]` is the value of key `j * threads + t`,
/// 0 when absent. The workload never writes 0 or a sentinel value.
struct Model {
    t: u64,
    threads: u64,
    values: Vec<u64>,
}

impl Model {
    fn key(&self, j: u64) -> u64 {
        j * self.threads + self.t
    }
}

fn initial_value(salt: u64, key: u64) -> u64 {
    (check::mix(salt, key, 0) & !SENTINEL) | 1
}

pub fn run(spec: &MapSpec, env: &Env, rep: &mut Report) -> Result<(), String> {
    std::env::set_var(PIPELINE_ENV, spec.pipeline);
    let salt = check::mix(env.seed, 0x3a9, 0);
    let per_thread = spec.keyspace / spec.threads;

    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        env.wd.stage("map setup", Duration::from_secs(60));
        let path = env.tmp.join(format!("map-{i}.pool"));
        let t0 = Instant::now();
        let (pool, map) = setup(spec, &path, salt)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some((pool, map, path));
        } else {
            drop(map);
            drop(pool);
            let _ = std::fs::remove_file(&path);
        }
    }
    rep.set("setup_s", median(&mut setup_s));
    let (pool, map, pool_path) = kept.expect("at least one set-up");
    let mut models: Vec<Model> = (0..spec.threads)
        .map(|t| {
            let mut m = Model {
                t,
                threads: spec.threads,
                values: vec![0; per_thread as usize],
            };
            for j in (0..per_thread).step_by(2) {
                m.values[j as usize] = initial_value(salt, m.key(j));
            }
            m
        })
        .collect();

    let ckpt = pool.start_checkpointer(spec.period);
    let secs = env.seconds;
    env.wd.stage(
        "map warm-up",
        Duration::from_secs_f64(secs * 0.1) + crate::SLACK,
    );
    mix_phase(
        spec,
        &pool,
        &map,
        &mut models,
        env.seed ^ 1,
        secs * 0.1,
        rep,
    );

    env.wd.stage(
        "map mix",
        Duration::from_secs_f64(secs * 0.9) + crate::SLACK,
    );
    let before = Scrape::of(pool.metrics());
    let t0 = Instant::now();
    let (ops, get, upd, rates) =
        mix_phase(spec, &pool, &map, &mut models, env.seed, secs * 0.9, rep);
    let elapsed = t0.elapsed().as_secs_f64();
    let after = Scrape::of(pool.metrics());
    rep.set("capacity_per_s", rates.ops);
    rep.set("ckpt_per_s", rates.ckpts);
    runtime_layers(rep, &before, &after, ops as f64, elapsed);
    let (g, u) = (get.total(), upd.total());
    rep.set("get_p50_us", g.quantile(0.5) / 1e3);
    rep.set("put_p50_us", u.quantile(0.5) / 1e3);
    rep.set("tail.get_p90_us", get.windowed_quantile(0.9) / 1e3);
    rep.set("tail.put_p90_us", upd.windowed_quantile(0.9) / 1e3);
    rep.set("tail.get_p99_us", get.windowed_quantile(0.99) / 1e3);
    rep.set("tail.put_p99_us", upd.windowed_quantile(0.99) / 1e3);
    let mut all = g;
    all.merge(&u);
    rep.set("map.op_ns", all.mean());
    rep.set("trace.overhead_pct", 0.0);

    // Explicit checkpoint: the state recovery must return to.
    env.wd.stage("map crash", Duration::from_secs(60));
    drop(ckpt);
    {
        let h = pool.register();
        h.checkpoint_here();
    }
    let snapshot: Vec<Vec<u64>> = models.iter().map(|m| m.values.clone()).collect();
    dirty_burst(spec, &pool, &map, &models, salt);
    drop(map);
    if Arc::strong_count(&pool) != 1 {
        return Err("the map pool is still shared at the crash".into());
    }
    drop(pool);

    env.wd.stage("map recovery", Duration::from_secs(90));
    let cfg = pool_config_sized(spec.pool_bytes);
    let mut wrong_total = 0;
    crate::recover_copies(&pool_path, &env.tmp, spec.recoveries, rep, |path| {
        let t0 = Instant::now();
        let (pool, report) = Pool::open(path, cfg.clone()).map_err(|e| format!("{e:?}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = report.ok_or("the pool file was not recovered")?;
        let clean = crate::verify(&pool) && report.cells_rolled_back > 0;
        let wrong = check_recovered(spec, &pool, &snapshot);
        wrong_total += wrong;
        Ok((ms, report, clean && wrong == 0))
    })?;
    let checked = spec.keyspace * spec.recoveries as u64;
    rep.count(checked, wrong_total);
    rep.wrong_output |= wrong_total > 0;
    let _ = std::fs::remove_file(&pool_path);
    Ok(())
}

/// Creates the pool file, the map and the prefill, and checkpoints it.
fn setup(spec: &MapSpec, path: &Path, salt: u64) -> Result<(Arc<Pool>, PHashMap), String> {
    let (pool, recovered) = Pool::open(path, pool_config_sized(spec.pool_bytes))
        .map_err(|e| format!("create map pool: {e:?}"))?;
    if recovered.is_some() {
        return Err(format!("{} already held a pool", path.display()));
    }
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, spec.nbuckets);
        h.set_root(map.desc());
        map
    };
    let per_thread = spec.keyspace / spec.threads;
    std::thread::scope(|s| {
        for t in 0..spec.threads {
            let (pool, map) = (&pool, &map);
            s.spawn(move || {
                let h = pool.register();
                for j in (0..per_thread).step_by(2) {
                    let key = j * spec.threads + t;
                    map.insert(&h, key, initial_value(salt, key));
                    h.rp(rp_ids::MAP_INSERT);
                }
            });
        }
    });
    pool.register().checkpoint_here();
    Ok((pool, map))
}

/// Runs the mix on every thread for `secs`, checking every result against
/// the thread's model, while this thread samples per-window rates. Returns
/// the operations done, the per-operation latencies (operation plus its
/// restart point) of gets and updates, and the rates.
fn mix_phase(
    spec: &MapSpec,
    pool: &Arc<Pool>,
    map: &PHashMap,
    models: &mut [Model],
    seed: u64,
    secs: f64,
    rep: &mut Report,
) -> (u64, Windowed, Windowed, Rates) {
    let dur = Duration::from_secs_f64(secs);
    let windows = sampler::windows_in(secs);
    let w = LAT_WINDOW.as_nanos() as u64;
    let lat_windows = (secs / LAT_WINDOW.as_secs_f64()).ceil() as usize;
    let progress: Vec<AtomicU64> = models.iter().map(|_| AtomicU64::new(0)).collect();
    let (results, rates) = std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter_mut()
            .zip(&progress)
            .map(|(m, done)| {
                s.spawn(move || {
                    let h = pool.register();
                    let mut get = Windowed::new(w, lat_windows);
                    let mut upd = Windowed::new(w, lat_windows);
                    let (ops, wrong) =
                        mix_thread(spec, &h, map, m, seed, dur, &mut get, &mut upd, done);
                    (ops, wrong, get, upd)
                })
            })
            .collect();
        let rates = sampler::sample(windows, || {
            let ops = progress.iter().map(|p| p.load(Ordering::Relaxed)).sum();
            (ops, crate::ckpt_count(pool.metrics()))
        });
        let results: Vec<(u64, u64, Windowed, Windowed)> = handles
            .into_iter()
            .map(|h| h.join().expect("map thread"))
            .collect();
        (results, rates)
    });
    let mut get = Windowed::new(w, lat_windows);
    let mut upd = Windowed::new(w, lat_windows);
    let mut ops = 0;
    for (n, wrong, g, u) in results {
        ops += n;
        rep.count(n, wrong);
        rep.wrong_output |= wrong > 0;
        get.merge(&g);
        upd.merge(&u);
    }
    (ops, get, upd, rates)
}

#[allow(clippy::too_many_arguments)]
fn mix_thread(
    spec: &MapSpec,
    h: &ThreadHandle,
    map: &PHashMap,
    m: &mut Model,
    seed: u64,
    dur: Duration,
    get: &mut Windowed,
    upd: &mut Windowed,
    progress: &AtomicU64,
) -> (u64, u64) {
    let mut rng = Rng::new(check::mix(seed, m.t, 0x3a9));
    let per_thread = m.values.len() as u64;
    let (mut ops, mut wrong) = (0u64, 0u64);
    let base = Instant::now();
    let end = dur.as_nanos() as u64;
    let mut prev = 0u64;
    while prev < end {
        let r = rng.next_u64();
        let j = (r >> 8) % per_thread;
        let key = m.key(j);
        let old = m.values[j as usize];
        let roll = r % 100;
        let is_get = roll >= spec.update_pct;
        let ok = if is_get {
            let got = map.get(h, key);
            h.rp(rp_ids::MAP_GET);
            got == (old != 0).then_some(old)
        } else if roll.is_multiple_of(2) {
            let v = (check::mix(r, key, ops) & !SENTINEL) | 1;
            let inserted = map.insert(h, key, v);
            h.rp(rp_ids::MAP_INSERT);
            m.values[j as usize] = v;
            inserted == (old == 0)
        } else {
            let removed = map.remove(h, key);
            h.rp(rp_ids::MAP_REMOVE);
            m.values[j as usize] = 0;
            removed == (old != 0)
        };
        if !ok && wrong < 5 {
            eprintln!("perfbench: map op on key {key} disagreed with the model");
        }
        wrong += u64::from(!ok);
        ops += 1;
        if ops % 256 == 0 {
            progress.store(ops, Ordering::Relaxed);
        }
        let now = base.elapsed().as_nanos() as u64;
        if is_get {
            get.record(prev, now - prev);
        } else {
            upd.record(prev, now - prev);
        }
        prev = now;
    }
    (ops, wrong)
}

/// Writes sentinel values over a spread of keys and removes others, in the
/// epoch that will crash; none of it may survive recovery.
fn dirty_burst(spec: &MapSpec, pool: &Arc<Pool>, map: &PHashMap, models: &[Model], salt: u64) {
    std::thread::scope(|s| {
        for m in models {
            s.spawn(move || {
                let h = pool.register();
                let mut rng = Rng::new(check::mix(salt, m.t, 0xb0057));
                for _ in 0..spec.burst_per_thread {
                    let r = rng.next_u64();
                    let j = (r >> 8) % m.values.len() as u64;
                    if m.values[j as usize] != 0 && r.is_multiple_of(4) {
                        map.remove(&h, m.key(j));
                    } else {
                        map.insert(&h, m.key(j), SENTINEL | (r >> 1));
                    }
                }
            });
        }
    });
}

/// Compares every key of the recovered map with the snapshot taken at the
/// explicit checkpoint; returns how many disagree.
fn check_recovered(spec: &MapSpec, pool: &Arc<Pool>, snapshot: &[Vec<u64>]) -> u64 {
    let map = PHashMap::open(pool, pool.root());
    std::thread::scope(|s| {
        snapshot
            .iter()
            .enumerate()
            .map(|(t, values)| {
                let map = &map;
                s.spawn(move || {
                    let h = pool.register();
                    let mut wrong = 0u64;
                    for (j, &want) in values.iter().enumerate() {
                        let key = j as u64 * spec.threads + t as u64;
                        if let Err(e) = check::check_recovered(key, map.get(&h, key), want) {
                            if wrong < 5 {
                                eprintln!("perfbench: recovered map: {e:?}");
                            }
                            wrong += 1;
                        }
                    }
                    wrong
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("check thread"))
            .sum()
    })
}
