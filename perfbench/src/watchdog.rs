//! Fail fast, never hang: every stage of a run declares a deadline, and a
//! watchdog thread ends the process with a message naming the stage that
//! overran it. Pool files are removed before the exit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code of a run the watchdog ended.
pub const EXIT_STALLED: i32 = 3;

struct Stage {
    name: &'static str,
    deadline: Instant,
}

/// Owns the watchdog thread; dropping it stops and joins the thread.
pub struct Watchdog {
    stage: Arc<Mutex<Stage>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    run_deadline: Instant,
}

impl Watchdog {
    /// Starts watching. The whole run must end within `run_budget`; on any
    /// overrun `tmpdir` is removed and the process exits.
    pub fn start(run_budget: Duration, tmpdir: PathBuf) -> Watchdog {
        let run_deadline = Instant::now() + run_budget;
        let stage = Arc::new(Mutex::new(Stage {
            name: "start",
            deadline: run_deadline,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (stage, stop) = (Arc::clone(&stage), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("perfbench-watchdog".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(50));
                        let now = Instant::now();
                        let (name, deadline) = {
                            let s = stage.lock().unwrap_or_else(|e| e.into_inner());
                            (s.name, s.deadline)
                        };
                        if now > deadline || now > run_deadline {
                            eprintln!(
                                "perfbench: stage `{name}` did not finish in time; \
                                 the run is stopped as failed"
                            );
                            let _ = std::fs::remove_dir_all(&tmpdir);
                            std::process::exit(EXIT_STALLED);
                        }
                    }
                })
                .expect("spawn watchdog")
        };
        Watchdog {
            stage,
            stop,
            thread: Some(thread),
            run_deadline,
        }
    }

    /// Enters stage `name`, which must end within `budget` (and within the
    /// run's own deadline).
    pub fn stage(&self, name: &'static str, budget: Duration) {
        eprintln!("perfbench: stage {name}");
        let mut s = self.stage.lock().unwrap_or_else(|e| e.into_inner());
        s.name = name;
        s.deadline = (Instant::now() + budget).min(self.run_deadline);
    }

    /// The name of the current stage (for error messages).
    pub fn current(&self) -> &'static str {
        self.stage.lock().unwrap_or_else(|e| e.into_inner()).name
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
