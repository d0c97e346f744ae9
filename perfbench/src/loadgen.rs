//! The TCP load generator: one thread per connection, each both sending
//! and receiving, so a run uses as many client threads as connections.
//!
//! A connection owns a disjoint slice of the key space (`key = j * conns +
//! conn`) and is served FIFO by one server worker, so its own model of the
//! last version it sent for each key is exactly what every GET it sends
//! must read back. Two paces:
//!
//! * closed loop — a fixed window of outstanding requests; latency is
//!   measured from the actual send;
//! * open loop — request `i` is due at `i × interval`; latency is measured
//!   from when it was due, so a stall that delays later sends is charged
//!   to them, and how late the generator itself ran is recorded apart.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use respct_apps::kv::wire;
use respct_apps::kv::{KvRequest, KvResponse};
use respct_apps::ycsb::{Workload, Zipfian};

use crate::check::{self, Rng};
use crate::stats::{LatHist, Windowed};

/// Requests a connection may have outstanding at once.
const SLOTS: usize = 1 << 16;

/// Most requests the open loop keeps outstanding on a connection: half the
/// server's default per-worker queue, so catching up after a stall queues
/// in the client (still timed from the schedule) instead of overflowing
/// the server into BUSY answers.
const OPEN_CAP: usize = 512;

/// A server that answers nothing for this long is declared stalled.
pub const LIVENESS: Duration = Duration::from_secs(10);

const READ_BUF: usize = 1 << 20;

/// How a phase paces its requests.
#[derive(Clone, Copy)]
pub enum Pace {
    Closed { window: usize },
    Open { interval_ns: u64 },
}

/// Outcome counts of one connection's requests.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub busy: u64,
    pub errors: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.busy += o.busy;
        self.errors += o.errors;
        self.mismatches += o.mismatches;
    }

    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.mismatches
    }
}

/// What one phase measured on one connection.
#[derive(Clone)]
pub struct PhaseRec {
    pub get: Windowed,
    pub put: Windowed,
    /// How late each open-loop send ran against its schedule.
    pub late: LatHist,
    /// Requests answered correctly.
    pub completed: u64,
    /// Time spent in `wire::encode_request` / `wire::decode_response`
    /// (traced runs only).
    pub encode: LatHist,
    pub decode: LatHist,
}

impl PhaseRec {
    pub fn new(window_ns: u64, windows: usize) -> PhaseRec {
        PhaseRec {
            get: Windowed::new(window_ns, windows),
            put: Windowed::new(window_ns, windows),
            late: LatHist::default(),
            completed: 0,
            encode: LatHist::default(),
            decode: LatHist::default(),
        }
    }

    pub fn merge(&mut self, o: &PhaseRec) {
        self.get.merge(&o.get);
        self.put.merge(&o.put);
        self.late.merge(&o.late);
        self.completed += o.completed;
        self.encode.merge(&o.encode);
        self.decode.merge(&o.decode);
    }
}

#[derive(Clone, Copy, Default)]
struct Pending {
    live: bool,
    put: bool,
    id: u32,
    key: u64,
    version: u64,
    sched_ns: u64,
}

/// The request mix of a connection.
pub struct Mix {
    pub conns: u64,
    pub keys_per_conn: u64,
    pub read_pct: u64,
    pub value_len: usize,
    pub salt: u64,
}

/// One client connection with its slice of the model.
pub struct Conn {
    idx: u64,
    conns: u64,
    read_pct: u64,
    salt: u64,
    stream: TcpStream,
    rbuf: Vec<u8>,
    rlen: usize,
    rpos: usize,
    wbuf: Vec<u8>,
    /// Last version sent per local key (`versions[j]` for `key = j *
    /// conns + idx`); every key starts preloaded at version 0.
    versions: Vec<u64>,
    zipf: Zipfian,
    zrng: SmallRng,
    rng: Rng,
    /// Versions whose PUT was answered BUSY (not executed), per key. A
    /// GET reads the newest version sent before it that was not rejected;
    /// the BUSY answer to an earlier PUT always arrives before the GET's.
    rejected: HashMap<u64, Vec<u64>>,
    value: Vec<u8>,
    scratch: Vec<u8>,
    pending: Vec<Pending>,
    next_id: u32,
    outstanding: usize,
    pub tally: Tally,
    pub trace: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr, idx: u64, mix: &Mix, seed: u64) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(LIVENESS))?;
        stream.set_read_timeout(Some(LIVENESS))?;
        Ok(Conn {
            idx,
            conns: mix.conns,
            read_pct: mix.read_pct,
            salt: mix.salt,
            stream,
            rbuf: vec![0; READ_BUF],
            rlen: 0,
            rpos: 0,
            wbuf: Vec::with_capacity(64 << 10),
            versions: vec![0; mix.keys_per_conn as usize],
            zipf: Zipfian::new(mix.keys_per_conn, 0.99),
            zrng: Workload::rng(check::mix(seed, idx, 0x21f)),
            rng: Rng::new(check::mix(seed, idx, 0x0b5)),
            rejected: HashMap::new(),
            value: vec![0; mix.value_len],
            scratch: vec![0; mix.value_len],
            pending: vec![Pending::default(); SLOTS],
            next_id: 0,
            outstanding: 0,
            tally: Tally::default(),
            trace: false,
        })
    }

    /// The model: the last version stored for every key of this
    /// connection, as `(key, version)`.
    pub fn model(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.versions.iter().enumerate().map(|(j, &v)| {
            let key = j as u64 * self.conns + self.idx;
            (key, self.stored(key, v))
        })
    }

    /// The newest version at or below `version` whose PUT was not
    /// rejected.
    fn stored(&self, key: u64, mut version: u64) -> u64 {
        if let Some(r) = self.rejected.get(&key) {
            while r.contains(&version) {
                version -= 1;
            }
        }
        version
    }

    /// Runs one phase of `dur`, then waits for every outstanding answer.
    ///
    /// # Errors
    ///
    /// A message naming the failure when the server closes the connection
    /// or answers nothing for [`LIVENESS`].
    pub fn run(
        &mut self,
        pace: Pace,
        dur: Duration,
        rec: &mut PhaseRec,
        progress: &AtomicU64,
    ) -> Result<(), String> {
        let base = Instant::now();
        let ns = || base.elapsed().as_nanos() as u64;
        let end_ns = dur.as_nanos() as u64;
        let mut issued = 0u64;
        let mut last_progress = Instant::now();
        loop {
            let now = ns();
            let sending = now < end_ns;
            if sending {
                match pace {
                    Pace::Closed { window } => {
                        while self.outstanding < window {
                            self.issue(ns(), rec)?;
                        }
                    }
                    Pace::Open { interval_ns } => {
                        while issued * interval_ns <= now && self.outstanding < OPEN_CAP {
                            let due = issued * interval_ns;
                            rec.late.record(now - due);
                            self.issue(due, rec)?;
                            issued += 1;
                        }
                    }
                }
                self.flush()?;
            } else if self.outstanding == 0 {
                return Ok(());
            }
            if self.outstanding == 0 {
                last_progress = Instant::now();
            }
            let wait = match pace {
                Pace::Open { interval_ns } if sending && self.outstanding < OPEN_CAP => {
                    Duration::from_nanos((issued * interval_ns).saturating_sub(ns()))
                }
                _ => Duration::from_millis(100),
            };
            if wait_readable(self.stream.as_raw_fd(), wait).map_err(|e| format!("poll: {e}"))? {
                self.read_some()?;
                if self.process(base, rec)? > 0 {
                    last_progress = Instant::now();
                    progress.store(rec.completed, Ordering::Relaxed);
                }
            } else if self.outstanding > 0 && last_progress.elapsed() > LIVENESS {
                return Err(format!(
                    "server answered none of {} outstanding requests for {LIVENESS:?}",
                    self.outstanding
                ));
            }
        }
    }

    fn issue(&mut self, sched_ns: u64, rec: &mut PhaseRec) -> Result<(), String> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        if self.pending[id as usize % SLOTS].live {
            return Err(format!("more than {SLOTS} requests outstanding"));
        }
        let j = self.zipf.next(&mut self.zrng);
        let key = j * self.conns + self.idx;
        let put = self.rng.next_u64() % 100 >= self.read_pct;
        let req = if put {
            let v = &mut self.versions[j as usize];
            *v += 1;
            check::fill_value(&mut self.value, self.salt, key, *v);
            KvRequest::Put {
                key,
                value: self.value.clone(),
            }
        } else {
            KvRequest::Get { key }
        };
        let t0 = self.trace.then(Instant::now);
        wire::encode_request(&mut self.wbuf, id, &req);
        if let Some(t0) = t0 {
            rec.encode.record(t0.elapsed().as_nanos() as u64);
        }
        self.pending[id as usize % SLOTS] = Pending {
            live: true,
            put,
            id,
            key,
            version: self.versions[j as usize],
            sched_ns,
        };
        self.outstanding += 1;
        self.tally.sent += 1;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        if !self.wbuf.is_empty() {
            self.stream
                .write_all(&self.wbuf)
                .map_err(|e| format!("send: {e}"))?;
            self.wbuf.clear();
        }
        Ok(())
    }

    fn read_some(&mut self) -> Result<(), String> {
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rlen, 0);
            self.rlen -= self.rpos;
            self.rpos = 0;
        }
        if self.rlen == self.rbuf.len() {
            return Err("response frame larger than the read buffer".into());
        }
        match self.stream.read(&mut self.rbuf[self.rlen..]) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.rlen += n;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Handles every complete frame in the read buffer; returns how many.
    fn process(&mut self, base: Instant, rec: &mut PhaseRec) -> Result<usize, String> {
        let mut n = 0;
        loop {
            let avail = &self.rbuf[self.rpos..self.rlen];
            if avail.len() < wire::LEN_PREFIX {
                return Ok(n);
            }
            let len =
                u32::from_le_bytes(avail[..wire::LEN_PREFIX].try_into().expect("4 bytes")) as usize;
            if len > wire::MAX_FRAME {
                return Err(format!("response frame of {len} bytes"));
            }
            if avail.len() < wire::LEN_PREFIX + len {
                return Ok(n);
            }
            let payload = &avail[wire::LEN_PREFIX..wire::LEN_PREFIX + len];
            let t0 = self.trace.then(Instant::now);
            let decoded = wire::decode_response(payload);
            if let Some(t0) = t0 {
                rec.decode.record(t0.elapsed().as_nanos() as u64);
            }
            self.rpos += wire::LEN_PREFIX + len;
            n += 1;
            let now = base.elapsed().as_nanos() as u64;
            match decoded {
                Ok((id, resp)) => self.answer(id, resp, now, rec),
                Err(e) => {
                    eprintln!("perfbench: undecodable response: {e}");
                    self.tally.errors += 1;
                }
            }
        }
    }

    fn answer(&mut self, id: u32, resp: KvResponse, now: u64, rec: &mut PhaseRec) {
        let p = self.pending[id as usize % SLOTS];
        if !p.live || p.id != id {
            eprintln!("perfbench: response to unknown request id {id}");
            self.tally.errors += 1;
            return;
        }
        self.pending[id as usize % SLOTS].live = false;
        self.outstanding -= 1;
        let lat = now.saturating_sub(p.sched_ns);
        let good = match (p.put, &resp) {
            (put, KvResponse::Busy) => {
                if put {
                    self.rejected.entry(p.key).or_default().push(p.version);
                }
                self.tally.busy += 1;
                return;
            }
            (true, KvResponse::Ok) => true,
            (false, KvResponse::Value(v)) => {
                let want = self.stored(p.key, p.version);
                match check::check_exact(v, &mut self.scratch, self.salt, p.key, want) {
                    Ok(()) => true,
                    Err(m) => {
                        if self.tally.mismatches < 5 {
                            eprintln!(
                                "perfbench: GET {} (want version {}) mismatched: {m:?}",
                                p.key, p.version
                            );
                        }
                        self.tally.mismatches += 1;
                        return;
                    }
                }
            }
            (false, KvResponse::NotFound) => {
                self.tally.mismatches += 1;
                return;
            }
            _ => false,
        };
        if !good {
            if self.tally.errors < 5 {
                eprintln!("perfbench: request {id} answered {resp:?}");
            }
            self.tally.errors += 1;
            return;
        }
        self.tally.ok += 1;
        rec.completed += 1;
        if p.put {
            rec.put.record(p.sched_ns, lat);
        } else {
            rec.get.record(p.sched_ns, lat);
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const POLLIN: std::ffi::c_short = 1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// Waits until `fd` is readable or `timeout` passes. `ppoll` keeps the
/// nanosecond timeout that a socket read timeout would round to a whole
/// scheduler tick.
fn wait_readable(fd: RawFd, timeout: Duration) -> std::io::Result<bool> {
    let mut p = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::ffi::c_long,
        tv_nsec: std::ffi::c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `p` and `ts` are live locals with the C layout ppoll(2)
    // expects for the whole call, `nfds` is 1 for the one entry, and a
    // null sigmask leaves the thread's signal mask unchanged.
    let r = unsafe { ppoll(&mut p, 1, &ts, std::ptr::null()) };
    if r < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == std::io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(r > 0)
}
