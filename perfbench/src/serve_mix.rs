//! `serve_mix`: open-loop request traffic against a real `ptsched serve`
//! child over loopback TCP.
//!
//! Requests are drawn by a seeded Zipf over the [`catalogue`]; the seed
//! also decides which keys are popular.  The catalogue is larger than the
//! child's `--cache-capacity`, so after an untimed warm-up the traffic
//! settles into a steady mix of hits, single-flight follows, cold misses
//! and evictions.  Latency is timed from each request's due time, so a
//! stall also charges the requests queued behind it.
//!
//! The load comes from this one process: one thread driving one
//! connection per core, each carrying one request at a time.

use crate::catalog::{catalogue, RequestBuilder, ServeKey};
use crate::checks::{self, CacheTag, ReplyFields};
use crate::trace::{self, Tracer};
use crate::util::{self, mean, median, quantile, Outcome, Rng, Zipf};
use pt_core::LayerScheduler;
use pt_cost::{CostModel, CostTable, TableStore};
use pt_serve::{CacheStatus, SchedService, ScheduleRequest, ServeConfig};
use pt_sim::Simulator;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schedules the child may cache: well below the catalogue's size.
pub const CACHE_CAPACITY: usize = 96;
/// The catalogue's layout (see [`catalogue`]): workloads × machines ×
/// steps × slow nodes × mappings.  A stratum is the keys that differ only
/// in mapping.
const WORKLOADS: usize = 7;
const MACHINES: usize = 4;
const STRATUM: usize = 2;

/// The stratum numbered `s` when counting workload fastest, then machine,
/// then steps × slow nodes, as an index into [`catalogue`]'s strata.
fn stratum_of(s: usize) -> usize {
    let workload = s % WORKLOADS;
    let machine = (s / WORKLOADS) % MACHINES;
    let variant = s / (WORKLOADS * MACHINES); // steps × slow, 0..4
    (workload * MACHINES + machine) * 4 + variant
}

/// Share of arrivals sent twice at once (a client fanning out the same
/// request), so single-flight follows occur.
const DUPLICATE_FRAC: f64 = 0.05;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.1;
/// The fixed offered rate of the latency segment (requests per second),
/// well below saturation on a two-core host.
pub const BASE_RATE: f64 = 400.0;
/// The p99 latency limit that `max_rps` must meet.
pub const P99_LIMIT_MS: f64 = 50.0;
/// A run whose generator sent its p99 request later than this after its
/// due time is invalid: the offered load was not the stated one.
pub const LATENESS_LIMIT_MS: f64 = 10.0;
/// The generator stops sleeping this long (seconds) before a request is
/// due and spins, yielding the CPU to the server, until it is due.
const SPIN_BEFORE_DUE_S: f64 = 300e-6;
/// Samples a ladder rung aims for, its shortest duration (seconds) and
/// the most rungs before the bisection.
const RUNG_SAMPLES: f64 = 2000.0;
const MIN_RUNG_S: f64 = 0.5;
const MAX_RUNGS: i32 = 8;
/// Requests of the closed-loop saturation segment.
const SATURATION_REQUESTS: usize = 10_000;
/// Untimed warm-up before the measured segments.
const WARMUP_S: f64 = 2.0;
/// Times the child is started to measure set-up, in each of four batches
/// spread over the run: before the traffic (its last child serves), and
/// after the fixed-rate segment, the ladder and the saturation burst.  A
/// shared host's speed changes in phases of seconds, and starts made back
/// to back all read one phase.
const SETUP_BATCH: usize = 9;

/// A running `ptsched serve` child; dropping it kills and reaps it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `ptsched serve`; the child inherits the calling thread's CPU
    /// set (see [`pin_traffic`]).
    pub fn spawn(ptsched: &Path, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(ptsched)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--sweep-workers",
                "1",
                "--cache-capacity",
                &CACHE_CAPACITY.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ptsched.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        match addr {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "ptsched serve did not report its address: {line:?}"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Move the service's `workers` worker threads (named `pt-serve-<n>`),
    /// which compute the misses, onto `cpus`.
    fn move_workers(&self, workers: usize, cpus: &[usize]) -> Result<(), String> {
        let dir = format!("/proc/{}/task", self.pid());
        let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
        let mask = util::CpuMask::of(cpus);
        let mut moved = 0;
        for task in tasks.flatten() {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            let tid = task.file_name().to_string_lossy().parse::<i32>();
            if let (true, Ok(tid)) = (comm.starts_with("pt-serve-"), tid) {
                if !mask.apply_to(tid) {
                    return Err(format!("cannot move service worker {tid} to CPUs {cpus:?}"));
                }
                moved += 1;
            }
        }
        if moved != workers {
            return Err(format!(
                "found {moved} of {workers} service workers to move"
            ));
        }
        Ok(())
    }
}

/// Keep the calling thread, which drives the TCP traffic, and the
/// `ptsched serve` children it starts on the first CPU of `cpus` (the
/// benchmark's own set, read at start-up) until the guard is dropped; on
/// one CPU nothing is pinned.  [`start`] then moves the serving child's
/// service workers, which compute the misses, to the other CPUs.
/// Everything else of the run stays unpinned.
///
/// On a virtual machine a request that crosses CPUs has to wake an idle
/// virtual CPU, and how long that takes depends on the host's load: with
/// the whole child on the other CPU, p50 latency read 0.21–0.37 ms and the
/// medians of two ten-seed sets differed by 30 %, against 0.17–0.20 ms with
/// its connection threads beside the generator.  Left to the kernel, the
/// placement changes from run to run and with it hit latency, by 2×.  The
/// workers go elsewhere so that a miss's milliseconds of compute neither
/// delay the generator's sends nor share one core between the workers.
fn pin_traffic(cpus: &[usize]) -> Option<util::Pinned> {
    (cpus.len() > 1).then(|| util::Pinned::to(&cpus[..1]))
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request/reply exchange on a fresh connection.
fn ask(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    s.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(reply)
}

/// The child's service counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub hits: u64,
    pub misses: u64,
    pub followed: u64,
    pub evictions: u64,
    pub evaluations: u64,
}

impl Stats {
    fn since(&self, before: &Stats) -> Stats {
        Stats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            followed: self.followed - before.followed,
            evictions: self.evictions - before.evictions,
            evaluations: self.evaluations - before.evaluations,
        }
    }
}

fn stats(addr: SocketAddr) -> Result<Stats, String> {
    let reply = ask(addr, r#"{"cmd":"stats"}"#)?;
    let v: serde::Value = serde_json::from_str(&reply).map_err(|e| e.to_string())?;
    let stats = match &v {
        serde::Value::Map(m) => m.iter().find(|(k, _)| k == "stats").map(|(_, v)| v),
        _ => None,
    }
    .ok_or_else(|| format!("bad stats reply {reply:?}"))?;
    let get = |name: &str| -> u64 {
        match serde::field(stats, name) {
            Ok(serde::Value::UInt(n)) => *n,
            Ok(serde::Value::Int(n)) => *n as u64,
            _ => 0,
        }
    };
    Ok(Stats {
        hits: get("hits"),
        misses: get("misses"),
        followed: get("followed"),
        evictions: get("evictions"),
        evaluations: get("evaluations"),
    })
}

/// The seeded request stream: Zipf ranks mapped onto catalogue keys by a
/// seeded permutation, Poisson arrivals.
pub struct Stream {
    rng: Rng,
    zipf: Zipf,
    rank_to_key: Vec<usize>,
}

impl Stream {
    /// Popularity ranks are dealt round-robin over the catalogue's strata,
    /// and the seed picks which key of a stratum (which mapping) gets
    /// which of that stratum's ranks.  Every seed thus spreads popularity,
    /// and so miss cost, the same way over workloads, machines, step
    /// counts and slow nodes, while its hot keys differ.
    pub fn new(seed: u64, keys: usize) -> Stream {
        let mut rng = Rng::new(seed, 0x5E4E);
        assert_eq!(keys % STRATUM, 0, "catalogue strata are whole");
        let strata = keys / STRATUM;
        let perms: Vec<Vec<usize>> = (0..strata)
            .map(|_| {
                let mut p: Vec<usize> = (0..STRATUM).collect();
                rng.shuffle(&mut p);
                p
            })
            .collect();
        let rank_to_key = (0..keys)
            .map(|r| {
                // Neighbouring ranks differ in workload, then machine,
                // then steps and slow nodes.
                let stratum = stratum_of(r % strata);
                stratum * STRATUM + perms[stratum][r / strata]
            })
            .collect();
        Stream {
            rng,
            zipf: Zipf::new(keys, ZIPF_S),
            rank_to_key,
        }
    }

    /// The next key of the popularity distribution.
    pub fn key(&mut self) -> usize {
        self.rank_to_key[self.zipf.sample(&mut self.rng)]
    }

    /// Arrivals of one segment: `(due seconds from the segment start, key)`.
    pub fn segment(&mut self, rate: f64, seconds: f64) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.next_f64()).ln() / rate;
            if t >= seconds {
                return out;
            }
            let key = self.key();
            out.push((t, key));
            // A duplicate at the same instant lands on the next connection:
            // concurrent requests for one key, the single-flight case.
            if self.rng.next_f64() < DUPLICATE_FRAC {
                out.push((t, key));
            }
        }
    }
}

/// What one request of a segment saw.
#[derive(Debug, Clone)]
pub struct Sample {
    pub key: usize,
    /// Seconds from due time to the reply, `None` if no reply arrived.
    pub latency: Option<f64>,
    /// Seconds the send ran behind the due time.
    pub lateness: f64,
    pub reply: String,
}

/// Offer `arrivals` (due times relative to now) over `conns` connections
/// from this one thread.  Each connection carries one request at a time,
/// like a keep-alive client pool: a due request takes the first free
/// connection, or waits in arrival order until one frees up, and that wait
/// counts in its latency.  (Pipelining several requests on one connection
/// would measure TCP's Nagle and delayed-ACK interplay, since `ptsched`
/// does not set `TCP_NODELAY`: a second queued reply waits about 40 ms for
/// the first one's acknowledgement.)
///
/// The sockets are non-blocking.  Between events the thread sleeps in
/// `ppoll` until a reply arrives or [`SPIN_BEFORE_DUE_S`] before the next
/// request is due, and then spins, yielding the CPU to the server that
/// shares it (see [`pin_traffic`]), until the request is due.  A socket
/// read timeout would be rounded to the kernel's tick and make sends late;
/// a timer that wakes a halted virtual CPU fires as late as the host is
/// busy, which made up half of the p50 latency; a loop that spun all the
/// time would take the CPU from the server.
pub fn drive(
    addr: SocketAddr,
    conns: usize,
    arrivals: &[(f64, usize)],
    lines: &[String],
) -> Result<Vec<Sample>, String> {
    struct Conn {
        s: TcpStream,
        /// The request in flight and its send lateness.
        busy: Option<(usize, f64)>,
        /// When the connection last became free (seconds).
        free_since: f64,
        buf: Vec<u8>,
    }
    let mut cs: Vec<Conn> = (0..conns)
        .map(|_| -> Result<Conn, String> {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                s,
                busy: None,
                free_since: 0.0,
                buf: Vec::new(),
            })
        })
        .collect::<Result<_, _>>()?;
    let mut samples: Vec<Option<Sample>> = vec![None; arrivals.len()];
    let last_due = arrivals.last().map_or(0.0, |a| a.0);
    let grace = 10.0;
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    let t0 = Instant::now();
    loop {
        let mut progress = false;
        // Send due requests on free connections, in arrival order.
        while next < arrivals.len() && arrivals[next].0 <= util::secs(t0) {
            let Some(c) = cs.iter_mut().find(|c| c.busy.is_none()) else {
                break;
            };
            let mut line = lines[arrivals[next].1].clone();
            line.push('\n');
            write_all_nonblocking(&mut c.s, line.as_bytes())?;
            let lateness = util::secs(t0) - arrivals[next].0.max(c.free_since);
            c.busy = Some((next, lateness));
            next += 1;
            progress = true;
        }
        // Collect replies.
        for c in &mut cs {
            let Some((i, lateness)) = c.busy else {
                continue;
            };
            match c.s.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    c.buf.extend_from_slice(&chunk[..n]);
                    progress = true;
                    if let Some(pos) = c.buf.iter().position(|&b| b == b'\n') {
                        let at = util::secs(t0);
                        let line: Vec<u8> = c.buf.drain(..=pos).collect();
                        if !c.buf.is_empty() {
                            return Err("reply without a request".into());
                        }
                        samples[i] = Some(Sample {
                            key: arrivals[i].1,
                            latency: Some(at - arrivals[i].0),
                            lateness,
                            reply: String::from_utf8_lossy(&line[..pos]).into_owned(),
                        });
                        c.busy = None;
                        c.free_since = at;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let idle = cs.iter().all(|c| c.busy.is_none());
        if (next == arrivals.len() && idle) || util::secs(t0) > last_due + grace {
            break;
        }
        if progress {
            continue;
        }
        // Sleep until a reply arrives on a busy connection or, if a
        // connection is free, until the next request is due.
        let now = util::secs(t0);
        let until_due = (next < arrivals.len() && cs.iter().any(|c| c.busy.is_none()))
            .then(|| arrivals[next].0 - now);
        let fds: Vec<i32> = cs
            .iter()
            .filter(|c| c.busy.is_some())
            .map(|c| c.s.as_raw_fd())
            .collect();
        if until_due.is_some_and(|d| d < SPIN_BEFORE_DUE_S) {
            std::thread::yield_now();
            continue;
        }
        let cap = last_due + grace - now;
        let sleep = until_due.map_or(cap, |d| d - SPIN_BEFORE_DUE_S);
        util::wait_readable(&fds, Some(sleep.min(cap).max(0.0)));
    }
    // Unanswered and unsent requests count as failed.
    Ok(samples
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or(Sample {
                key: arrivals[i].1,
                latency: None,
                lateness: 0.0,
                reply: String::new(),
            })
        })
        .collect())
}

fn write_all_nonblocking(s: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match s.write(bytes) {
            Ok(0) => return Err("server stopped reading".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// Latency summary of one segment.
#[derive(Debug, Clone)]
pub struct Summary {
    pub offered: usize,
    pub answered: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub late_p99_ms: f64,
    pub late_max_ms: f64,
    /// p50 latency of the second half over the first half's: above 1 the
    /// queue kept growing.
    pub backlog_growth: f64,
}

pub fn summarize(samples: &[Sample]) -> Summary {
    let lat: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.latency.map(|l| l * 1e3))
        .collect();
    let late: Vec<f64> = samples.iter().map(|s| s.lateness * 1e3).collect();
    let half = lat.len() / 2;
    let growth = if half >= 10 {
        quantile(&lat[half..], 0.9) / quantile(&lat[..half], 0.9)
    } else {
        1.0
    };
    Summary {
        offered: samples.len(),
        answered: lat.len(),
        mean_ms: if lat.is_empty() {
            f64::INFINITY
        } else {
            mean(&lat)
        },
        p50_ms: if lat.is_empty() {
            f64::INFINITY
        } else {
            median(&lat)
        },
        p99_ms: if lat.is_empty() {
            f64::INFINITY
        } else {
            quantile(&lat, 0.99)
        },
        late_p99_ms: if late.is_empty() {
            0.0
        } else {
            quantile(&late, 0.99)
        },
        late_max_ms: late.iter().copied().fold(0.0, f64::max),
        backlog_growth: growth,
    }
}

/// A cold compute of one request.
pub struct Cold {
    pub reply: ReplyFields,
    pub evaluations: u64,
    pub sim_tasks: u64,
}

/// The one-shot pipeline a reply must equal: single sweep worker, fresh
/// cost table (whose evaluations are counted exactly).
pub fn cold_reply(req: &ScheduleRequest, steps: usize) -> Cold {
    let model = CostModel::new(&req.machine);
    let table = CostTable::with_width(&model, req.graph.len(), req.total_cores);
    let schedule = LayerScheduler::new(&model)
        .with_sweep_workers(1)
        .schedule_on_with(&table, &req.graph, req.total_cores);
    let mapping = req.mapping.mapping(&req.machine, req.total_cores);
    let report = Simulator::new(&model).simulate_layered(&req.graph, &schedule, &mapping);
    Cold {
        reply: ReplyFields {
            signature: req.signature().to_string(),
            layers: schedule.layers.len() as u64,
            makespan_ms_per_step: report.makespan / steps as f64 * 1e3,
        },
        evaluations: table.evaluations() as u64,
        sim_tasks: report.tasks.len() as u64,
    }
}

/// Check every reply against a cold in-process compute of its key.
/// Returns the failed count and the cold computes' exact cost-evaluation
/// and simulated-task totals over the distinct keys.
fn check_replies(samples: &[Sample], keys: &[ServeKey], out: &mut Outcome) -> (u64, u64, u64) {
    let mut builder = RequestBuilder::default();
    let mut reference: HashMap<usize, Cold> = HashMap::new();
    let mut failed = 0;
    for s in samples {
        if s.latency.is_none() {
            failed += 1;
            continue;
        }
        let got = match checks::parse_reply(&s.reply) {
            Ok((got, _)) => got,
            Err(e) => {
                failed += 1;
                out.check("serve reply", Err(e));
                continue;
            }
        };
        let want = reference.entry(s.key).or_insert_with(|| {
            let key = &keys[s.key];
            cold_reply(&builder.request(key), key.steps)
        });
        if let Err(e) = checks::check_reply(&got, &want.reply) {
            failed += 1;
            out.check(&format!("reply to {}", keys[s.key].line()), Err(e));
        }
    }
    out.info("serve.distinct_keys_checked", reference.len());
    let evaluations = reference.values().map(|c| c.evaluations).sum();
    let tasks = reference.values().map(|c| c.sim_tasks).sum();
    (failed, evaluations, tasks)
}

/// Start the child `SETUP_BATCH` times, adding each set-up (spawn to the
/// first ready reply) to `times`.  Returns the last, running server, its
/// service workers moved off the first CPU (see [`pin_traffic`]).
fn start(ptsched: &Path, cpus: &[usize], times: &mut Vec<f64>) -> Result<Server, String> {
    let workers = cpus.len().max(1);
    let mut last = None;
    for _ in 0..SETUP_BATCH {
        drop(last.take());
        let t0 = Instant::now();
        let server = Server::spawn(ptsched, workers)?;
        stats(server.addr)?;
        times.push(util::secs(t0));
        last = Some(server);
    }
    let server = last.expect("at least one set-up");
    if cpus.len() > 1 {
        server.move_workers(workers, &cpus[1..])?;
    }
    Ok(server)
}

fn lines(keys: &[ServeKey]) -> Vec<String> {
    keys.iter().map(ServeKey::line).collect()
}

/// The untimed warm-up plus the fixed-rate segment; returns the segment's
/// samples and the child's counters and CPU seconds over it.
fn warm_and_measure(
    server: &Server,
    stream: &mut Stream,
    lines: &[String],
    conns: usize,
    seconds: f64,
) -> Result<(Vec<Sample>, Stats, f64), String> {
    let warm = stream.segment(BASE_RATE, WARMUP_S);
    drive(server.addr, conns, &warm, lines)?;
    let before = stats(server.addr)?;
    let cpu0 = util::proc_cpu_s(server.pid()).unwrap_or(0.0);
    let arrivals = stream.segment(BASE_RATE, seconds);
    let samples = drive(server.addr, conns, &arrivals, lines)?;
    let cpu = util::proc_cpu_s(server.pid()).unwrap_or(0.0) - cpu0;
    let after = stats(server.addr)?;
    Ok((samples, after.since(&before), cpu))
}

/// The untraced run: set-up, warm-up, a fixed-rate latency segment and a
/// rate ladder for the highest rate meeting the p99 limit.
pub fn run(seed: u64, seconds: f64, ptsched: &Path, cpus: &[usize]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let keys = catalogue();
    let lines = lines(&keys);
    let conns = cpus.len().max(1);
    let pin = pin_traffic(cpus);
    let mut setup_times = Vec::new();
    let server = start(ptsched, cpus, &mut setup_times)?;
    let mut stream = Stream::new(seed, keys.len());

    let fixed_s = seconds * 0.6;
    let (samples, delta, cpu_s) = warm_and_measure(&server, &mut stream, &lines, conns, fixed_s)?;
    let fixed = summarize(&samples);
    drop(start(ptsched, cpus, &mut setup_times)?);

    // Rate ladder: each rung offers twice the previous rate until p99
    // breaks the limit or a request goes unanswered, then four bisection
    // rungs narrow the crossing, which is finally interpolated in log p99.
    // A rung lasts long enough for about 2000 samples.
    let mut ladder: Vec<(f64, Summary)> = Vec::new();
    let mut all = samples.clone();
    let mut rung = |rate: f64, ladder: &mut Vec<(f64, Summary)>| -> Result<bool, String> {
        let rung_s = (RUNG_SAMPLES / rate).max(MIN_RUNG_S);
        let arrivals = stream.segment(rate, rung_s);
        let s = drive(server.addr, conns, &arrivals, &lines)?;
        let sum = summarize(&s);
        all.extend(s);
        let pass = passes(&sum);
        ladder.push((rate, sum));
        Ok(pass)
    };
    let (mut lo, mut hi) = (BASE_RATE, None);
    for k in 1..=MAX_RUNGS {
        let rate = BASE_RATE * 2f64.powi(k);
        if !rung(rate, &mut ladder)? {
            hi = Some(rate);
            break;
        }
        lo = rate;
    }
    if let Some(mut h) = hi {
        for _ in 0..4 {
            let mid = (lo * h).sqrt();
            if rung(mid, &mut ladder)? {
                lo = mid;
            } else {
                h = mid;
            }
        }
    }
    let max_rps = max_rate(&fixed, &ladder);
    drop(start(ptsched, cpus, &mut setup_times)?);
    // Saturation: every arrival due at once, so each connection sends its
    // next request as soon as its previous reply is in.
    let burst: Vec<(f64, usize)> = (0..SATURATION_REQUESTS)
        .map(|_| (0.0, stream.key()))
        .collect();
    let sat = drive(server.addr, conns, &burst, &lines)?;
    let sat_s = sat.iter().filter_map(|s| s.latency).fold(0.0, f64::max);
    let saturation_rps = sat.iter().filter(|s| s.latency.is_some()).count() as f64 / sat_s;
    all.extend(sat);

    drop(start(ptsched, cpus, &mut setup_times)?);
    let total = stats(server.addr)?;
    let rss = util::peak_rss_mb(&server.pid().to_string()).unwrap_or(0.0);
    drop(server);
    drop(pin);

    let (failed, _, _) = check_replies(&all, &keys, &mut out);
    out.check(
        "serve counts",
        checks::check_serve_counts(
            delta.hits,
            delta.misses,
            delta.followed,
            samples.iter().filter(|s| s.latency.is_some()).count() as u64,
        ),
    );
    out.check("generator lateness", lateness_ok(&fixed));
    out.attempted = all.len() as u64;
    out.failed = failed;

    out.metric("setup_s", median(&setup_times), "s");
    out.metric("latency_ms", fixed.p50_ms, "ms");
    out.metric("peak_rss_mb", rss, "MB");

    out.info("serve_p50_ms", fixed.p50_ms);
    out.info("serve_p99_ms", fixed.p99_ms);
    out.info("serve_mean_ms", fixed.mean_ms);
    out.info("serve_samples", fixed.answered);
    out.info("serve_offered_rps", BASE_RATE);
    out.info("serve_max_rps", max_rps);
    out.info("serve_saturation_rps", saturation_rps);
    out.info("serve_p99_limit_ms", P99_LIMIT_MS);
    out.info("generator_late_p99_ms", fixed.late_p99_ms);
    out.info("generator_late_max_ms", fixed.late_max_ms);
    out.info(
        "ladder",
        serde::Value::Seq(
            ladder
                .iter()
                .map(|(rate, s)| {
                    serde::Value::Map(vec![
                        ("rate".into(), serde::Value::Float(*rate)),
                        ("p99_ms".into(), serde::Value::Float(s.p99_ms)),
                        ("answered".into(), serde::Value::UInt(s.answered as u64)),
                        ("offered".into(), serde::Value::UInt(s.offered as u64)),
                        (
                            "backlog_growth".into(),
                            serde::Value::Float(s.backlog_growth),
                        ),
                    ])
                })
                .collect(),
        ),
    );
    out.info("serve.hits", delta.hits);
    out.info("serve.misses", delta.misses);
    out.info("serve.followed", delta.followed);
    out.info("serve.evictions", delta.evictions);
    out.info("serve.cost_evaluations", delta.evaluations);
    out.info(
        "serve.requests_total",
        total.hits + total.misses + total.followed,
    );
    out.info(
        "ptsched.cpu_us_per_req",
        cpu_s * 1e6 / fixed.answered.max(1) as f64,
    );
    out.info("failed_frac", failed as f64 / out.attempted.max(1) as f64);
    Ok(out)
}

fn lateness_ok(s: &Summary) -> Result<(), String> {
    if s.late_p99_ms > LATENESS_LIMIT_MS {
        return Err(format!(
            "p99 send lateness {:.2} ms exceeds {LATENESS_LIMIT_MS} ms: the offered rate was not met",
            s.late_p99_ms
        ));
    }
    Ok(())
}

fn passes(s: &Summary) -> bool {
    s.p99_ms <= P99_LIMIT_MS && s.answered == s.offered
}

/// The highest offered rate meeting the p99 limit: between the highest
/// passing rung and the lowest failing rung above it, interpolated in log
/// p99 (the fixed-rate segment counts as a passing rung).
fn max_rate(fixed: &Summary, ladder: &[(f64, Summary)]) -> f64 {
    let pass = ladder
        .iter()
        .filter(|(_, s)| passes(s))
        .map(|(r, s)| (*r, s.p99_ms))
        .chain(std::iter::once((BASE_RATE, fixed.p99_ms)))
        .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
    let fail = ladder
        .iter()
        .filter(|(r, s)| !passes(s) && *r > pass.0)
        .map(|(r, s)| (*r, s.p99_ms))
        .fold(None, |a: Option<(f64, f64)>, b| match a {
            Some(a) if a.0 <= b.0 => Some(a),
            _ => Some(b),
        });
    let Some((r1, p1)) = fail else {
        return pass.0;
    };
    let (r0, p0) = (pass.0, pass.1.min(P99_LIMIT_MS * 0.999));
    let p1 = if p1.is_finite() {
        p1.max(P99_LIMIT_MS * 1.001)
    } else {
        P99_LIMIT_MS * 10.0
    };
    let f = (P99_LIMIT_MS.ln() - p0.ln()) / (p1.ln() - p0.ln());
    r0 + f * (r1 - r0)
}

/// One mirrored warm table: its key, the request that made it, the store
/// and the mirror's clock at its last use.
#[derive(Clone)]
struct WarmTable {
    sig: pt_serve::Signature,
    request: ScheduleRequest,
    store: Arc<TableStore>,
    last_used: u64,
}

/// Mirror of the service's warm cost tables, for the standalone compute
/// of each traced miss: per service worker, an LRU of table stores with
/// the worker's capacity, fed every miss the way [`SchedService`] routes
/// it (`table_signature % workers`) and in the order the worker took them.
/// A standalone compute thus runs on tables exactly as warm as the
/// service's worker had them, without the queue in front of the worker.
struct WarmMirror {
    workers: Vec<Vec<WarmTable>>,
    capacity: usize,
    clock: u64,
}

impl WarmMirror {
    fn new(config: &ServeConfig) -> WarmMirror {
        WarmMirror {
            workers: vec![Vec::new(); config.workers],
            capacity: config.tables_per_worker.max(1),
            clock: 0,
        }
    }

    /// The warm store the service's worker uses for `req`, created (and
    /// the least recently used one evicted) as the worker would.
    fn store(&mut self, req: &ScheduleRequest) -> Arc<TableStore> {
        self.clock += 1;
        let sig = req.table_signature();
        let worker = (sig.0 % self.workers.len() as u128) as usize;
        let tables = &mut self.workers[worker];
        if let Some(t) = tables
            .iter_mut()
            .find(|t| t.sig == sig && t.request.same_table_inputs(req))
        {
            t.last_used = self.clock;
            return t.store.clone();
        }
        let store = Arc::new(TableStore::with_classes(
            req.graph.len(),
            req.total_cores,
            req.machine.speed_classes().len(),
        ));
        if tables.len() >= self.capacity {
            if let Some(lru) = (0..tables.len()).min_by_key(|&i| tables[i].last_used) {
                tables.swap_remove(lru);
            }
        }
        tables.push(WarmTable {
            sig,
            request: req.clone(),
            store: store.clone(),
            last_used: self.clock,
        });
        store
    }

    /// Schedule, map and simulate `req` as the service's worker would, on
    /// the mirrored warm store, each step in its own span under a
    /// `standalone` root.
    fn compute(&mut self, t: &mut Tracer, req: &ScheduleRequest, id: u64) {
        let store = self.store(req);
        let root = t.begin("standalone", id);
        let model = CostModel::new(&req.machine);
        let table = CostTable::shared(&model, store);
        let scheduler = LayerScheduler::new(&model).with_sweep_workers(1);
        let schedule = t.span("core.schedule", id, || {
            scheduler.schedule_on_with(&table, &req.graph, req.total_cores)
        });
        let mapping = t.span("core.map", id, || {
            req.mapping.mapping(&req.machine, req.total_cores)
        });
        let report = t.span("sim.layered", id, || {
            Simulator::new(&model).simulate_layered(&req.graph, &schedule, &mapping)
        });
        std::hint::black_box(report);
        t.end(root);
    }
}

/// In-process replay of one arrival sequence through the public crates,
/// paced like the TCP run, one client thread per connection.  With
/// tracing each layer call gets a span, and after the replay every miss is
/// computed again standalone on a [`WarmMirror`] (outside the requests'
/// span trees and after their timing).  Returns the tracers and the
/// summed busy seconds of all requests.
fn replay(
    arrivals: &[(f64, usize)],
    keys: &[ServeKey],
    conns: usize,
    traced: bool,
    epoch: Instant,
) -> (Vec<Tracer>, f64) {
    let config = ServeConfig {
        workers: conns,
        sweep_workers: 1,
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    };
    let service = SchedService::new(config.clone());
    let lines = lines(keys);
    let builder = std::sync::Mutex::new(RequestBuilder::default());
    let t0 = Instant::now();
    let results: Vec<(Tracer, f64)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (service, lines, builder) = (&service, &lines, &builder);
                sc.spawn(move || {
                    let mut t = Tracer::new(epoch);
                    let mut busy = 0.0;
                    for i in (c..arrivals.len()).step_by(conns) {
                        let (due, key) = arrivals[i];
                        let wait = due - t0.elapsed().as_secs_f64();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let id = i as u64;
                        let start = Instant::now();
                        let root = traced.then(|| t.begin("request", id));
                        let span = |t: &mut Tracer, name: &str| traced.then(|| t.begin(name, id));
                        let close = |t: &mut Tracer, s: Option<usize>| {
                            if let Some(s) = s {
                                t.end(s)
                            }
                        };
                        // Decode: parse the line and resolve graph and machine.
                        let s = span(&mut t, "ptsched.decode");
                        let v: serde::Value =
                            serde_json::from_str(&lines[key]).expect("catalogue line parses");
                        std::hint::black_box(&v);
                        let req = builder.lock().expect("builder lock").request(&keys[key]);
                        close(&mut t, s);
                        let s = span(&mut t, "serve.key");
                        std::hint::black_box(req.signature());
                        close(&mut t, s);
                        let s = span(&mut t, "serve.schedule");
                        let (reply, status) =
                            service.schedule(req).expect("catalogue requests succeed");
                        if let Some(s) = s {
                            t.end_as(
                                s,
                                match status {
                                    CacheStatus::Hit => "serve.hit",
                                    CacheStatus::Miss => "serve.miss",
                                    CacheStatus::Followed => "serve.follow",
                                },
                            );
                        }
                        let s = span(&mut t, "ptsched.encode");
                        let line = format!(
                            "{{\"ok\":true,\"cache\":\"{}\",\"signature\":\"{}\",\"layers\":{},\"makespan_ms_per_step\":{},\"cost_evaluations\":{}}}",
                            match status {
                                CacheStatus::Hit => "hit",
                                CacheStatus::Miss => "miss",
                                CacheStatus::Followed => "followed",
                            },
                            reply.signature,
                            reply.schedule.layers.len(),
                            serde_json::to_string(&(reply.makespan / keys[key].steps as f64 * 1e3))
                                .expect("float"),
                            reply.cost_evaluations
                        );
                        std::hint::black_box(line);
                        close(&mut t, s);
                        if let Some(root) = root {
                            t.end(root);
                        }
                        busy += start.elapsed().as_secs_f64();
                    }
                    (t, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    drop(service);
    let busy = results.iter().map(|r| r.1).sum();
    let mut tracers: Vec<Tracer> = results.into_iter().map(|r| r.0).collect();
    if traced {
        // A worker takes its misses in the order they were queued, which is
        // when their `serve.miss` spans began.
        let mut misses: Vec<(f64, u64)> = tracers
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.name == "serve.miss")
            .map(|s| (s.start_us, s.request))
            .collect();
        misses.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut mirror = WarmMirror::new(&config);
        let mut builder = RequestBuilder::default();
        let mut t = Tracer::new(epoch);
        for (_, id) in misses {
            let req = builder.request(&keys[arrivals[id as usize].1]);
            mirror.compute(&mut t, &req, id);
        }
        tracers.push(t);
    }
    (tracers, busy)
}

/// Mean duration (µs) of the spans named `name`.
fn mean_us(spans: &[trace::Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_us - s.start_us)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        mean(&d)
    }
}

/// The traced run: a TCP segment for transport and child CPU, then an
/// in-process replay of the same arrivals with a span around every layer
/// call, and the same replay untraced for the tracing overhead.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    ptsched: &Path,
    cpus: &[usize],
    epoch: Instant,
) -> Result<(Outcome, Vec<trace::Span>), String> {
    let mut out = Outcome::default();
    let keys = catalogue();
    let lines = lines(&keys);
    let conns = cpus.len().max(1);

    // TCP: latency and hit round trips as the user sees them, and the
    // child's CPU per request.  The in-process replays below run unpinned.
    let pin = pin_traffic(cpus);
    let server = start(ptsched, cpus, &mut Vec::new())?;
    let mut stream = Stream::new(seed, keys.len());
    let measure_s = seconds * 0.3;
    let (samples, delta, cpu_s) = warm_and_measure(&server, &mut stream, &lines, conns, measure_s)?;
    drop(server);
    drop(pin);
    let (failed, evaluations, sim_tasks) = check_replies(&samples, &keys, &mut out);
    let latency_us = |tag: Option<CacheTag>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| tag.is_none() || checks::parse_reply(&s.reply).map(|r| r.1).ok() == tag)
            .filter_map(|s| s.latency.map(|l| l * 1e6))
            .collect()
    };
    let hit_latency = latency_us(Some(CacheTag::Hit));
    let all_latency = latency_us(None);
    out.attempted = samples.len() as u64;
    out.failed = failed;

    // In-process replay of the same arrivals (warm-up included, so the
    // cache state matches), untraced and traced.
    let mut stream = Stream::new(seed, keys.len());
    let mut arrivals = stream.segment(BASE_RATE, WARMUP_S);
    let measured_from = arrivals.len();
    arrivals.extend(
        stream
            .segment(BASE_RATE, measure_s)
            .into_iter()
            .map(|(t, k)| (t + WARMUP_S, k)),
    );
    let (_, busy_plain) = replay(&arrivals, &keys, conns, false, epoch);
    let (tracers, busy_traced) = replay(&arrivals, &keys, conns, true, epoch);
    let mut t = Tracer::new(epoch);
    for tr in tracers {
        t.absorb(tr);
    }
    // Per-layer figures cover the measured segment, not the warm-up.
    let spans = reindex(&t.spans, |s| s.request as usize >= measured_from);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let requests = count("request").max(1.0);

    let decode = mean_us(&spans, "ptsched.decode");
    let encode = mean_us(&spans, "ptsched.encode");
    let key = mean_us(&spans, "serve.key");
    let hit = mean_us(&spans, "serve.hit");
    let miss_ms = mean_us(&spans, "serve.miss") / 1e3;
    let standalone_ms = mean_us(&spans, "standalone") / 1e3;
    let hit_path = decode + hit + encode;

    out.metric("ptsched.decode_us", decode, "us");
    out.metric("ptsched.encode_us", encode, "us");
    out.metric(
        "ptsched.transport_us",
        if hit_latency.is_empty() {
            0.0
        } else {
            median(&hit_latency)
        } - hit_path,
        "us",
    );
    out.metric(
        "ptsched.cpu_us_per_req",
        cpu_s * 1e6 / all_latency.len().max(1) as f64,
        "us",
    );
    out.metric("serve.key_us", key, "us");
    out.metric("serve.hit_us", hit, "us");
    out.metric("serve.miss_ms", miss_ms, "ms");
    out.metric("serve.queue_wait_ms", miss_ms - standalone_ms, "ms");
    out.metric("serve.hit_ratio", count("serve.hit") / requests, "ratio");
    out.metric(
        "serve.follow_ratio",
        count("serve.follow") / requests,
        "ratio",
    );
    out.metric("serve.evictions", delta.evictions as f64, "count");
    out.metric("serve.cost_evaluations", delta.evaluations as f64, "count");
    // The scheduler and simulator as the misses ran them (standalone
    // computes on mirrored warm tables), and exact counts from the cold
    // computes of the distinct keys.
    out.metric(
        "core.schedule_ms",
        mean_us(&spans, "core.schedule") / 1e3,
        "ms",
    );
    out.metric("core.map_ms", mean_us(&spans, "core.map") / 1e3, "ms");
    out.metric("sim.layered_ms", mean_us(&spans, "sim.layered") / 1e3, "ms");
    out.metric("core.cost_evaluations", evaluations as f64, "count");
    out.metric("sim.tasks", sim_tasks as f64, "count");
    out.metric(
        "obs.overhead_frac",
        busy_traced / busy_plain.max(1e-9) - 1.0,
        "ratio",
    );

    // Accounting of the mean TCP latency: in-process self times per
    // request, the misses split into the standalone compute's layers and
    // the queue wait, and the transport as the named remainder.
    let mean_latency = if all_latency.is_empty() {
        0.0
    } else {
        mean(&all_latency)
    };
    let mut acc: Vec<(String, f64)> = Vec::new();
    let per_request = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum::<f64>()
            / requests
    };
    let self_us = trace::self_times(&spans);
    let mut in_process = 0.0;
    for (name, (_, _, self_total)) in &self_us {
        if name == "standalone" || name.starts_with("core.") || name.starts_with("sim.") {
            continue;
        }
        let us = self_total / requests;
        in_process += us;
        if name == "serve.miss" {
            let mut compute = 0.0;
            for layer in ["core.schedule", "core.map", "sim.layered"] {
                let u = per_request(layer);
                compute += u;
                acc.push((layer.to_string(), u));
            }
            acc.push(("serve.queue_wait".into(), us - compute));
        } else {
            acc.push((name.clone(), us));
        }
    }
    acc.push(("ptsched.transport".into(), mean_latency - in_process));
    out.info("mean_latency_us", mean_latency);
    out.info(
        "accounting",
        serde::Value::Map(
            acc.into_iter()
                .map(|(k, us)| (k, serde::Value::Float(us / mean_latency.max(1e-9))))
                .collect(),
        ),
    );
    Ok((out, spans))
}

/// The spans whose request passes `keep`, with parents re-indexed.
fn reindex(spans: &[trace::Span], keep: impl Fn(&trace::Span) -> bool) -> Vec<trace::Span> {
    let mut map = vec![usize::MAX; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if keep(s) {
            map[i] = out.len();
            let mut s = s.clone();
            s.parent = s.parent.map(|p| map[p]);
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Requests of three workloads on one machine: three table keys.
    fn requests() -> Vec<ScheduleRequest> {
        let keys = catalogue();
        let mut builder = RequestBuilder::default();
        ["epol", "irk", "pab"]
            .iter()
            .map(|w| {
                let key = keys
                    .iter()
                    .find(|k| k.workload == *w)
                    .expect("in catalogue");
                builder.request(key)
            })
            .collect()
    }

    #[test]
    fn mirror_reuses_and_evicts_tables_like_a_service_worker() {
        let r = requests();
        let config = ServeConfig {
            workers: 1,
            tables_per_worker: 2,
            ..ServeConfig::default()
        };
        let mut mirror = WarmMirror::new(&config);
        let a = mirror.store(&r[0]);
        assert!(
            Arc::ptr_eq(&a, &mirror.store(&r[0])),
            "same table key, same store"
        );
        let b = mirror.store(&r[1]);
        assert!(!Arc::ptr_eq(&a, &b));
        mirror.store(&r[0]); // now b is the least recently used
        mirror.store(&r[2]); // evicts b
        assert!(Arc::ptr_eq(&a, &mirror.store(&r[0])));
        assert!(!Arc::ptr_eq(&b, &mirror.store(&r[1])), "b was evicted");
    }

    #[test]
    fn mirror_routes_by_table_key_like_the_service() {
        let r = requests();
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let mut mirror = WarmMirror::new(&config);
        for req in &r {
            mirror.store(req);
        }
        for req in &r {
            let worker = (req.table_signature().0 % 2) as usize;
            let sig = req.table_signature();
            assert!(mirror.workers[worker].iter().any(|t| t.sig == sig));
            assert!(mirror.workers[1 - worker].iter().all(|t| t.sig != sig));
        }
    }
}
