//! `ptsched` — schedule, map and simulate an M-task workload from the
//! command line.
//!
//! ```text
//! ptsched [--workload epol|irk|diirk|pab|pabm|sp-mz|bt-mz]
//!         [--platform chic|altix|juropa] [--cores N]
//!         [--mapping consecutive|scattered|mixed2|mixed4]
//!         [--groups G] [--steps S] [--gantt]
//!         [--slow-nodes N] [--slow-factor F] [--trace PATH]
//! ptsched serve [--listen ADDR] [--workers N] [--sweep-workers N]
//!               [--cache-capacity N]
//! ```
//!
//! `--slow-nodes N` degrades the *last* N nodes of the machine to
//! `--slow-factor` × nominal speed (default 0.5), turning on the layer
//! scheduler's heterogeneity-aware path.  `--trace PATH` writes a
//! Chrome-trace JSON of the run — scheduler phases plus the simulated
//! timeline under the selected mapping — openable at
//! <https://ui.perfetto.dev>.
//!
//! The one-shot form prints the computed schedule, the simulated time per
//! step under the chosen mapping (and all alternatives for comparison) and
//! optionally an ASCII timeline.  Malformed or out-of-range arguments exit
//! with status 2 and a pointer to `--help`; scheduling failures exit 1.
//!
//! `ptsched serve` runs the scheduler as a long-lived service answering
//! line-delimited JSON requests — on stdin/stdout by default, or on a TCP
//! socket with `--listen HOST:PORT` (one connection per client thread).
//! Each request line selects a workload the same way the one-shot flags do:
//!
//! ```text
//! {"workload":"epol","platform":"chic","cores":64,"mapping":"consecutive","steps":2}
//! {"workload":"bt-mz","platform":"juropa","cores":256,"slow_nodes":8,"slow_factor":0.5}
//! {"cmd":"stats"}
//! {"cmd":"submit","workload":"epol","steps":1,"arrival":0.0,"min_width":2}
//! {"cmd":"tenant","platform":"chic","cores":16,"policy":"malleable"}
//! ```
//!
//! Responses are one JSON object per line: `{"ok":true,"cache":"hit",...}`
//! with the simulated time per step, or `{"ok":false,"error":"..."}`.
//! Repeated requests are answered from the service's content-addressed
//! schedule cache (see the `pt-serve` crate).
//!
//! `{"cmd":"submit"}` queues one job of an online multi-tenant stream;
//! `{"cmd":"tenant"}` runs the queued stream as a scenario under a policy
//! (`fcfs` | `equi` | `malleable`, see the `pt-tenant` crate) and answers
//! with makespan, per-job stretch and platform utilization (`"drain":false`
//! keeps the stream queued for comparing policies on the same jobs).

use parallel_tasks::core::{LayerScheduler, MappingStrategy};
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::{platforms, ClusterSpec};
use parallel_tasks::mtask::TaskGraph;
use parallel_tasks::nas::{bt_mz, sp_mz, Class};
use parallel_tasks::obs::TraceRecorder;
use parallel_tasks::ode::{Bruss2d, Diirk, Epol, Irk, Pab, Pabm};
use parallel_tasks::serve::{CacheStatus, SchedService, ScheduleRequest, ServeConfig};
use parallel_tasks::sim::{render_gantt, render_layers, Simulator};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};

struct Options {
    workload: String,
    platform: String,
    cores: usize,
    mapping: String,
    groups: Option<usize>,
    steps: usize,
    gantt: bool,
    slow_nodes: usize,
    slow_factor: f64,
    trace: Option<String>,
}

const WORKLOADS: &[&str] = &["epol", "irk", "diirk", "pab", "pabm", "sp-mz", "bt-mz"];

fn parse_args(args: &mut dyn Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        workload: "epol".into(),
        platform: "chic".into(),
        cores: 64,
        mapping: "consecutive".into(),
        groups: None,
        steps: 2,
        gantt: false,
        slow_nodes: 0,
        slow_factor: 0.5,
        trace: None,
    };
    while let Some(a) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => o.workload = take("--workload")?,
            "--platform" => o.platform = take("--platform")?,
            "--cores" => {
                o.cores = take("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?
            }
            "--mapping" => o.mapping = take("--mapping")?,
            "--groups" => {
                o.groups = Some(
                    take("--groups")?
                        .parse()
                        .map_err(|e| format!("--groups: {e}"))?,
                )
            }
            "--steps" => {
                o.steps = take("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--gantt" => o.gantt = true,
            "--slow-nodes" => {
                o.slow_nodes = take("--slow-nodes")?
                    .parse()
                    .map_err(|e| format!("--slow-nodes: {e}"))?
            }
            "--slow-factor" => {
                o.slow_factor = take("--slow-factor")?
                    .parse()
                    .map_err(|e| format!("--slow-factor: {e}"))?
            }
            "--trace" => o.trace = Some(take("--trace")?),
            "--help" | "-h" => {
                println!(
                    "usage: ptsched [--workload epol|irk|diirk|pab|pabm|sp-mz|bt-mz] \
                     [--platform chic|altix|juropa] [--cores N] \
                     [--mapping consecutive|scattered|mixed2|mixed4] \
                     [--groups G] [--steps S] [--gantt] \
                     [--slow-nodes N] [--slow-factor F] [--trace PATH]\n\
                     \x20      ptsched serve [--listen HOST:PORT] [--workers N] \
                     [--sweep-workers N] [--cache-capacity N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    validate_options(&o)?;
    Ok(o)
}

/// Range checks for values that parse but cannot be scheduled — the
/// scheduling pipeline enforces these with asserts, which must never be
/// reachable from the command line.
fn validate_options(o: &Options) -> Result<(), String> {
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload `{}`", o.workload));
    }
    let machine = platform(&o.platform)?;
    mapping(&o.mapping)?;
    check_cores(&machine, o.cores)?;
    if o.groups == Some(0) {
        return Err("--groups must be at least 1".into());
    }
    if o.steps == 0 {
        return Err("--steps must be at least 1".into());
    }
    check_slow(&machine, o.cores, o.slow_nodes, o.slow_factor)?;
    Ok(())
}

/// `--slow-nodes` / `--slow-factor` range checks against the sub-machine
/// actually used (`cores` wide), whose node count bounds the slow tail.
fn check_slow(
    machine: &ClusterSpec,
    cores: usize,
    slow_nodes: usize,
    slow_factor: f64,
) -> Result<(), String> {
    let nodes = cores / machine.cores_per_node();
    if slow_nodes > nodes {
        return Err(format!(
            "--slow-nodes {slow_nodes} exceeds the {nodes} nodes selected by --cores {cores}"
        ));
    }
    if !(slow_factor > 0.0 && slow_factor.is_finite()) {
        return Err("--slow-factor must be a positive number".into());
    }
    Ok(())
}

fn check_cores(machine: &ClusterSpec, cores: usize) -> Result<(), String> {
    let cpn = machine.cores_per_node();
    if cores == 0 {
        return Err("--cores must be at least 1".into());
    }
    if !cores.is_multiple_of(cpn) {
        return Err(format!(
            "--cores {cores} is not a whole number of {cpn}-core `{}` nodes",
            machine.name
        ));
    }
    if cores / cpn > machine.nodes {
        return Err(format!(
            "--cores {cores} exceeds `{}` ({} nodes x {cpn} cores)",
            machine.name, machine.nodes
        ));
    }
    Ok(())
}

fn platform(name: &str) -> Result<ClusterSpec, String> {
    match name {
        "chic" => Ok(platforms::chic()),
        "altix" => Ok(platforms::altix()),
        "juropa" => Ok(platforms::juropa()),
        other => Err(format!("unknown platform `{other}`")),
    }
}

fn mapping(name: &str) -> Result<MappingStrategy, String> {
    match name {
        "consecutive" => Ok(MappingStrategy::Consecutive),
        "scattered" => Ok(MappingStrategy::Scattered),
        "mixed2" => Ok(MappingStrategy::Mixed(2)),
        "mixed4" => Ok(MappingStrategy::Mixed(4)),
        other => Err(format!("unknown mapping `{other}`")),
    }
}

fn workload(name: &str, steps: usize) -> Result<TaskGraph, String> {
    let sparse = Bruss2d::new(250);
    Ok(match name {
        "epol" => Epol::new(8).step_graph(&sparse, steps),
        "irk" => Irk::new(4, 3).step_graph(&sparse, steps),
        "diirk" => Diirk::new(4, 2).step_graph(&Bruss2d::new(80), steps, 2.0),
        "pab" => Pab::new(8).step_graph(&sparse, steps),
        "pabm" => Pabm::new(8, 2).step_graph(&sparse, steps),
        "sp-mz" => sp_mz(Class::B).step_graph(steps),
        "bt-mz" => bt_mz(Class::B).step_graph(steps),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        std::process::exit(serve_main(&mut args));
    }
    let o = match parse_args(&mut args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ptsched: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let run = || -> Result<(), String> {
        let machine = platform(&o.platform)?;
        let mut spec = machine.with_cores(o.cores);
        if o.slow_nodes > 0 {
            spec = spec.with_slow_nodes(o.slow_nodes, o.slow_factor);
        }
        let graph = workload(&o.workload, o.steps)?;
        let model = CostModel::new(&spec);
        let mut scheduler = LayerScheduler::new(&model);
        if let Some(g) = o.groups {
            scheduler = scheduler.with_fixed_groups(g);
        }
        let recorder = o.trace.as_ref().map(|_| Arc::new(TraceRecorder::new(1)));
        if let Some(r) = &recorder {
            scheduler = scheduler.with_recorder(r.clone());
        }
        let schedule = scheduler.schedule(&graph);
        println!(
            "workload {} ({} tasks, {} edges) on {} x {} cores",
            o.workload,
            graph.len(),
            graph.edge_count(),
            spec.name,
            o.cores
        );
        if !spec.is_uniform() {
            println!(
                "machine: last {} of {} nodes at {}x nominal speed \
                 (het-aware scheduling on, classes {:?})",
                o.slow_nodes,
                spec.nodes,
                o.slow_factor,
                spec.speed_classes()
            );
        }
        println!(
            "schedule: {} layers, group counts {:?}",
            schedule.layers.len(),
            schedule
                .layers
                .iter()
                .map(|l| l.num_groups())
                .collect::<Vec<_>>()
        );

        let sim = Simulator::new(&model);
        let chosen = mapping(&o.mapping)?;
        println!("\nsimulated time per step by mapping:");
        // Each candidate mapping simulates independently; fan the sweep out
        // one thread per strategy and print in the original (deterministic)
        // order afterwards.
        let strategies = MappingStrategy::all_for(&spec);
        let cores = o.cores;
        let reports: Vec<_> = std::thread::scope(|sc| {
            let handles: Vec<_> = strategies
                .iter()
                .map(|&s| {
                    let (sim, graph, schedule, spec) = (&sim, &graph, &schedule, &spec);
                    sc.spawn(move || {
                        let m = s.mapping(spec, cores);
                        sim.simulate_layered(graph, schedule, &m)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mapping sweep worker panicked"))
                .collect()
        });
        for (&s, rep) in strategies.iter().zip(&reports) {
            let marker = if s == chosen { " <-- selected" } else { "" };
            println!(
                "  {:<12} {:>10.3} ms{}",
                s.name(),
                rep.makespan / o.steps as f64 * 1e3,
                marker
            );
        }

        let m = chosen.mapping(&spec, o.cores);
        let rep = sim.simulate_layered(&graph, &schedule, &m);
        println!("\nlayer timing ({}):", chosen.name());
        print!("{}", render_layers(&rep));
        if o.gantt {
            println!("\ntimeline:");
            print!("{}", render_gantt(&rep, &graph, 64));
        }
        if let Some(path) = &o.trace {
            let mut trace = parallel_tasks::sim::chrome_trace(&graph, &schedule, &rep, &m, &spec);
            trace.name_process(parallel_tasks::core::two_level::SCHED_PID, "scheduler");
            trace.name_thread(parallel_tasks::core::two_level::SCHED_PID, 0, "phases");
            if let Some(r) = recorder {
                drop(scheduler); // releases the scheduler's recorder handle
                let mut r =
                    Arc::try_unwrap(r).expect("scheduler drops its recorder handle after the run");
                trace.extend(r.drain());
            }
            std::fs::write(path, trace.to_json()).map_err(|e| format!("--trace {path}: {e}"))?;
            println!("\nwrote chrome trace to {path}");
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("ptsched: {e}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// serve mode
// ---------------------------------------------------------------------------

struct ServeOptions {
    listen: Option<String>,
    config: ServeConfig,
}

fn parse_serve_args(args: &mut dyn Iterator<Item = String>) -> Result<ServeOptions, String> {
    let mut o = ServeOptions {
        listen: None,
        config: ServeConfig::default(),
    };
    while let Some(a) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let positive = |name: &str, v: String| -> Result<usize, String> {
            let n: usize = v.parse().map_err(|e| format!("{name}: {e}"))?;
            if n == 0 {
                return Err(format!("{name} must be at least 1"));
            }
            Ok(n)
        };
        match a.as_str() {
            "--listen" => o.listen = Some(take("--listen")?),
            "--workers" => o.config.workers = positive("--workers", take("--workers")?)?,
            "--sweep-workers" => {
                o.config.sweep_workers = positive("--sweep-workers", take("--sweep-workers")?)?
            }
            "--cache-capacity" => {
                o.config.cache_capacity = positive("--cache-capacity", take("--cache-capacity")?)?
            }
            "--help" | "-h" => {
                println!(
                    "usage: ptsched serve [--listen HOST:PORT] [--workers N] \
                     [--sweep-workers N] [--cache-capacity N]\n\
                     reads one JSON request per line (stdin, or per TCP \
                     connection with --listen) and writes one JSON response \
                     per line"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

/// Workload graphs memoized by (name, steps): repeated requests share one
/// `Arc`, so the cache's structural verification short-circuits on pointer
/// equality.
type GraphCache = Mutex<HashMap<(String, usize), Arc<TaskGraph>>>;
type MachineCache = Mutex<HashMap<(String, usize, usize, u64), Arc<ClusterSpec>>>;

/// One job queued by `{"cmd":"submit"}`, awaiting a `{"cmd":"tenant"}`
/// scenario run.
struct PendingJob {
    workload: String,
    steps: usize,
    arrival: f64,
    min_width: usize,
}

struct ServeState {
    service: SchedService,
    graphs: GraphCache,
    machines: MachineCache,
    /// The submit-mode job stream (drained by `{"cmd":"tenant"}`).
    pending: Mutex<Vec<PendingJob>>,
}

fn serve_main(args: &mut dyn Iterator<Item = String>) -> i32 {
    let o = match parse_serve_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ptsched: serve: {e} (try ptsched serve --help)");
            return 2;
        }
    };
    let state = Arc::new(ServeState {
        service: SchedService::new(o.config),
        graphs: Mutex::new(HashMap::new()),
        machines: Mutex::new(HashMap::new()),
        pending: Mutex::new(Vec::new()),
    });
    match o.listen {
        None => {
            serve_lines(&state, std::io::stdin().lock(), std::io::stdout().lock());
            0
        }
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("ptsched: serve: cannot listen on {addr}: {e}");
                    return 1;
                }
            };
            // Tests and scripts need the actual port when binding port 0.
            if let Ok(local) = listener.local_addr() {
                println!("listening on {local}");
                let _ = std::io::stdout().flush();
            }
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let state = state.clone();
                std::thread::spawn(move || serve_connection(&state, stream));
            }
            0
        }
    }
}

fn serve_connection(state: &ServeState, stream: std::net::TcpStream) {
    let Ok(peer) = stream.try_clone() else { return };
    serve_lines(
        state,
        std::io::BufReader::new(stream),
        std::io::BufWriter::new(peer),
    );
}

/// Longest request line `serve` accepts; a longer one is skipped up to its
/// newline without being stored and gets one error reply.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Answer request lines from `input` on `out`, one reply per non-blank
/// line, until end of input or a broken connection.
fn serve_lines(state: &ServeState, mut input: impl BufRead, mut out: impl Write) {
    let mut buf = Vec::new();
    loop {
        let reply = match read_request_line(&mut input, &mut buf) {
            Ok(Line::End) | Err(_) => break,
            Ok(Line::TooLong) => error_line(&format!(
                "bad request: line longer than {MAX_LINE_BYTES} bytes"
            )),
            Ok(Line::Read) => match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => handle_line(state, line),
                Err(_) => error_line("bad request: line is not UTF-8"),
            },
        };
        if writeln!(out, "{reply}").is_err() {
            break;
        }
        let _ = out.flush();
    }
}

/// What [`read_request_line`] found.
enum Line {
    /// A line (without its newline) is in the buffer.
    Read,
    /// The line exceeded [`MAX_LINE_BYTES`] and was skipped.
    TooLong,
    /// End of input.
    End,
}

/// Read the next line into `buf` (cleared first), storing at most
/// [`MAX_LINE_BYTES`] of it.  As with [`BufRead::lines`], the `\n` or
/// `\r\n` ending is stripped and an unterminated last line counts as a
/// line.
fn read_request_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Line> {
    buf.clear();
    let mut read_any = false;
    let mut too_long = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        if !too_long && buf.len() + part.len() > MAX_LINE_BYTES {
            too_long = true;
            buf.clear();
        }
        if !too_long {
            buf.extend_from_slice(part);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        input.consume(used);
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            break;
        }
    }
    Ok(match (too_long, read_any) {
        (true, _) => Line::TooLong,
        (false, true) => Line::Read,
        (false, false) => Line::End,
    })
}

#[derive(Serialize)]
struct ServeReplyLine {
    ok: bool,
    cache: String,
    signature: String,
    layers: usize,
    makespan_ms_per_step: f64,
    cost_evaluations: usize,
}

fn error_line(msg: &str) -> String {
    let v = Value::Map(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(msg.into())),
    ]);
    serde_json::to_string(&v).expect("serialize error response")
}

/// Answer one request line with one response line (never panics: every
/// failure becomes an `{"ok":false,...}` response).
fn handle_line(state: &ServeState, line: &str) -> String {
    match serve_request(state, line) {
        Ok(reply) => reply,
        Err(e) => error_line(&e),
    }
}

fn serve_request(state: &ServeState, line: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))?;
    if !matches!(v, Value::Map(_)) {
        return Err("bad request: expected a JSON object".into());
    }
    match get(&v, "cmd") {
        None | Some(Value::Null) => {}
        Some(Value::Str(cmd)) => {
            return match cmd.as_str() {
                "stats" => {
                    let v = Value::Map(vec![
                        ("ok".into(), Value::Bool(true)),
                        ("stats".into(), state.service.stats().serialize()),
                    ]);
                    Ok(serde_json::to_string(&v).expect("serialize stats"))
                }
                "submit" => submit_request(state, &v),
                "tenant" => tenant_request(state, &v),
                other => Err(format!("unknown command `{other}`")),
            }
        }
        Some(other) => return Err(format!("field `cmd` must be a string, got {other:?}")),
    }
    let workload_name = str_or(&v, "workload", "epol")?;
    let platform_name = str_or(&v, "platform", "chic")?;
    let cores = usize_or(&v, "cores", 64)?;
    let mapping_name = str_or(&v, "mapping", "consecutive")?;
    let groups = opt_usize(&v, "groups")?;
    let steps = usize_or(&v, "steps", 2)?;
    let slow_nodes = usize_or(&v, "slow_nodes", 0)?;
    let slow_factor = f64_or(&v, "slow_factor", 0.5)?;
    if steps == 0 {
        return Err("steps must be at least 1".into());
    }
    if !WORKLOADS.contains(&workload_name.as_str()) {
        return Err(format!("unknown workload `{workload_name}`"));
    }

    let machine = {
        let base = platform(&platform_name)?;
        check_cores(&base, cores)?;
        check_slow(&base, cores, slow_nodes, slow_factor)?;
        state
            .machines
            .lock()
            .expect("machine cache lock")
            .entry((
                platform_name.clone(),
                cores,
                slow_nodes,
                slow_factor.to_bits(),
            ))
            .or_insert_with(|| {
                let spec = base.with_cores(cores);
                Arc::new(if slow_nodes > 0 {
                    spec.with_slow_nodes(slow_nodes, slow_factor)
                } else {
                    spec
                })
            })
            .clone()
    };
    let graph = {
        let mut graphs = state.graphs.lock().expect("graph cache lock");
        match graphs.entry((workload_name.clone(), steps)) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Arc::new(workload(&workload_name, steps)?)).clone()
            }
        }
    };
    let mut request = ScheduleRequest::new(graph, machine, mapping(&mapping_name)?);
    request.policy.fixed_groups = groups;

    let (reply, status) = state.service.schedule(request).map_err(|e| e.to_string())?;
    let line = ServeReplyLine {
        ok: true,
        cache: match status {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Followed => "followed",
        }
        .into(),
        signature: reply.signature.to_string(),
        layers: reply.schedule.layers.len(),
        makespan_ms_per_step: reply.makespan / steps as f64 * 1e3,
        cost_evaluations: reply.cost_evaluations,
    };
    Ok(serde_json::to_string(&line).expect("serialize response"))
}

/// `{"cmd":"submit","workload":"epol","steps":1,"arrival":0.25,"min_width":2}`
/// — append one job to the tenant stream.  Validation happens here (the
/// later scenario run must not fail on a job admitted long ago).
fn submit_request(state: &ServeState, v: &Value) -> Result<String, String> {
    let workload_name = str_or(v, "workload", "epol")?;
    let steps = usize_or(v, "steps", 1)?;
    let arrival = f64_or(v, "arrival", 0.0)?;
    let min_width = usize_or(v, "min_width", 1)?;
    if !WORKLOADS.contains(&workload_name.as_str()) {
        return Err(format!("unknown workload `{workload_name}`"));
    }
    if steps == 0 {
        return Err("steps must be at least 1".into());
    }
    if min_width == 0 {
        return Err("min_width must be at least 1".into());
    }
    if !(arrival >= 0.0 && arrival.is_finite()) {
        return Err("arrival must be a non-negative number".into());
    }
    let mut pending = state.pending.lock().expect("pending lock");
    pending.push(PendingJob {
        workload: workload_name,
        steps,
        arrival,
        min_width,
    });
    let reply = Value::Map(vec![
        ("ok".into(), Value::Bool(true)),
        ("queued".into(), Value::UInt(pending.len() as u64)),
    ]);
    Ok(serde_json::to_string(&reply).expect("serialize submit reply"))
}

/// `{"cmd":"tenant","platform":"chic","cores":16,"policy":"malleable"}` —
/// run the submitted job stream as an online multi-tenant scenario and
/// report makespan / stretch / utilization.  `"drain":false` keeps the
/// stream for another run (policy comparisons on one stream).
fn tenant_request(state: &ServeState, v: &Value) -> Result<String, String> {
    let platform_name = str_or(v, "platform", "chic")?;
    let cores = usize_or(v, "cores", 64)?;
    let policy = match str_or(v, "policy", "malleable")?.as_str() {
        "fcfs" | "fcfs-exclusive" => pt_tenant::Policy::FcfsExclusive,
        "equi" => pt_tenant::Policy::Equi,
        "malleable" => pt_tenant::Policy::Malleable,
        other => return Err(format!("unknown policy `{other}`")),
    };
    let drain = match get(v, "drain") {
        None | Some(Value::Null) => true,
        Some(Value::Bool(b)) => *b,
        Some(other) => return Err(format!("field `drain` must be a boolean, got {other:?}")),
    };
    let base = platform(&platform_name)?;
    check_cores(&base, cores)?;
    let spec = base.with_cores(cores);

    let jobs: Vec<pt_tenant::JobSpec> = {
        let mut pending = state.pending.lock().expect("pending lock");
        if pending.is_empty() {
            return Err("no jobs submitted (send {\"cmd\":\"submit\",...} first)".into());
        }
        let graphs = |p: &PendingJob| -> Result<Arc<TaskGraph>, String> {
            let mut cache = state.graphs.lock().expect("graph cache lock");
            Ok(match cache.entry((p.workload.clone(), p.steps)) {
                std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(Arc::new(workload(&p.workload, p.steps)?)).clone()
                }
            })
        };
        let jobs =
            pending
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    Ok(pt_tenant::JobSpec::new(
                        i,
                        format!("{}#{i}", p.workload),
                        graphs(p)?,
                        p.arrival,
                    )
                    .with_min_width(p.min_width.min(cores)))
                })
                .collect::<Result<Vec<_>, String>>()?;
        if drain {
            pending.clear();
        }
        jobs
    };

    let model = CostModel::new(&spec);
    let oracle = pt_tenant::AdmissionOracle::new(&model);
    let report = pt_tenant::run_scenario(
        &oracle,
        &jobs,
        policy,
        &pt_tenant::TenantSimConfig::default(),
    );
    let per_job: Vec<Value> = report
        .jobs
        .iter()
        .map(|j| {
            Value::Map(vec![
                ("name".into(), Value::Str(j.name.clone())),
                ("arrival_s".into(), Value::Float(j.arrival)),
                ("finish_s".into(), Value::Float(j.finish)),
                ("stretch".into(), Value::Float(j.stretch)),
                ("resizes".into(), Value::UInt(j.resizes as u64)),
            ])
        })
        .collect();
    let reply = Value::Map(vec![
        ("ok".into(), Value::Bool(true)),
        ("policy".into(), Value::Str(report.policy.clone())),
        ("jobs".into(), Value::UInt(report.jobs.len() as u64)),
        ("makespan_s".into(), Value::Float(report.makespan)),
        ("mean_stretch".into(), Value::Float(report.mean_stretch)),
        ("max_stretch".into(), Value::Float(report.max_stretch)),
        ("utilization".into(), Value::Float(report.utilization)),
        ("resizes".into(), Value::UInt(report.resizes as u64)),
        ("per_job".into(), Value::Seq(per_job)),
    ]);
    Ok(serde_json::to_string(&reply).expect("serialize tenant reply"))
}

fn get<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn str_or(v: &Value, name: &str, default: &str) -> Result<String, String> {
    match get(v, name) {
        None | Some(Value::Null) => Ok(default.into()),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("field `{name}` must be a string, got {other:?}")),
    }
}

fn usize_or(v: &Value, name: &str, default: usize) -> Result<usize, String> {
    match opt_usize(v, name)? {
        Some(n) => Ok(n),
        None => Ok(default),
    }
}

fn f64_or(v: &Value, name: &str, default: f64) -> Result<f64, String> {
    match get(v, name) {
        None | Some(Value::Null) => Ok(default),
        Some(val) => <f64 as serde::Deserialize>::deserialize(val)
            .map_err(|_| format!("field `{name}` must be a number, got {val:?}")),
    }
}

fn opt_usize(v: &Value, name: &str) -> Result<Option<usize>, String> {
    match get(v, name) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => <usize as serde::Deserialize>::deserialize(val)
            .map(Some)
            .map_err(|_| format!("field `{name}` must be a non-negative integer, got {val:?}")),
    }
}
