//! `serve-mixed`: the `plutod` binary on a Unix socket under a closed
//! loop of two clients — compile clients (build systems, editors) wait
//! for each reply before sending the next request. The traffic is a
//! seeded mix with fixed class counts per round of 250 requests:
//!
//! * exact repeats of the thirteen hot sources (source-memo hits),
//! * reformatted hot sources (content-level hits after parse and
//!   dependence analysis),
//! * cold sources with one constant changed (a new content key, so a
//!   full compile),
//! * `stats` reads.
//!
//! Rounds go out in segments of two, with the side measurements (small
//! runs and simulated passes of the served kernels) between segments.
//! The hot set is primed during set-up. Every response is checked: `ok`,
//! its `cache` field and phases match the class the generator intended,
//! and its code is byte-identical to the priming compile of the same
//! kernel; after the run `pluto-stats/1` must count exactly the hits and
//! misses sent.

use crate::compile;
use crate::exec::{seeded_arrays, Prepared};
use crate::kernels::{cold_min, reformat, KERNELS};
use crate::probe::{Side, SimInput};
use crate::report::{json_str, peak_rss_mb, Report};
use crate::stats::{geomean, mean, median, ms, quantile, Rng};
use crate::Args;
use pluto_repro::obs::json::{self, Json};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests of each class per kernel in one round, and `stats` reads
/// per round: 13 × (16 + 2 + 1) + 3 = 250.
const EXACT_PER_KERNEL: usize = 16;
const REFORMAT_PER_KERNEL: usize = 2;
const COLD_PER_KERNEL: usize = 1;
const STATS_PER_ROUND: usize = 3;
/// Closed-loop clients, each on its own connection: two, or one on a
/// single-CPU host, so load never needs more threads than the host has.
pub fn clients() -> usize {
    crate::parallelism().min(2)
}
/// Every cold request adds a schedule-cache entry; stopping here keeps
/// the hot set plus all cold entries under the daemon's default cap of
/// 1024, so no hot entry is evicted.
const MAX_ROUNDS: usize = 70;
/// Rounds sent between two side steps.
const ROUNDS_PER_SEGMENT: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Hit,
    ContentHit,
    Miss,
    Stats,
}

const CLASSES: [(Class, &str); 4] = [
    (Class::Hit, "hit"),
    (Class::ContentHit, "content_hit"),
    (Class::Miss, "miss"),
    (Class::Stats, "stats"),
];

struct Request {
    class: Class,
    kernel: usize,
    line: String,
}

/// The seeded request sequence: rounds of fixed class counts, each
/// round shuffled. The same seed yields the same sequence; the run's
/// length only decides how many rounds are sent.
struct Generator {
    rng: Rng,
    seed: u64,
    queue: VecDeque<Request>,
    rounds: usize,
    /// Rounds still to start in the current segment.
    budget: usize,
    next_id: u64,
    reformats: Vec<u64>,
    colds: u64,
    sent: [u64; 4],
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: Rng::new(seed ^ 0x5E17E),
            seed,
            queue: VecDeque::new(),
            rounds: 0,
            budget: 0,
            next_id: 1000,
            reformats: vec![0; KERNELS.len()],
            colds: 0,
            sent: [0; 4],
        }
    }

    fn next(&mut self) -> Option<Request> {
        if self.queue.is_empty() {
            if self.budget == 0 || self.rounds >= MAX_ROUNDS {
                return None;
            }
            self.budget -= 1;
            self.fill_round();
        }
        let req = self.queue.pop_front()?;
        self.sent[req.class as usize] += 1;
        Some(req)
    }

    fn fill_round(&mut self) {
        let mut plan = Vec::new();
        for k in 0..KERNELS.len() {
            plan.extend(std::iter::repeat_n((Class::Hit, k), EXACT_PER_KERNEL));
            plan.extend(std::iter::repeat_n(
                (Class::ContentHit, k),
                REFORMAT_PER_KERNEL,
            ));
            plan.extend(std::iter::repeat_n((Class::Miss, k), COLD_PER_KERNEL));
        }
        plan.extend(std::iter::repeat_n((Class::Stats, 0), STATS_PER_ROUND));
        self.rng.shuffle(&mut plan);
        for (class, kernel) in plan {
            let line = self.line(class, kernel);
            self.queue.push_back(Request {
                class,
                kernel,
                line,
            });
        }
        self.rounds += 1;
    }

    fn line(&mut self, class: Class, k: usize) -> String {
        self.next_id += 1;
        let id = self.next_id;
        let source = match class {
            Class::Stats => return stats_request(id),
            Class::Hit => KERNELS[k].source(),
            Class::ContentHit => {
                let variant = (self.seed.wrapping_mul(7919) & 0xFFFF) << 16 | self.reformats[k];
                self.reformats[k] += 1;
                reformat(&KERNELS[k].source(), variant)
            }
            Class::Miss => {
                self.colds += 1;
                KERNELS[k].source_with_min(cold_min(self.seed, self.colds))
            }
        };
        compile_request(id, &source)
    }
}

fn compile_request(id: u64, source: &str) -> String {
    format!(
        "{{\"schema\": \"pluto-rpc/1\", \"id\": {id}, \"method\": \"compile\", \"source\": {}}}\n",
        json_str(source)
    )
}

fn stats_request(id: u64) -> String {
    format!("{{\"schema\": \"pluto-rpc/1\", \"id\": {id}, \"method\": \"stats\"}}\n")
}

/// A running `plutod`, stopped and reaped on drop.
struct Daemon {
    child: Child,
    socket: String,
}

impl Daemon {
    fn start(plutod: &str, socket: &str) -> Daemon {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(plutod)
            .args(["--socket", socket])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {plutod}: {e}"));
        let daemon = Daemon {
            child,
            socket: socket.to_string(),
        };
        let give_up = Instant::now() + Duration::from_secs(20);
        while UnixStream::connect(socket).is_err() {
            assert!(Instant::now() < give_up, "plutod did not open {socket}");
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon
    }

    fn connect(&self) -> Connection {
        let stream = UnixStream::connect(&self.socket).expect("connect to plutod");
        Connection {
            reader: BufReader::new(stream.try_clone().expect("clone socket")),
            writer: stream,
            buf: String::new(),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Connection {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    buf: String,
}

impl Connection {
    /// Sends one request line and waits for the response line; returns
    /// the client-observed latency in ms.
    fn call(&mut self, line: &str) -> f64 {
        self.buf.clear();
        let start = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .expect("send request");
        self.reader.read_line(&mut self.buf).expect("read response");
        ms(start.elapsed())
    }
}

/// The parts of a compile response the checks need, sliced out of the
/// compact document without parsing its large `code` and `explain`
/// members (`result` fields come in a fixed order: kernel, kernel_fnv,
/// cache, code, profile, explain).
struct CompileResponse<'a> {
    cache: &'a str,
    /// The `code` member as its raw JSON string literal.
    code: &'a str,
    profile: Json,
}

fn slice_between<'a>(text: &'a str, open: &str, close: &str) -> Option<&'a str> {
    let from = text.find(open)? + open.len();
    let to = from + text[from..].find(close)?;
    Some(&text[from..to])
}

fn parse_compile(resp: &str) -> Result<CompileResponse<'_>, String> {
    if !resp.contains("\"ok\": true, \"result\": {") {
        return Err(format!(
            "not ok: {}",
            resp.chars().take(200).collect::<String>()
        ));
    }
    let cache = slice_between(resp, "\"cache\": \"", "\"").ok_or("no cache field")?;
    let code = slice_between(resp, "\"code\": ", ", \"profile\": ").ok_or("no code field")?;
    let profile = slice_between(resp, ", \"profile\": ", ", \"explain\": ").ok_or("no profile")?;
    let profile = json::parse(profile).map_err(|e| format!("profile: {e}"))?;
    Ok(CompileResponse {
        cache,
        code,
        profile,
    })
}

/// Top-level phases of a response's profile, `(path, ms)`.
fn phases(profile: &Json) -> Vec<(String, f64)> {
    profile
        .get("phases")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            let path = p.get("path")?.as_str()?;
            let wall = p.get("wall_ns")?.as_f64()?;
            Some((path.to_string(), wall / 1e6))
        })
        .collect()
}

/// One response as the client saw it.
struct Sample {
    class: Class,
    kernel: usize,
    latency_ms: f64,
    /// The response profile's `total_ns` (0 for `stats`).
    server_ms: f64,
    bytes: usize,
    /// Top-level profile phases (compile requests).
    phases: Vec<(String, f64)>,
    search_ms: f64,
    failure: Option<String>,
}

fn inspect(req: &Request, resp: &str, latency_ms: f64, primed: &[String]) -> Sample {
    let mut s = Sample {
        class: req.class,
        kernel: req.kernel,
        latency_ms,
        server_ms: 0.0,
        bytes: resp.len(),
        phases: Vec::new(),
        search_ms: 0.0,
        failure: None,
    };
    if req.class == Class::Stats {
        if !resp.contains("\"ok\": true") {
            s.failure = Some("stats request failed".to_string());
        }
        return s;
    }
    let r = match parse_compile(resp) {
        Ok(r) => r,
        Err(e) => {
            s.failure = Some(e);
            return s;
        }
    };
    s.server_ms = r
        .profile
        .get("total_ns")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        / 1e6;
    let all = phases(&r.profile);
    s.search_ms = all
        .iter()
        .find(|(p, _)| p == "optimize/search")
        .map_or(0.0, |p| p.1);
    let has = |path: &str| all.iter().any(|(p, _)| p == path);
    let (want_cache, shape_ok) = match req.class {
        Class::Hit => ("hit", all.is_empty()),
        Class::ContentHit => ("hit", has("parse") && !has("optimize/search")),
        _ => ("miss", has("optimize/search")),
    };
    let name = KERNELS[req.kernel].name;
    if r.cache != want_cache || !shape_ok {
        s.failure = Some(format!(
            "{name} {:?}: served as `{}` with phases {:?}",
            req.class,
            r.cache,
            all.iter().map(|p| &p.0).collect::<Vec<_>>()
        ));
    } else if r.code != primed[req.kernel] {
        s.failure = Some(format!(
            "{name} {:?}: code differs from the priming compile",
            req.class
        ));
    }
    s.phases = all.into_iter().filter(|(p, _)| !p.contains('/')).collect();
    s
}

/// Starts a daemon and primes the hot set; returns it with each hot
/// kernel's code (raw JSON string literal) from its priming compile.
fn setup(args: &Args, index: usize) -> (Daemon, Vec<String>) {
    let socket = format!(
        "{}/perfbench-{}-{index}.sock",
        args.scratch,
        std::process::id()
    );
    let daemon = Daemon::start(&args.plutod, &socket);
    let mut conn = daemon.connect();
    let mut primed = Vec::new();
    for (k, kernel) in KERNELS.iter().enumerate() {
        conn.call(&compile_request(k as u64, &kernel.source()));
        let r = parse_compile(&conn.buf)
            .unwrap_or_else(|e| panic!("{}: priming compile failed: {e}", kernel.name));
        assert_eq!(
            r.cache, "miss",
            "{}: priming compile was not a miss",
            kernel.name
        );
        primed.push(r.code.to_string());
    }
    (daemon, primed)
}

/// One segment: both clients until the generator's budget is spent.
fn segment(daemon: &Daemon, generator: &Mutex<Generator>, primed: &[String]) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                let mut conn = daemon.connect();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let next = generator.lock().expect("generator lock").next();
                        let Some(req) = next else { break };
                        let latency = conn.call(&req.line);
                        out.push(inspect(&req, &conn.buf, latency, primed));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Segments of whole rounds, each followed by a side step, until
/// `seconds` have passed; returns the samples and the serving time.
fn measure(
    daemon: &Daemon,
    generator: &Mutex<Generator>,
    primed: &[String],
    seconds: f64,
    side: &mut Side,
    rep: &mut Report,
) -> (Vec<Sample>, f64) {
    let (mut samples, mut wall) = (Vec::new(), 0.0);
    let phase = Instant::now();
    while samples.is_empty() || phase.elapsed().as_secs_f64() < seconds {
        generator.lock().expect("generator lock").budget = ROUNDS_PER_SEGMENT;
        let (s, w) = segment(daemon, generator, primed);
        if s.is_empty() {
            break; // MAX_ROUNDS reached
        }
        samples.extend(s);
        wall += w;
        side.step(rep);
    }
    (samples, wall)
}

fn of_class(samples: &[Sample], class: Class) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(move |s| s.class == class)
}

pub fn run(args: &Args, rep: &mut Report) {
    let mut setup_s = Vec::new();
    let mut state = None;
    for i in 0..crate::SETUPS {
        state.take(); // stop the previous daemon first
        let t = Instant::now();
        state = Some(setup(args, i));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (daemon, primed) = state.expect("at least one set-up");
    rep.set("setup_s", median(&setup_s), setup_s.len());

    let (compiled, prepared) = check_against_library(&primed, args.seed, rep);
    let inputs: Vec<SimInput> = compiled
        .iter()
        .zip(KERNELS)
        .zip(&prepared)
        .map(|((c, k), p)| SimInput {
            prog: &c.unit.program,
            ast: &c.ast,
            params: k.small,
            initial: p.initial.clone(),
        })
        .collect();
    let mut side = Side::new(&prepared, &inputs);

    let generator = Mutex::new(Generator::new(args.seed));
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (plain, plain_s) = measure(&daemon, &generator, &primed, seconds, &mut side, rep);
    let traced = args
        .trace
        .then(|| measure(&daemon, &generator, &primed, seconds, &mut side, rep).0);

    // The service's own account after the run.
    let mut conn = daemon.connect();
    conn.call(&stats_request(1));
    let stats = json::parse(&conn.buf).expect("stats response parses");
    let gen = generator.into_inner().expect("generator lock");
    check_stats(&stats, &gen, rep);
    let pid = daemon.child.id().to_string();
    rep.set("peak_rss_mb", peak_rss_mb(&pid).unwrap_or(0.0), 1);
    drop(daemon);

    for s in plain.iter().chain(traced.iter().flatten()) {
        rep.op(s.failure.is_none(), || {
            s.failure.clone().unwrap_or_default()
        });
    }
    let latencies: Vec<f64> = plain.iter().map(|s| s.latency_ms).collect();
    rep.set("serve_p50_ms", median(&latencies), latencies.len());
    rep.set("serve_p99_ms", quantile(&latencies, 0.99), latencies.len());
    rep.set(
        "serve_rps",
        latencies.len() as f64 / plain_s,
        latencies.len(),
    );
    let miss_medians: Vec<f64> = (0..KERNELS.len())
        .map(|k| {
            let v: Vec<f64> = of_class(&plain, Class::Miss)
                .filter(|s| s.kernel == k)
                .map(|s| s.latency_ms)
                .collect();
            median(&v)
        })
        .collect();
    let misses = of_class(&plain, Class::Miss).count();
    rep.set("compile_geomean_ms", geomean(&miss_medians), misses);
    rep.set(
        "compile_worst_ms",
        miss_medians.iter().copied().fold(0.0, f64::max),
        misses,
    );
    let total = gen.sent.iter().sum::<u64>() as f64;
    for (class, name) in CLASSES {
        rep.set(
            format!("daemon.share.{name}"),
            gen.sent[class as usize] as f64 / total,
            total as usize,
        );
    }
    rep.notes.push(format!(
        "serve-mixed: {} requests in {} rounds over {} connections; sent per class {:?}",
        total,
        gen.rounds,
        clients(),
        gen.sent
    ));

    let layer_samples = traced.as_deref().unwrap_or(&plain);
    report_layers(layer_samples, rep);
    if let Some(traced) = &traced {
        let t: Vec<f64> = traced.iter().map(|s| s.latency_ms).collect();
        rep.set(
            "obs.overhead_ms",
            mean(&t) - mean(&latencies),
            t.len() + latencies.len(),
        );
        selftime(traced, rep);
    }
    side.finish(rep);
}

/// `pluto-stats/1` must count exactly the hits and misses the generator
/// designed: every exact or reformatted request a hit, every cold
/// request and the priming compiles misses.
fn check_stats(stats: &Json, gen: &Generator, rep: &mut Report) {
    let cache = stats.get("result").and_then(|r| r.get("cache"));
    let field = |k: &str| cache.and_then(|c| c.get(k)).and_then(Json::as_u64);
    let (hits, misses) = (field("hits").unwrap_or(0), field("misses").unwrap_or(0));
    let want_hits = gen.sent[Class::Hit as usize] + gen.sent[Class::ContentHit as usize];
    let want_misses = gen.sent[Class::Miss as usize] + KERNELS.len() as u64;
    rep.op(hits == want_hits && misses == want_misses, || {
        format!("pluto-stats/1 counts {hits} hits / {misses} misses, designed {want_hits} / {want_misses}")
    });
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    rep.set("daemon.cache_hit_ratio", ratio, (hits + misses) as usize);
    rep.set(
        "daemon.cache_entries",
        field("entries").unwrap_or(0) as f64,
        1,
    );
}

fn report_layers(samples: &[Sample], rep: &mut Report) {
    for (class, name) in [
        (Class::Hit, "hit"),
        (Class::ContentHit, "content_hit"),
        (Class::Miss, "miss"),
    ] {
        let v: Vec<f64> = of_class(samples, class).map(|s| s.server_ms).collect();
        rep.set(format!("daemon.server_ms.{name}"), median(&v), v.len());
    }
    let compiles: Vec<&Sample> = samples.iter().filter(|s| s.class != Class::Stats).collect();
    let wire: Vec<f64> = compiles
        .iter()
        .map(|s| s.latency_ms - s.server_ms)
        .collect();
    rep.set("daemon.wire_ms", median(&wire), wire.len());
    let kb: Vec<f64> = compiles.iter().map(|s| s.bytes as f64 / 1024.0).collect();
    rep.set("daemon.response_kb", median(&kb), kb.len());
    let stats: Vec<f64> = of_class(samples, Class::Stats)
        .map(|s| s.latency_ms)
        .collect();
    rep.set("daemon.stats_ms", median(&stats), stats.len());
    let search: Vec<f64> = of_class(samples, Class::Miss)
        .map(|s| s.search_ms)
        .collect();
    rep.set("daemon.miss_search_ms", median(&search), search.len());
}

/// Client-observed time split into the server's top-level phases, the
/// rest of the server's own time, and the wire (everything between the
/// client's send and the server's session: socket, request parsing,
/// response serialization).
fn selftime(samples: &[Sample], rep: &mut Report) {
    let n = samples.len().max(1) as f64;
    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut add = |name: String, ms: f64| match layers.iter_mut().find(|l| l.0 == name) {
        Some(l) => l.1 += ms,
        None => layers.push((name, ms)),
    };
    for s in samples {
        let in_phases: f64 = s.phases.iter().map(|p| p.1).sum();
        for (path, ms) in &s.phases {
            add(format!("daemon.{path}"), *ms);
        }
        add("daemon.other".to_string(), s.server_ms - in_phases);
        add("daemon.wire".to_string(), s.latency_ms - s.server_ms);
    }
    let total = samples.iter().map(|s| s.latency_ms).sum::<f64>() / n;
    let per_request: Vec<(&str, f64)> = layers.iter().map(|(k, v)| (k.as_str(), v / n)).collect();
    rep.notes.push(crate::selftime_note(
        "serve-mixed (ms per request)",
        total,
        &per_request,
    ));
}

/// Each hot kernel compiled in-process through the same library entry
/// points must give the code `plutod` served at priming; the compiled
/// kernels, prepared at their small sizes, feed the side measurements.
fn check_against_library(
    primed: &[String],
    seed: u64,
    rep: &mut Report,
) -> (Vec<compile::Compiled>, Vec<Prepared>) {
    let opt = compile::optimizer();
    let mut compiled = Vec::new();
    let mut prepared = Vec::new();
    for (k, kernel) in KERNELS.iter().enumerate() {
        let (c, _, _) = compile::compile(&kernel.source(), &opt, false, false)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", kernel.name));
        let served = json::parse(&primed[k]).ok();
        rep.op(
            served.as_ref().and_then(Json::as_str) == Some(c.code.as_str()),
            || {
                format!(
                    "{}: plutod's code differs from the library compile",
                    kernel.name
                )
            },
        );
        let extents = c.unit.try_extents(kernel.small).expect("small extents");
        prepared.push(Prepared::new(
            &c.unit.program,
            &c.ast,
            kernel.small,
            seeded_arrays(extents, seed),
        ));
        compiled.push(c);
    }
    (compiled, prepared)
}
