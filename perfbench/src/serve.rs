//! The daemon workloads: a release `birelcost serve` child process driven
//! over its NDJSON and HTTP planes by an open-loop, seeded request stream
//! and by closed-loop bursts.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rel_service::json::{self, Value};

use crate::table1::{self, VERIFIED};
use crate::trace;
use crate::util::{
    fast_high, fast_low, median, peak_rss_mb, percentile, quote, reference_ms, Metrics, Reply, Rng,
    RunOut,
};

/// How long after its scheduled send a reply may arrive before the request
/// counts as a deadline miss.  Far above any latency limit, so it only
/// bounds how long a phase waits for stragglers.
const DRAIN: Duration = Duration::from_secs(2);
/// The daemon's own per-request budget (`--request-timeout-ms`).
const DAEMON_DEADLINE_MS: u64 = 2000;
/// HTTP/1.1 here is keep-alive half-duplex, so one in-flight request per
/// connection; the generator uses this many connections.
const HTTP_CONNS: usize = 2;
/// Definitions in `examples/rc` with a known answer: all of them check.
/// `two`/`three` claim relative cost 2 for `1 + 1 + 1 ~ 3`, whose left run
/// costs exactly two more additions.
const EXAMPLE_DEFS: [&str; 7] = ["append", "not2", "use", "two", "negate", "twice", "three"];
/// Edit constants: pre-population draws below `EDIT_K_SPLIT`, the measured
/// traffic above it, so a measured edit never hits a pre-populated entry.
const EDIT_K_SPLIT: u64 = 1000;
const EDIT_K_MAX: u64 = 1_000_000;

pub struct Config {
    pub daemon: PathBuf,
    pub jobs: usize,
    /// Fixed offered rates of the warm traffic and of the traffic with
    /// edits.
    pub warm_rps: f64,
    pub edit_rps: f64,
    /// The p95 a burst must meet for its rate to count.
    pub p95_limit_ms: f64,
    pub root: PathBuf,
    pub work: PathBuf,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warm reads: no cache file, every check answered from the cache.
    Warm,
    /// Warm reads plus fresh edits against a recovered snapshot and WAL.
    Edit,
}

// ---------------------------------------------------------------- daemon --

struct Ctl {
    r: BufReader<TcpStream>,
    w: TcpStream,
}

impl Ctl {
    fn connect(addr: SocketAddr) -> Result<Ctl, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        w.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Ctl { r, w })
    }

    fn call(&mut self, line: &str) -> Result<Value, String> {
        self.w
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut buf = String::new();
        match self.r.read_line(&mut buf) {
            Ok(0) => Err("daemon closed the control connection".to_string()),
            Ok(_) => json::parse(buf.trim_end()).map_err(|e| e.to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

pub struct Daemon {
    child: Child,
    ndjson: SocketAddr,
    http: SocketAddr,
    ctl: Ctl,
    log: Arc<Mutex<Vec<String>>>,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon and returns it with its boot-to-ready time in
    /// seconds: spawn, snapshot and WAL recovery, bind, first `ready`.
    fn spawn(cfg: &Config, cache_file: Option<&Path>) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(&cfg.daemon);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .arg("--jobs")
            .arg(cfg.jobs.to_string())
            .arg("--request-timeout-ms")
            .arg(DAEMON_DEADLINE_MS.to_string());
        if let Some(path) = cache_file {
            cmd.arg("--cache-file").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.daemon.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let log = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let sink = Arc::clone(&log);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                sink.lock().expect("log poisoned").push(line.clone());
                let _ = tx.send(line);
            }
        });
        let mut partial = Partial {
            child: Some(child),
            stderr: Some(reader),
        };
        let deadline = t0 + Duration::from_secs(60);
        let (mut ndjson, mut http) = (None, None);
        while ndjson.is_none() || http.is_none() {
            let wait = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok(line) => {
                    let addr = || line.rsplit(' ').next().and_then(|a| a.parse().ok());
                    if line.contains("ndjson plane listening on") {
                        ndjson = addr();
                    } else if line.contains("http plane listening on") {
                        http = addr();
                    }
                }
                Err(_) => {
                    let log = log.lock().expect("log poisoned").join("\n");
                    return Err(format!("daemon did not start listening:\n{log}"));
                }
            }
        }
        let (ndjson, http) = (ndjson.expect("seen"), http.expect("seen"));
        let mut ctl = Ctl::connect(ndjson)?;
        loop {
            let h = ctl.call(r#"{"health":true}"#)?;
            if h.get("health").and_then(Value::as_str) == Some("ready") {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("daemon never reported ready: {h:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let boot = t0.elapsed();
        trace::record("boot", 0, trace::ns(t0), trace::ns(t0 + boot));
        let d = Daemon {
            child: partial.child.take().expect("child kept"),
            ndjson,
            http,
            ctl,
            log,
            stderr: partial.stderr.take(),
        };
        Ok((d, boot.as_secs_f64()))
    }

    fn call(&mut self, line: &str) -> Result<Value, String> {
        let t0 = Instant::now();
        let v = self.ctl.call(line);
        trace::record("stats_query", 0, trace::ns(t0), trace::ns(Instant::now()));
        v
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the daemon to exit and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = self.ctl.call(r#"{"shutdown":true}"#)?;
        if bye.get("bye").is_none() {
            let log = self.log.lock().expect("log poisoned").join("\n");
            return Err(format!("unexpected shutdown reply: {bye:?}\n{log}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("daemon did not exit after shutdown".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Stops the process if it is still running (after an error or a
        // deliberate crash) and waits for it and its log reader.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// A daemon that has not finished starting: stopped and reaped on error.
struct Partial {
    child: Option<Child>,
    stderr: Option<JoinHandle<()>>,
}

impl Drop for Partial {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

// --------------------------------------------------------------- inputs --

/// One program of the serving mix; its known answer is "every def checks".
#[derive(Clone)]
pub struct Prog {
    pub name: String,
    pub source: String,
    pub table1_verified: bool,
}

/// The six Verified Table-1 programs plus `examples/rc/*.rc`.
fn mix(root: &Path) -> Result<Vec<Prog>, String> {
    let mut progs = Vec::new();
    for name in VERIFIED {
        progs.push(Prog {
            name: name.to_string(),
            source: table1::source(name)?.to_string(),
            table1_verified: true,
        });
    }
    let dir = root.join("examples/rc");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rc"))
        .collect();
    files.sort();
    for path in files {
        let source = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        for line in source.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("def ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !EXAMPLE_DEFS.contains(&name.as_str()) {
                    return Err(format!(
                        "{}: no known answer for def {name}",
                        path.display()
                    ));
                }
            }
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        progs.push(Prog {
            name: format!("rc/{stem}"),
            source,
            table1_verified: false,
        });
    }
    Ok(progs)
}

/// Fresh edits: each loosens the result relative-cost annotation of one
/// Verified program's main definition by a constant k, `->[X]` to
/// `->[X + k]`.  Loosening an upper bound of a valid judgment keeps it
/// valid, so the known answer is still "verifies"; every (program, k) is
/// used once, so every edit misses the caches.
struct Edits {
    sites: Vec<(String, String, std::ops::Range<usize>)>,
    used: HashSet<(usize, u64)>,
    k_range: (u64, u64),
}

impl Edits {
    fn new(k_range: (u64, u64)) -> Result<Edits, String> {
        let mut sites = Vec::new();
        for name in VERIFIED {
            let src = table1::source(name)?;
            let start = src
                .find(&format!("def {name} :"))
                .ok_or_else(|| format!("{name}: main def not found"))?;
            let body = start + src[start..].find("\n= ").ok_or("def without body")?;
            let open = start + src[start..body].rfind("->[").ok_or("no relative cost")? + 3;
            let close = open + src[open..].find(']').ok_or("unclosed annotation")?;
            sites.push((name.to_string(), src.to_string(), open..close));
        }
        Ok(Edits {
            sites,
            used: HashSet::new(),
            k_range,
        })
    }

    /// A fresh edit of the program at `site`.
    fn next(&mut self, site: usize, rng: &mut Rng) -> Prog {
        loop {
            let span = self.k_range.1 - self.k_range.0;
            let k = self.k_range.0 + rng.next_u64() % span;
            if !self.used.insert((site, k)) {
                continue;
            }
            let (name, src, range) = &self.sites[site];
            let old = src[range.clone()].trim();
            let new = if old == "0" {
                k.to_string()
            } else {
                format!("{old} + {k}")
            };
            return Prog {
                name: name.clone(),
                source: format!("{}{new}{}", &src[..range.start], &src[range.end..]),
                table1_verified: true,
            };
        }
    }
}

/// A seeded request stream with a fixed composition, so every phase and
/// every seed offers the same work: re-checks walk seeded permutations of
/// the mix, and when edits are on, each block of `EDIT_EVERY` requests
/// holds one fresh edit at a seeded position, its program walking seeded
/// permutations of the Verified programs.
struct Stream {
    rng: Rng,
    reads: Vec<usize>,
    edit_sites: Vec<usize>,
    edits: Option<Edits>,
}

/// One request in this many is an edit on the edit traffic.
const EDIT_EVERY: usize = 4;

impl Stream {
    fn new(seed: u64, edits: Option<Edits>) -> Stream {
        Stream {
            rng: Rng::new(seed),
            reads: Vec::new(),
            edit_sites: Vec::new(),
            edits,
        }
    }

    fn take(&mut self, n: usize, progs: &[Prog]) -> Vec<Prog> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let edit_at = match self.edits {
                Some(_) => self.rng.below(EDIT_EVERY),
                None => EDIT_EVERY,
            };
            for slot in 0..EDIT_EVERY {
                let p = if slot == edit_at {
                    let site = next_of(&mut self.edit_sites, &mut self.rng, VERIFIED.len());
                    let edits = self.edits.as_mut().expect("edits on");
                    edits.next(site, &mut self.rng)
                } else {
                    progs[next_of(&mut self.reads, &mut self.rng, progs.len())].clone()
                };
                out.push(p);
            }
        }
        out.truncate(n);
        out
    }
}

/// Pops the next index of a seeded permutation of `0..n`, refilling it
/// when it runs out.
fn next_of(deck: &mut Vec<usize>, rng: &mut Rng, n: usize) -> usize {
    if deck.is_empty() {
        deck.extend(0..n);
        rng.shuffle(deck);
    }
    deck.pop().expect("refilled")
}

fn check_line(id: usize, source: &str) -> String {
    format!("{{\"id\":{id},\"check\":{}}}\n", quote(source))
}

fn http_request(id: usize, source: &str) -> Vec<u8> {
    let body = check_line(id, source);
    let body = body.trim_end();
    format!(
        "POST /check HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

// ------------------------------------------------------------- load gen --

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Ndjson,
    Http,
}

impl Plane {
    fn label(self) -> &'static str {
        match self {
            Plane::Ndjson => "ndjson",
            Plane::Http => "http",
        }
    }
}

/// What happened to one request.
#[derive(Clone, Default)]
struct Outcome {
    sched_ns: u64,
    sent_ns: u64,
    recv_ns: u64,
    body: Option<String>,
    conn_error: bool,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Open loop over one pipelined NDJSON connection: a sender thread writes
/// each request at its scheduled time, a reader thread timestamps replies.
fn run_ndjson(addr: SocketAddr, lines: &[String], rate: f64) -> Vec<Outcome> {
    let n = lines.len();
    let dt = Duration::from_secs_f64(1.0 / rate);
    let mut out = vec![Outcome::default(); n];
    let t0 = Instant::now() + Duration::from_millis(5);
    for (i, o) in out.iter_mut().enumerate() {
        o.sched_ns = trace::ns(t0 + dt * i as u32);
    }
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            out.iter_mut().for_each(|o| o.conn_error = true);
            return out;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = t0 + dt * n as u32 + DRAIN;
    let reader = {
        let stream = stream.try_clone().expect("clone socket");
        std::thread::spawn(move || {
            let mut r = BufReader::new(stream);
            let mut got = Vec::with_capacity(n);
            let mut buf = Vec::new();
            while got.len() < n {
                match r.read_until(b'\n', &mut buf) {
                    Ok(0) => break,
                    Ok(_) if buf.ends_with(b"\n") => {
                        got.push((trace::ns(Instant::now()), std::mem::take(&mut buf)));
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if Instant::now() > deadline {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            got
        })
    };
    let mut w = &stream;
    let mut broken = false;
    for (i, line) in lines.iter().enumerate() {
        sleep_until(t0 + dt * i as u32);
        if broken || w.write_all(line.as_bytes()).is_err() {
            broken = true;
            out[i].conn_error = true;
            continue;
        }
        out[i].sent_ns = trace::ns(Instant::now());
    }
    let got = reader.join().expect("reader thread");
    let _ = stream.shutdown(std::net::Shutdown::Both);
    for (recv, bytes) in got {
        let text = String::from_utf8_lossy(&bytes).trim_end().to_string();
        let id = json::parse(&text)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_int));
        if let Some(o) = id.and_then(|id| out.get_mut(id as usize)) {
            o.recv_ns = recv;
            o.body = Some(text);
        }
    }
    out
}

struct HttpConn {
    r: BufReader<TcpStream>,
    w: TcpStream,
}

impl HttpConn {
    fn open(addr: SocketAddr) -> std::io::Result<HttpConn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(DRAIN))?;
        Ok(HttpConn {
            r: BufReader::new(w.try_clone()?),
            w,
        })
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<String> {
        self.w.write_all(request)?;
        self.receive()
    }

    fn receive(&mut self) -> std::io::Result<String> {
        let mut len = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if self.r.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some(v) = l
                .split_once(':')
                .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            {
                len = v.1.trim().parse().unwrap_or(0);
            }
        }
        let mut body = vec![0u8; len];
        self.r.read_exact(&mut body)?;
        Ok(String::from_utf8_lossy(&body).trim_end().to_string())
    }
}

/// Open loop over `HTTP_CONNS` keep-alive connections: each connection's
/// thread takes the next scheduled request, waits for its time, and sends
/// it once the previous reply is in.  Latency still counts from the
/// scheduled time, so a request that waited for a free connection pays for
/// it.
fn run_http(addr: SocketAddr, requests: &[Vec<u8>], rate: f64) -> Vec<Outcome> {
    let n = requests.len();
    let dt = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![Outcome::default(); n]);
    std::thread::scope(|s| {
        for _ in 0..HTTP_CONNS {
            s.spawn(|| {
                let mut conn: Option<HttpConn> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let sched = t0 + dt * i as u32;
                    sleep_until(sched);
                    let mut o = Outcome {
                        sched_ns: trace::ns(sched),
                        ..Outcome::default()
                    };
                    if Instant::now() <= sched + DRAIN {
                        if conn.is_none() {
                            conn = HttpConn::open(addr).ok();
                        }
                        match conn.as_mut() {
                            None => o.conn_error = true,
                            Some(c) => {
                                o.sent_ns = trace::ns(Instant::now());
                                match c.exchange(&requests[i]) {
                                    Ok(body) => {
                                        o.recv_ns = trace::ns(Instant::now());
                                        o.body = Some(body);
                                    }
                                    Err(_) => {
                                        o.conn_error = true;
                                        conn = None;
                                    }
                                }
                            }
                        }
                    }
                    results.lock().expect("results poisoned")[i] = o;
                }
            });
        }
    });
    results.into_inner().expect("results poisoned")
}

/// The requests a burst has sent and what happened to them.
#[derive(Default)]
struct Sent {
    reqs: Vec<Prog>,
    out: Vec<Outcome>,
}

impl Sent {
    /// Writes `p` as request number `reqs.len()`; its index, or `None` when
    /// the write failed (a connection error).
    fn send(
        &mut self,
        p: Prog,
        bytes: fn(usize, &str) -> Vec<u8>,
        w: &mut dyn Write,
    ) -> Option<usize> {
        let i = self.reqs.len();
        let now = trace::ns(Instant::now());
        let ok = w.write_all(&bytes(i, &p.source)).is_ok();
        self.out.push(Outcome {
            sched_ns: now,
            sent_ns: now,
            conn_error: !ok,
            ..Outcome::default()
        });
        self.reqs.push(p);
        ok.then_some(i)
    }
}

fn ndjson_bytes(i: usize, source: &str) -> Vec<u8> {
    check_line(i, source).into_bytes()
}

/// Closed loop for `dur`: keeps requests in flight (`BURST_WINDOW`
/// pipelined on one NDJSON connection; one on each of `HTTP_CONNS` HTTP
/// connections) and sends the next read of the mix as soon as one is
/// answered, all from this thread.  Returns the requests sent, their
/// outcomes, and the seconds from the first send to the last reply.
fn burst(
    d: &Daemon,
    plane: Plane,
    rng: &mut Rng,
    progs: &[Prog],
    dur: Duration,
) -> (Vec<Prog>, Vec<Outcome>, f64) {
    let mut deck = Vec::new();
    let mut next = || progs[next_of(&mut deck, rng, progs.len())].clone();
    let mut s = Sent::default();
    let t0 = Instant::now();
    let end = t0 + dur;
    match plane {
        Plane::Ndjson => match TcpStream::connect(d.ndjson) {
            Err(_) => {
                s.send(next(), ndjson_bytes, &mut std::io::sink());
                s.out[0].conn_error = true;
            }
            Ok(conn) => {
                let _ = conn.set_nodelay(true);
                let _ = conn.set_read_timeout(Some(DRAIN));
                let mut w = conn.try_clone().expect("clone socket");
                let mut r = BufReader::new(conn);
                let mut pending = 0;
                for _ in 0..BURST_WINDOW {
                    pending += usize::from(s.send(next(), ndjson_bytes, &mut w).is_some());
                }
                let mut buf = String::new();
                while pending > 0 {
                    buf.clear();
                    if !matches!(r.read_line(&mut buf), Ok(n) if n > 0) {
                        break;
                    }
                    let now = Instant::now();
                    let text = buf.trim_end().to_string();
                    let id = json::parse(&text)
                        .ok()
                        .and_then(|v| v.get("id").and_then(Value::as_int));
                    if let Some(o) = id.and_then(|id| s.out.get_mut(id as usize)) {
                        o.recv_ns = trace::ns(now);
                        o.body = Some(text);
                    }
                    pending -= 1;
                    if now < end {
                        pending += usize::from(s.send(next(), ndjson_bytes, &mut w).is_some());
                    }
                }
            }
        },
        Plane::Http => {
            let mut conns: Vec<(HttpConn, Option<usize>)> = Vec::new();
            for _ in 0..HTTP_CONNS {
                match HttpConn::open(d.http) {
                    Ok(mut c) => {
                        let i = s.send(next(), http_request, &mut c.w);
                        conns.push((c, i));
                    }
                    Err(_) => {
                        let i = s.reqs.len();
                        s.send(next(), http_request, &mut std::io::sink());
                        s.out[i].conn_error = true;
                    }
                }
            }
            while conns.iter().any(|c| c.1.is_some()) {
                for (c, in_flight) in conns.iter_mut() {
                    let Some(i) = in_flight.take() else { continue };
                    match c.receive() {
                        Ok(body) => {
                            let now = Instant::now();
                            s.out[i].recv_ns = trace::ns(now);
                            s.out[i].body = Some(body);
                            if now < end {
                                *in_flight = s.send(next(), http_request, &mut c.w);
                            }
                        }
                        Err(_) => s.out[i].conn_error = true,
                    }
                }
            }
        }
    }
    let last = s.out.iter().map(|o| o.recv_ns).max().unwrap_or(0);
    let secs = (last.saturating_sub(trace::ns(t0)) as f64 / 1e9).max(1e-6);
    (s.reqs, s.out, secs)
}

// -------------------------------------------------------------- judging --

#[derive(Default)]
struct PhaseStats {
    /// Latency from the scheduled send, ms; failures are +inf so they miss
    /// every limit.
    lat: Vec<f64>,
    failed: usize,
    backpressure: usize,
    deadline: usize,
    errors: usize,
    conn_errors: usize,
    server_ms: Vec<f64>,
    outside_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Per-def counters summed over the replies, by metric name.
    defs: Metrics,
    /// The first few wrong verdicts, for the report.
    wrong: Vec<String>,
}

const PLANES: [Plane; 2] = [Plane::Ndjson, Plane::Http];

impl PhaseStats {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.lat, q)
    }
}

/// Classifies every reply and checks its verdict against the known answer.
fn judge(requests: &[Prog], outcomes: &[Outcome], spans: bool) -> PhaseStats {
    let mut st = PhaseStats::default();
    for (req, o) in requests.iter().zip(outcomes) {
        let reply = o.body.as_deref().and_then(|b| json::parse(b).ok());
        let failure = match (&reply, o.conn_error) {
            (_, true) => {
                st.conn_errors += 1;
                true
            }
            (None, false) => {
                st.deadline += 1;
                true
            }
            (Some(v), false) => match v.get("error").and_then(Value::as_str) {
                Some("backpressure") => {
                    st.backpressure += 1;
                    true
                }
                Some("deadline") => {
                    st.deadline += 1;
                    true
                }
                Some(_) => {
                    st.errors += 1;
                    true
                }
                None => {
                    let defs = v.items("defs");
                    let all_ok =
                        v.flag("ok") && !defs.is_empty() && defs.iter().all(|d| d.flag("ok"));
                    if !all_ok && st.wrong.len() < 3 {
                        st.wrong.push(format!(
                            "{}: {}",
                            req.name,
                            truncate(o.body.as_deref().unwrap_or(""))
                        ));
                    }
                    let mut server = 0.0;
                    for d in defs {
                        let s = &mut st.defs;
                        let (tc, ex, so) = (
                            d.num("typecheck_us"),
                            d.num("exelim_us"),
                            d.num("solving_us"),
                        );
                        server += (tc + ex + so) / 1e3;
                        let exhausted =
                            d.get("search_exhausted").is_some_and(|x| *x != Value::Null);
                        s.add("core.typecheck_ms", tc / 1e3, "ms");
                        s.add("exelim.ms", ex / 1e3, "ms");
                        s.add("core.constraint_atoms", d.num("constraint_atoms"), "count");
                        s.add("exelim.pruned", d.num("exelim_candidates_pruned"), "count");
                        s.add("exelim.exhausted", f64::from(u8::from(exhausted)), "count");
                        s.add("fm.memo_hits", d.num("fm_memo_hits"), "count");
                        s.add("fm.memo_misses", d.num("fm_memo_misses"), "count");
                        s.add("grid.points", d.num("points_evaluated"), "count");
                        s.add("grid.accepted", d.num("grid_accepted"), "count");
                        s.add("grid.compiled", d.num("programs_compiled"), "count");
                        s.add("cache.hits", d.num("cache_hits"), "count");
                        s.add("cache.misses", d.num("cache_misses"), "count");
                        let skipped = f64::from(u8::from(d.flag("skipped_unchanged")));
                        s.add("defindex.skipped", skipped, "count");
                    }
                    let wall = (o.recv_ns - o.sent_ns) as f64 / 1e6;
                    st.server_ms.push(server);
                    st.outside_ms.push((wall - server).max(0.0));
                    if spans {
                        let id = trace::record("request", 0, o.sent_ns, o.recv_ns);
                        trace::record_children(id, o.sent_ns, &[("server", (server * 1e6) as u64)]);
                    }
                    !all_ok
                }
            },
        };
        if o.sent_ns > 0 {
            st.lag_ms
                .push(o.sent_ns.saturating_sub(o.sched_ns) as f64 / 1e6);
        }
        if failure {
            st.failed += 1;
            st.lat.push(f64::INFINITY);
        } else {
            st.lat.push((o.recv_ns - o.sched_ns) as f64 / 1e6);
        }
    }
    st
}

fn truncate(s: &str) -> String {
    s.chars().take(300).collect()
}

// ------------------------------------------------------------ workloads --

/// Counters read from `{"metrics":"dump"}` and `{"cache":"stats"}`.
const DUMP_COUNTERS: [&str; 8] = [
    "solver.queries",
    "solver.exelim_attempts",
    "solver.fm_memo_misses",
    "solver.points_evaluated",
    "solver.cache_misses",
    "solver.cache_hits",
    "solver.fm_refuted",
    "solver.fm_proved",
];

struct Snapshot {
    counters: Vec<f64>,
    fm_ns: f64,
    grid_ns: f64,
    wal: [f64; 4],
}

fn snapshot(d: &mut Daemon) -> Result<Snapshot, String> {
    let dump = d.call(r#"{"metrics":"dump"}"#)?;
    let m = dump.get("metrics").ok_or("no metrics in dump")?;
    let stats = d.call(r#"{"cache":"stats"}"#)?;
    let c = stats.get("cache").ok_or("no cache stats")?;
    Ok(Snapshot {
        counters: DUMP_COUNTERS
            .iter()
            .map(|k| m.get("counters").map_or(0.0, |cs| cs.num(k)))
            .collect(),
        fm_ns: hist_sum(m, "solver.fm_ns"),
        grid_ns: hist_sum(m, "solver.numeric_ns"),
        wal: [
            c.path_num("wal.appends"),
            c.path_num("wal.bytes"),
            c.path_num("wal.compactions"),
            c.path_num("wal.replayed"),
        ],
    })
}

/// A histogram's `sum_ns` from a metrics dump (histogram names contain
/// dots, so they are looked up whole).
fn hist_sum(metrics: &Value, name: &str) -> f64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .map_or(0.0, |h| h.num("sum_ns"))
}

impl Snapshot {
    fn delta(&self, before: &Snapshot) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .counters
            .iter()
            .zip(&before.counters)
            .map(|(a, b)| (a - b) as u64)
            .collect();
        v.push((self.wal[0] - before.wal[0]) as u64);
        v
    }
}

/// Checks every program once, in order, closed loop: (name, latency ms,
/// verified).
fn prime(d: &mut Daemon, progs: &[Prog]) -> Result<Vec<(String, f64, bool)>, String> {
    let mut out = Vec::new();
    for (i, p) in progs.iter().enumerate() {
        let line = check_line(i, &p.source);
        let t0 = Instant::now();
        let v = d.ctl.call(line.trim_end())?;
        let t1 = Instant::now();
        let id = trace::record("prime_request", 0, trace::ns(t0), trace::ns(t1));
        let defs = v.items("defs");
        let server: f64 = defs
            .iter()
            .map(|x| x.num("typecheck_us") + x.num("exelim_us") + x.num("solving_us"))
            .sum();
        trace::record_children(id, trace::ns(t0), &[("server", (server * 1e3) as u64)]);
        let ok = v.flag("ok") && !defs.is_empty() && defs.iter().all(|x| x.flag("ok"));
        out.push((p.name.clone(), (t1 - t0).as_secs_f64() * 1e3, ok));
    }
    Ok(out)
}

/// Builds the snapshot + WAL that `serve-edit` recovers from: a cold pass
/// over the mix, a flush, then fixed-seed edits left in the WAL by a kill.
fn prepopulate(cfg: &Config, progs: &[Prog], dir: &Path) -> Result<Vec<u64>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let cache = dir.join("cache.birelcost");
    let (mut d, _) = Daemon::spawn(cfg, Some(&cache))?;
    for (name, _, ok) in prime(&mut d, progs)? {
        if !ok {
            return Err(format!("prepopulate: {name} did not verify"));
        }
    }
    let flushed = d.call(r#"{"cache":"flush"}"#)?;
    if flushed.get("error").is_some() {
        return Err(format!("prepopulate: flush failed: {flushed:?}"));
    }
    let before = snapshot(&mut d)?;
    let mut rng = Rng::new(0);
    let mut edits = Edits::new((1, EDIT_K_SPLIT))?;
    let pre: Vec<Prog> = (0..8)
        .map(|i| edits.next(i % VERIFIED.len(), &mut rng))
        .collect();
    for (name, _, ok) in prime(&mut d, &pre)? {
        if !ok {
            return Err(format!("prepopulate: loosened {name} did not verify"));
        }
    }
    let after = snapshot(&mut d)?;
    // SIGKILL on drop: the edits stay in the WAL for recovery to replay.
    drop(d);
    Ok(after.delta(&before))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One slice's boot: spawn (recovering a fresh copy of the pristine snapshot
/// and WAL on serve-edit), then priming passes.
struct BootSample {
    setup_s: f64,
    boot_s: f64,
    /// Per mix program: median latency over the passes, and whether every
    /// pass verified it.
    ms: Vec<f64>,
    ok: Vec<bool>,
    attempted: usize,
    det: Vec<u64>,
    replayed: f64,
}

fn boot(
    cfg: &Config,
    kind: Kind,
    progs: &[Prog],
    b: usize,
) -> Result<(Daemon, BootSample), String> {
    let cache = if kind == Kind::Edit {
        let dir = cfg.work.join(format!("boot{b}"));
        copy_dir(&cfg.work.join("pristine"), &dir)?;
        Some(dir.join("cache.birelcost"))
    } else {
        None
    };
    let t0 = Instant::now();
    let (mut d, boot_s) = Daemon::spawn(cfg, cache.as_deref())?;
    let before = snapshot(&mut d)?;
    let mut passes = vec![prime(&mut d, progs)?];
    let setup_s = t0.elapsed().as_secs_f64();
    let after = snapshot(&mut d)?;
    // After recovery every pass is warm, so serve-edit repeats it for
    // steadier medians; a cold pass happens once per boot.
    if kind == Kind::Edit {
        for _ in 0..EDIT_PASSES - 1 {
            passes.push(prime(&mut d, progs)?);
        }
    }
    let sample = BootSample {
        setup_s,
        boot_s,
        ms: (0..progs.len())
            .map(|i| median(&passes.iter().map(|p| p[i].1).collect::<Vec<_>>()))
            .collect(),
        ok: (0..progs.len())
            .map(|i| passes.iter().all(|p| p[i].2))
            .collect(),
        attempted: passes.len() * progs.len(),
        det: after.delta(&before),
        replayed: after.wal[3],
    };
    Ok((d, sample))
}

/// A serving run is `SLICES` slices of about `--seconds / SLICES` each.
/// Each slice runs `between` (table1's in-process checks, or nothing), boots
/// one extra daemon from the same starting state and primes it (a set-up
/// sample), runs a fixed-rate phase on each plane against the long-lived
/// daemon, then a closed-loop burst on each plane.  Every figure is taken
/// per slice and reported over slices with `fast_low`/`fast_high`.
pub const SLICES: usize = 20;
/// Priming passes per boot on serve-edit, where every pass after recovery
/// is warm and takes about a millisecond.
const EDIT_PASSES: usize = 20;
/// Shares of a slice taken by each plane's fixed-rate phase and by each
/// plane's burst; the boot and priming take the rest.
const FIXED_SHARE: f64 = 0.25;
const BURST_SHARE: f64 = 0.08;
/// Requests a burst keeps in flight: pipelined on one NDJSON connection,
/// one per HTTP connection.
const BURST_WINDOW: usize = 8;

/// What one slice measured on one plane.
#[derive(Default, Clone, Copy)]
struct PlaneSample {
    p50: f64,
    p95: f64,
    /// Verified replies per second of the burst; 0 when the burst failed a
    /// request or its p95 missed the limit.
    rps: f64,
}

pub fn run(
    cfg: &Config,
    kind: Kind,
    seed: u64,
    seconds: f64,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<RunOut, String> {
    let rate = match kind {
        Kind::Warm => cfg.warm_rps,
        Kind::Edit => cfg.edit_rps,
    };
    let slice_s = seconds / SLICES as f64;
    let t_run = Instant::now();
    let progs = mix(&cfg.root)?;
    let mut m = Metrics::default();
    let mut det = Vec::new();
    let mut wrong = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);

    if kind == Kind::Edit {
        det.push((
            "prepopulate".to_string(),
            prepopulate(cfg, &progs, &cfg.work.join("pristine"))?,
        ));
    }
    let (mut d, first) = boot(cfg, kind, &progs, 0)?;
    let mut boots = vec![first];

    let edits = match kind {
        Kind::Edit => Some(Edits::new((EDIT_K_SPLIT, EDIT_K_MAX))?),
        Kind::Warm => None,
    };
    let mut stream = Stream::new(seed, edits);

    // With edits, a phase takes whole blocks of `EDIT_EVERY` requests per
    // Verified program, so every slice and plane edits each program once
    // and its tail comes from the same work.
    let block = match kind {
        Kind::Edit => EDIT_EVERY * VERIFIED.len(),
        Kind::Warm => 1,
    };
    let blocks = rate * FIXED_SHARE * slice_s / block as f64;
    let n = (blocks.round() as usize).max(1) * block;
    let burst_for = Duration::from_secs_f64(BURST_SHARE * slice_s);

    let mut all_fixed = PhaseStats::default();
    let mut side = [0usize; 4];
    let mut fixed_lag = Vec::new();
    let mut planes: [Vec<PlaneSample>; 2] = [Vec::new(), Vec::new()];
    let mut layer = vec![0u64; DUMP_COUNTERS.len() + 1];
    let mut fm_grid_wal = [0.0f64; 5];
    // The host's speed, sampled at both ends of every slice.
    let mut host = Vec::new();
    for slice in 0..SLICES {
        host.push(reference_ms());
        between()?;
        let (extra, sample) = boot(cfg, kind, &progs, slice + 1)?;
        // Killed, not shut down: a graceful exit waits about a second for
        // the daemon's reactor, which would only lengthen the slice.
        drop(extra);
        boots.push(sample);

        let before = snapshot(&mut d)?;
        let mut got = [PlaneSample::default(); 2];
        for (p, plane) in PLANES.into_iter().enumerate() {
            let reqs = stream.take(n, &progs);
            let st = phase(&d, plane, &reqs, rate);
            attempted += n;
            failed += st.failed;
            wrong.extend(st.wrong.iter().cloned());
            got[p].p50 = st.p(0.5);
            got[p].p95 = st.p(0.95);
            if plane == Plane::Ndjson {
                // Over HTTP a request also waits for a free connection; the
                // pipelined plane shows the generator's own lateness.
                fixed_lag.extend(st.lag_ms.iter().copied());
            }
            merge(&mut all_fixed, st, &mut side);
        }
        let after = snapshot(&mut d)?;
        for (acc, x) in layer.iter_mut().zip(after.delta(&before)) {
            *acc += x;
        }
        let sums = [
            after.fm_ns - before.fm_ns,
            after.grid_ns - before.grid_ns,
            after.wal[0] - before.wal[0],
            after.wal[1] - before.wal[1],
            after.wal[2] - before.wal[2],
        ];
        for (acc, x) in fm_grid_wal.iter_mut().zip(sums) {
            *acc += x;
        }

        // Bursts read only: on serve-edit they measure the def-index read
        // path.  Each slice draws its own seeded stream, so how many
        // requests a burst gets through never shifts later inputs.
        for (p, plane) in PLANES.into_iter().enumerate() {
            let mut rng = Rng::new(seed ^ (0xb0b5_0000 + slice as u64));
            let (reqs, outcomes, secs) = burst(&d, plane, &mut rng, &progs, burst_for);
            let st = judge(&reqs, &outcomes, false);
            attempted += reqs.len();
            failed += st.failed;
            wrong.extend(st.wrong.iter().cloned());
            if st.failed == 0 && st.p(0.95) <= cfg.p95_limit_ms {
                got[p].rps = reqs.len() as f64 / secs;
            }
            merge(&mut PhaseStats::default(), st, &mut side);
        }
        for (p, g) in got.into_iter().enumerate() {
            planes[p].push(g);
        }
        host.push(reference_ms());
    }
    m.set("host.ref_ms", fast_low(&host), "ms");
    m.set("peak_rss_mb", d.peak_rss_mb(), "MB");
    d.shutdown()?;
    eprintln!(
        "perfbench: {SLICES} slices done at {:.1} s",
        t_run.elapsed().as_secs_f64()
    );

    for (samples, plane) in planes.iter().zip(PLANES) {
        let col = |f: fn(&PlaneSample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
        let label = plane.label();
        m.set(format!("{label}.p50_ms"), fast_low(&col(|s| s.p50)), "ms");
        m.set(format!("{label}.p95_ms"), fast_low(&col(|s| s.p95)), "ms");
        m.set(
            format!("{label}.max_rps"),
            fast_high(&col(|s| s.rps)),
            "1/s",
        );
    }

    // Boot samples: every boot starts from the same state, so its priming
    // must do the same work and reach the same verdicts.
    for (b, s) in boots.iter().enumerate() {
        attempted += s.attempted;
        for (p, ok) in progs.iter().zip(&s.ok) {
            if !ok {
                failed += 1;
                wrong.push(format!("priming: {} did not verify", p.name));
            }
        }
        if s.det != boots[0].det {
            wrong.push(format!(
                "determinism: boot {b} primed with counts {:?}, boot 0 with {:?}",
                s.det, boots[0].det
            ));
        }
    }
    det.push(("prime".to_string(), boots[0].det.clone()));
    let col = |f: &dyn Fn(&BootSample) -> f64| boots.iter().map(f).collect::<Vec<_>>();
    let verified_ms = |s: &BootSample| -> f64 {
        s.ms.iter()
            .zip(&progs)
            .filter(|(_, p)| p.table1_verified)
            .map(|(x, _)| x)
            .sum()
    };
    m.set("setup_s", median(&col(&|s| s.setup_s)), "s");
    m.set(
        "suite_s",
        fast_low(&col(&|s| s.ms.iter().sum::<f64>() / 1e3)),
        "s",
    );
    m.set("proved_s", fast_low(&col(&|s| verified_ms(s) / 1e3)), "s");
    m.set(
        "verified",
        boots[0].ok.iter().filter(|ok| **ok).count() as f64,
        "count",
    );
    m.set("persist.recover_s", median(&col(&|s| s.boot_s)), "s");
    m.set("wal.replayed", boots[0].replayed, "count");
    for (i, p) in progs.iter().enumerate().filter(|(_, p)| p.table1_verified) {
        m.set(
            format!("prog.{}.ms", p.name),
            fast_low(&col(&|s| s.ms[i])),
            "ms",
        );
    }

    // Per-layer figures over the fixed-rate phases (both planes).
    m.0.extend(all_fixed.defs.0);
    let counter = |k: &str| {
        layer[DUMP_COUNTERS
            .iter()
            .position(|c| *c == k)
            .expect("known counter")] as f64
    };
    m.set("solver.queries", counter("solver.queries"), "count");
    m.set(
        "exelim.attempts",
        counter("solver.exelim_attempts"),
        "count",
    );
    m.set("fm.refuted", counter("solver.fm_refuted"), "count");
    m.set("fm.proved", counter("solver.fm_proved"), "count");
    m.set("fm.ms", fm_grid_wal[0] / 1e6, "ms");
    m.set("grid.ms", fm_grid_wal[1] / 1e6, "ms");
    m.set("wal.appends", fm_grid_wal[2], "count");
    m.set("wal.bytes", fm_grid_wal[3], "bytes");
    m.set("wal.compactions", fm_grid_wal[4], "count");
    m.set("serve.requests", all_fixed.lat.len() as f64, "count");
    m.set("serve.server_ms", median(&all_fixed.server_ms), "ms");
    m.set(
        "serve.outside_p50_ms",
        percentile(&all_fixed.outside_ms, 0.5),
        "ms",
    );
    m.set(
        "serve.outside_p99_ms",
        percentile(&all_fixed.outside_ms, 0.99),
        "ms",
    );
    m.set("serve.backpressure", side[0] as f64, "count");
    m.set("serve.deadline", side[1] as f64, "count");
    m.set("serve.errors", side[2] as f64, "count");
    m.set("serve.conn_errors", side[3] as f64, "count");
    m.set("gen.lag_p99_ms", percentile(&fixed_lag, 0.99), "ms");
    Ok(RunOut {
        metrics: m,
        attempted,
        failed,
        wrong,
        det,
    })
}

/// Runs one open-loop phase at the fixed rate: it waits `DRAIN` for
/// stragglers and records request spans.
fn phase(d: &Daemon, plane: Plane, reqs: &[Prog], rate: f64) -> PhaseStats {
    let outcomes = match plane {
        Plane::Ndjson => {
            let lines: Vec<String> = reqs
                .iter()
                .enumerate()
                .map(|(i, p)| check_line(i, &p.source))
                .collect();
            run_ndjson(d.ndjson, &lines, rate)
        }
        Plane::Http => {
            let bodies: Vec<Vec<u8>> = reqs
                .iter()
                .enumerate()
                .map(|(i, p)| http_request(i, &p.source))
                .collect();
            run_http(d.http, &bodies, rate)
        }
    };
    judge(reqs, &outcomes, true)
}

/// Folds a phase into a running total; `side` accumulates the refusal,
/// deadline, error and connection-error counts over every phase.
fn merge(total: &mut PhaseStats, st: PhaseStats, side: &mut [usize; 4]) {
    side[0] += st.backpressure;
    side[1] += st.deadline;
    side[2] += st.errors;
    side[3] += st.conn_errors;
    total.defs.add_all(&st.defs);
    total.lat.extend(st.lat);
    total.server_ms.extend(st.server_ms);
    total.outside_ms.extend(st.outside_ms);
    total.failed += st.failed;
}
