//! Workloads, the seeded op generator and the closed-loop load.
//!
//! Every workload is a closed loop: each connection keeps `WINDOW` ops
//! in flight and sends the next only when a reply retires one. Bayou
//! clients are sessions that wait on their replies, and 16 in flight
//! per connection stay under the server's per-connection window (32),
//! so overload shows as latency, never as `Busy`.

use bayou_data::KvOp;
use bayou_server::{Client, Reply};
use bayou_types::{Level, Value};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Connections driving the server, one thread each.
pub const CONNS: usize = 2;
/// Ops in flight per connection.
pub const WINDOW: usize = 16;
/// Key-space size (uniform popularity).
pub const KEYS: u64 = 64;
/// How long a reply may take before the op counts as unanswered.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Every `strong_every`-th op is strong (`0`: none, `1`: all).
    pub strong_every: u64,
    /// With `read_every = N > 0`, every `N`-th op is a `put` and the
    /// rest are `get`s; `0` is a 50/50 coin flip.
    pub read_every: u64,
    /// Leader lease in milliseconds (`bayou-server --lease`).
    pub lease_ms: Option<u64>,
    /// Split the timed phase into bursts of this many milliseconds, each
    /// followed by quiescence (see `README.md`: weak-only load starves
    /// commit, so its backlog must drain between bursts).
    pub burst_ms: Option<u64>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mixed",
        strong_every: 8,
        read_every: 0,
        lease_ms: None,
        burst_ms: None,
    },
    Workload {
        name: "weak_only",
        strong_every: 0,
        read_every: 0,
        lease_ms: None,
        burst_ms: Some(100),
    },
    Workload {
        name: "lease_reads",
        strong_every: 1,
        read_every: 10,
        lease_ms: Some(400),
        burst_ms: None,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether the workload issues ops of `class`.
    pub fn issues(&self, class: Class) -> bool {
        match class {
            Class::Weak => self.strong_every != 1,
            Class::StrongWrite | Class::StrongRead => self.strong_every != 0,
        }
    }
}

/// Op class: how the op is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Answered at once from the speculative order.
    Weak,
    /// A strong `put`: answered once TOB fixed its place.
    StrongWrite,
    /// A strong `get`: a TOB round, or a leaseholder's local read.
    StrongRead,
}

pub const CLASSES: [Class; 3] = [Class::Weak, Class::StrongWrite, Class::StrongRead];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Weak => "weak",
            Class::StrongWrite => "strong_write",
            Class::StrongRead => "strong_read",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct GenOp {
    pub level: Level,
    pub op: KvOp,
    pub class: Class,
    pub key: u8,
}

/// splitmix64: seeds the per-connection streams.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic op stream of one connection: the same seed and
/// connection index give the same ops.
pub struct Gen {
    rng: u64,
    conn: u64,
    n: u64,
    w: Workload,
}

impl Gen {
    pub fn new(w: Workload, seed: u64, conn: u64) -> Gen {
        Gen {
            rng: splitmix(seed ^ splitmix(conn + 1)) | 1,
            conn,
            n: 0,
            w,
        }
    }

    fn rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn next_op(&mut self) -> GenOp {
        let n = self.n;
        self.n += 1;
        let strong = self.w.strong_every > 0 && n % self.w.strong_every == self.w.strong_every - 1;
        let key = (self.rand() % KEYS) as u8;
        let coin = self.rand() & 1 == 0;
        let write = if self.w.read_every > 0 {
            n % self.w.read_every == self.w.read_every - 1
        } else {
            coin
        };
        let name = key_name(key);
        let (op, class) = if write {
            let v = put_value(self.conn, n, key);
            let class = if strong {
                Class::StrongWrite
            } else {
                Class::Weak
            };
            (KvOp::put(name, v), class)
        } else {
            let class = if strong {
                Class::StrongRead
            } else {
                Class::Weak
            };
            (KvOp::get(name), class)
        };
        let level = if strong { Level::Strong } else { Level::Weak };
        GenOp {
            level,
            op,
            class,
            key,
        }
    }
}

pub fn key_name(key: u8) -> String {
    format!("k{key}")
}

/// A put's value names its writer and its key: `seq << 8 | conn << 6 |
/// key`, so any value read back can be checked against the writes made.
pub fn put_value(conn: u64, seq: u64, key: u8) -> i64 {
    (((seq + 1) << 8) | ((conn & 3) << 6) | u64::from(key)) as i64
}

/// What one connection saw.
#[derive(Default)]
pub struct ConnRun {
    pub sent: u64,
    pub oks: u64,
    pub busy: u64,
    pub errors: u64,
    pub retries: u64,
    pub unanswered: u64,
    /// Send → reply latency in nanoseconds, per [`Class`].
    pub latency: [Vec<u64>; 3],
    /// Time spent inside the connection's `send` (encode and write) and
    /// blocked in `recv` until the next reply (traced runs only).
    pub send_ns: Vec<u64>,
    pub recv_ns: Vec<u64>,
    /// Values written, and `(key, value)` pairs returned by gets and
    /// puts — checked against each other after the run.
    pub written: Vec<i64>,
    pub observed: Vec<(u8, Value)>,
    pub first_error: Option<String>,
}

impl ConnRun {
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.retries + self.unanswered
    }

    pub fn merge(&mut self, other: ConnRun) {
        self.sent += other.sent;
        self.oks += other.oks;
        self.busy += other.busy;
        self.errors += other.errors;
        self.retries += other.retries;
        self.unanswered += other.unanswered;
        for (a, b) in self.latency.iter_mut().zip(other.latency) {
            a.extend(b);
        }
        self.send_ns.extend(other.send_ns);
        self.recv_ns.extend(other.recv_ns);
        self.written.extend(other.written);
        self.observed.extend(other.observed);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// When a connection stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    After(u64),
}

/// A pipelined connection to something that serves ops: a TCP
/// [`Client`], or the traced run's direct cluster feeder.
pub trait Conn: Send {
    /// Sends one op without waiting; returns its tag.
    fn send(&mut self, level: Level, op: KvOp) -> io::Result<u64>;
    /// Blocks for the next reply (completion order).
    fn recv(&mut self) -> io::Result<(u64, Reply)>;

    /// One op at a time.
    fn call(&mut self, level: Level, op: KvOp) -> io::Result<Reply> {
        let tag = self.send(level, op)?;
        let (got, reply) = self.recv()?;
        if got != tag {
            return Err(io::Error::other(format!(
                "reply {got} for lone request {tag}"
            )));
        }
        Ok(reply)
    }
}

impl Conn for Client {
    fn send(&mut self, level: Level, op: KvOp) -> io::Result<u64> {
        Client::send(self, level, op)
    }

    fn recv(&mut self) -> io::Result<(u64, Reply)> {
        Client::recv(self)
    }
}

struct InFlight {
    t0: Instant,
    class: Class,
    key: u8,
}

/// Drives one connection in a closed loop until `stop`, then waits for
/// every outstanding reply. `traced` also records time inside the
/// connection's `send`/`recv` calls.
pub fn run_conn(
    conn: &mut impl Conn,
    gen: &mut Gen,
    stop: Stop,
    traced: bool,
) -> io::Result<ConnRun> {
    let mut run = ConnRun::default();
    let mut outstanding: HashMap<u64, InFlight> = HashMap::with_capacity(WINDOW * 2);
    loop {
        let sending = match stop {
            Stop::At(t) => Instant::now() < t,
            Stop::After(n) => run.sent < n,
        };
        if sending && outstanding.len() < WINDOW {
            let g = gen.next_op();
            if let KvOp::Put(_, v) = g.op {
                run.written.push(v);
            }
            let t0 = Instant::now();
            let tag = conn.send(g.level, g.op)?;
            if traced {
                run.send_ns.push(t0.elapsed().as_nanos() as u64);
            }
            outstanding.insert(
                tag,
                InFlight {
                    t0,
                    class: g.class,
                    key: g.key,
                },
            );
            run.sent += 1;
            continue;
        }
        if outstanding.is_empty() {
            break;
        }
        let t_recv = Instant::now();
        let (tag, reply) = match conn.recv() {
            Ok(r) => r,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                run.unanswered += outstanding.len() as u64;
                run.first_error
                    .get_or_insert_with(|| format!("{} replies never arrived", outstanding.len()));
                break;
            }
            Err(e) => return Err(e),
        };
        let done = Instant::now();
        if traced {
            run.recv_ns.push((done - t_recv).as_nanos() as u64);
        }
        let Some(f) = outstanding.remove(&tag) else {
            run.first_error
                .get_or_insert_with(|| format!("reply for unknown tag {tag}"));
            continue;
        };
        match reply {
            Reply::Ok(v) => {
                run.oks += 1;
                run.latency[f.class.index()].push((done - f.t0).as_nanos() as u64);
                run.observed.push((f.key, v));
            }
            Reply::Busy => run.busy += 1,
            Reply::Retry { .. } => run.retries += 1,
            Reply::Err(e) => {
                run.errors += 1;
                run.first_error.get_or_insert(e);
            }
            Reply::Pong => {
                run.first_error
                    .get_or_insert_with(|| "pong answered an op".into());
            }
        }
    }
    Ok(run)
}

/// [`CONNS`] load connections, each with its own op stream, kept open
/// across the bursts of a timed phase.
pub struct Load<C> {
    lanes: Vec<(C, Gen)>,
}

impl<C: Conn> Load<C> {
    /// Connects in order, so connection ids (and with them the server's
    /// sticky replica routing) are the same on every run.
    pub fn open(connect: &impl Fn() -> io::Result<C>, w: Workload, seed: u64) -> io::Result<Self> {
        let lanes = (0..CONNS)
            .map(|c| Ok((connect()?, Gen::new(w, seed, c as u64))))
            .collect::<io::Result<_>>()?;
        Ok(Load { lanes })
    }

    /// Runs every connection's closed loop in its own thread until
    /// `stop` and merges the results; returns them with the wall-clock
    /// time from start to the last reply.
    pub fn run(&mut self, stop: Stop, traced: bool) -> io::Result<(ConnRun, Duration)> {
        let start = Instant::now();
        let results: Vec<io::Result<ConnRun>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|(conn, gen)| s.spawn(move || run_conn(conn, gen, stop, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(io::Error::other("load thread panicked")))
                })
                .collect()
        });
        let elapsed = start.elapsed();
        let mut merged = ConnRun::default();
        for r in results {
            merged.merge(r?);
        }
        Ok((merged, elapsed))
    }
}

/// Whether `v`, returned by an op on `key`, is something a put on that
/// key wrote (or nothing at all).
pub fn plausible(key: u8, v: &Value, written: &std::collections::HashSet<i64>) -> bool {
    match v {
        Value::None => true,
        Value::Int(x) => (*x & 63) as u8 == key && written.contains(x),
        _ => false,
    }
}
