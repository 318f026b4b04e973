//! Procedures run against a serving address around the timed phase:
//! warm-up, the convergence read and the lease-settle probe.

use crate::load::{
    key_name, plausible, put_value, Conn, ConnRun, Load, Stop, Workload, KEYS, REPLY_TIMEOUT,
    WINDOW,
};
use bayou_data::KvOp;
use bayou_server::{Client, Reply};
use bayou_types::{Level, Value};
use std::collections::{HashMap, HashSet};
use std::io;
use std::time::{Duration, Instant};

/// Untimed workload ops run after the lazy set-up, so connections and
/// buffers are warm when timing starts.
const WARM_OPS: u64 = 512;
/// Connection index stamped into warm-up put values.
const WARM_CONN: u64 = 3;
/// Consecutive strong reads that must look lease-served.
const LEASE_STREAK: usize = 5;
/// Give up waiting for the lease after this long.
const LEASE_DEADLINE: Duration = Duration::from_secs(10);
/// Quiescence polling between bursts.
pub const DRAIN_POLL: Duration = Duration::from_millis(20);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Quiescence polling before the recovery check.
pub const SETTLE_POLL: Duration = Duration::from_millis(200);

pub fn connect(addr: &str) -> io::Result<Client> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(c) => {
                c.set_recv_timeout(Some(REPLY_TIMEOUT))?;
                return Ok(c);
            }
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn expect_ok(reply: Reply, what: &str) -> io::Result<Value> {
    match reply {
        Reply::Ok(v) => Ok(v),
        other => Err(io::Error::other(format!("{what}: {other:?}"))),
    }
}

/// Sends the ops pipelined, [`WINDOW`] at a time (the server sheds past
/// its per-connection window), and returns the values in op order.
fn pipeline(client: &mut impl Conn, ops: Vec<(Level, KvOp)>) -> io::Result<Vec<Value>> {
    let mut out = vec![Value::Unit; ops.len()];
    let mut ops = ops.into_iter().enumerate().peekable();
    while ops.peek().is_some() {
        let mut index = HashMap::new();
        for (i, (level, op)) in ops.by_ref().take(WINDOW) {
            index.insert(client.send(level, op)?, i);
        }
        while !index.is_empty() {
            let (tag, reply) = client.recv()?;
            let i = index
                .remove(&tag)
                .ok_or_else(|| io::Error::other(format!("reply for unknown tag {tag}")))?;
            out[i] = expect_ok(reply, "pipelined op")?;
        }
    }
    Ok(out)
}

/// Untimed set-up work: write every key, wait for the first strong op,
/// and where a lease is armed wait until it is held (reads answered in
/// well under half a TOB write) — the lazy set-up `setup_s` times, which
/// ends at the returned instant. Then [`WARM_OPS`] workload ops warm the
/// connections' buffers. Returns the values written.
pub fn warm_up<C: Conn>(
    connect: &impl Fn() -> io::Result<C>,
    w: Workload,
    seed: u64,
) -> io::Result<(Vec<i64>, Instant)> {
    let mut client = connect()?;
    let fill: Vec<_> = (0..KEYS as u8)
        .map(|k| {
            (
                Level::Weak,
                KvOp::put(key_name(k), put_value(WARM_CONN, 0, k)),
            )
        })
        .collect();
    let mut written: Vec<i64> = (0..KEYS as u8)
        .map(|k| put_value(WARM_CONN, 0, k))
        .collect();
    pipeline(&mut client, fill)?;
    expect_ok(
        client.call(Level::Strong, KvOp::get(key_name(0)))?,
        "first strong op",
    )?;
    if w.lease_ms.is_some() {
        settle_lease(&mut client, &mut written)?;
    }
    let ready = Instant::now();
    drop(client);
    let (run, _) = Load::open(connect, w, seed ^ 0x5741_524D)?.run(Stop::After(WARM_OPS), false)?;
    if run.failed() > 0 {
        return Err(io::Error::other(format!(
            "{} warm-up ops failed: {}",
            run.failed(),
            run.first_error.unwrap_or_default()
        )));
    }
    written.extend(run.written);
    Ok((written, ready))
}

/// Alternates strong writes (always a TOB round) and strong reads
/// (routed to the presumed leaseholder) until [`LEASE_STREAK`] reads in
/// a row answer in under half the median write. Before the lease is
/// granted, and for expiry + epsilon after a new leader is elected,
/// strong reads take the TOB round too, so a lease-read run started
/// without this wait measures bimodally (see `README.md`).
fn settle_lease(client: &mut impl Conn, written: &mut Vec<i64>) -> io::Result<()> {
    let deadline = Instant::now() + LEASE_DEADLINE;
    let mut writes: Vec<Duration> = Vec::new();
    let mut streak = 0;
    for seq in 1.. {
        if Instant::now() >= deadline {
            return Err(io::Error::other("leader lease never took effect"));
        }
        let key = (seq % KEYS) as u8;
        let v = put_value(WARM_CONN, seq, key);
        written.push(v);
        let t = Instant::now();
        expect_ok(
            client.call(Level::Strong, KvOp::put(key_name(key), v))?,
            "strong write",
        )?;
        writes.push(t.elapsed());
        let t = Instant::now();
        expect_ok(
            client.call(Level::Strong, KvOp::get(key_name(key)))?,
            "strong read",
        )?;
        let read = t.elapsed();
        writes.sort_unstable();
        let write_p50 = writes[writes.len() / 2];
        streak = if read * 2 < write_p50 { streak + 1 } else { 0 };
        if streak >= LEASE_STREAK {
            break;
        }
    }
    Ok(())
}

/// Weak `get`s of every key over one connection, in key order.
fn read_all(client: &mut impl Conn) -> io::Result<Vec<Value>> {
    pipeline(
        client,
        (0..KEYS as u8)
            .map(|k| (Level::Weak, KvOp::get(key_name(k))))
            .collect(),
    )
}

/// Three connections opened back to back, so sticky `conn_id mod 3`
/// routing lands one on each replica.
pub struct Readers<C>(Vec<C>);

impl<C: Conn> Readers<C> {
    pub fn open(connect: &impl Fn() -> io::Result<C>) -> io::Result<Readers<C>> {
        Ok(Readers(
            (0..3).map(|_| connect()).collect::<io::Result<_>>()?,
        ))
    }

    /// One weak read of all keys per replica.
    pub fn snapshot(&mut self) -> io::Result<Vec<Vec<Value>>> {
        self.0.iter_mut().map(read_all).collect()
    }

    /// Waits until every replica answers the same state in two reads
    /// `poll` apart, after one strong op per replica has committed.
    pub fn converge(&mut self, poll: Duration, timeout: Duration) -> io::Result<Vec<Value>> {
        for c in &mut self.0 {
            expect_ok(
                c.call(Level::Strong, KvOp::get(key_name(0)))?,
                "quiesce strong op",
            )?;
        }
        let deadline = Instant::now() + timeout;
        let mut last: Option<Vec<Value>> = None;
        loop {
            let states = self.snapshot()?;
            let agreed = states.windows(2).all(|p| p[0] == p[1]);
            if agreed && last.as_ref() == Some(&states[0]) {
                return Ok(states[0].clone());
            }
            last = agreed.then(|| states[0].clone());
            if Instant::now() >= deadline {
                return Err(io::Error::other("replicas did not converge"));
            }
            std::thread::sleep(poll);
        }
    }

    /// Waits until every replica answers exactly `expected`.
    pub fn expect(&mut self, expected: &[Value], timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.snapshot()?.iter().all(|s| s == expected) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(
                    "state after restart differs from the converged state",
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// The reply checks of a timed phase: nothing lost or `Err`, and every
/// value returned is one a put on that key wrote.
pub fn check_replies(run: &ConnRun, written: &HashSet<i64>, problems: &mut Vec<String>) {
    if run.errors > 0 || run.unanswered > 0 {
        problems.push(format!(
            "{} Err and {} unanswered replies ({})",
            run.errors,
            run.unanswered,
            run.first_error.clone().unwrap_or_default()
        ));
    }
    if let Some((k, v)) = run
        .observed
        .iter()
        .find(|(k, v)| !plausible(*k, v, written))
    {
        problems.push(format!("an op on k{k} returned {v:?}, which no put wrote"));
    }
}

/// Checks a converged state: every key holds a value some put wrote.
pub fn check_state(state: &[Value], written: &HashSet<i64>) -> Result<(), String> {
    for (k, v) in state.iter().enumerate() {
        let ok = matches!(v, Value::Int(x) if (*x & 63) as usize == k && written.contains(x));
        if !ok {
            return Err(format!("key k{k} converged to {v:?}, which no put wrote"));
        }
    }
    Ok(())
}

/// What a timed phase measured.
#[derive(Default)]
pub struct Timed {
    pub run: ConnRun,
    /// Time under load (the sum over bursts).
    pub elapsed: Duration,
    /// Per burst: end of load → all replicas agree.
    pub drains: Vec<Duration>,
}

/// The timed phase: `total` of wall-clock time — closed-loop load
/// throughout, or for a bursty workload bursts each followed by
/// quiescence, started until `total` is used (at least one).
pub fn timed_phase<C: Conn>(
    connect: &impl Fn() -> io::Result<C>,
    w: Workload,
    seed: u64,
    total: Duration,
    traced: bool,
) -> io::Result<Timed> {
    let mut load = Load::open(connect, w, seed)?;
    let Some(burst_ms) = w.burst_ms else {
        let (run, elapsed) = load.run(Stop::At(Instant::now() + total), traced)?;
        return Ok(Timed {
            run,
            elapsed,
            drains: Vec::new(),
        });
    };
    let burst = Duration::from_millis(burst_ms);
    let mut readers = Readers::open(connect)?;
    let mut timed = Timed::default();
    let deadline = Instant::now() + total;
    while timed.drains.is_empty() || Instant::now() < deadline {
        let (run, elapsed) = load.run(Stop::At(Instant::now() + burst), traced)?;
        timed.run.merge(run);
        timed.elapsed += elapsed;
        let t = Instant::now();
        readers.converge(DRAIN_POLL, DRAIN_TIMEOUT)?;
        timed.drains.push(t.elapsed());
    }
    Ok(timed)
}
