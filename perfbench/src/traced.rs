//! The traced run: the same workload split into per-layer stages.
//!
//! Three legs, each a third of the run's seconds, on fresh data dirs:
//!
//! 1. **untraced TCP leg** — an in-process `Server::start` with the
//!    configuration `bayou-server` builds from its flags, driven by the
//!    closed loop; its ok/s is the reference for the tracing overhead;
//! 2. **traced TCP leg** — the same, with client-side spans around
//!    `Client::send`/`recv`, per-class latency, and the server's shed
//!    count;
//! 3. **cluster leg** — `LiveCluster<Traced<KvHost>>` over
//!    `TracedStorage`, fed the same ops directly with the server's
//!    routing (`conn mod 3`, strong reads to the leaseholder when a
//!    lease is armed), so the TCP leg's latency splits into front end,
//!    inbox wait, replica residence and output wait.

use crate::child::TempDir;
use crate::e2e::Outcome;
use crate::load::{Class, Conn, ConnRun, Gen, Workload, CLASSES, CONNS, REPLY_TIMEOUT};
use crate::probe::{StorageProbe, Traced, TracedStorage, Window, HANDLERS};
use crate::session::{
    check_replies, check_state, connect, timed_phase, warm_up, Readers, DRAIN_POLL, SETTLE_POLL,
};
use crate::stats::{median_f64, quantile, Metrics};
use bayou_broadcast::PaxosConfig;
use bayou_core::{recover_grouped_paxos, Invocation, ProtocolMode};
use bayou_data::{DeltaState, KvOp, KvStore};
use bayou_net::{LiveCluster, LiveConfig};
use bayou_server::protocol::{encode_frame, encode_ok_response};
use bayou_server::{KvHost, Reply, Request, RequestView, Server, ServerConfig};
use bayou_storage::FileStorage;
use bayou_types::{GroupId, LeaseConfig, Level, ReplicaId, Value, WireView};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

fn lease(w: Workload) -> Option<LeaseConfig> {
    // what `bayou-server --lease MS` arms
    w.lease_ms
        .map(|ms| LeaseConfig::new(ms * 1000, (ms * 1000 / 10).max(1)))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p(samples: &mut [u64], q: f64) -> f64 {
    quantile(samples, q).map_or(0.0, us)
}

struct TcpLeg {
    run: ConnRun,
    elapsed: Duration,
    shed: u64,
}

/// An in-process server on a fresh dir: warm-up, timed closed loop,
/// convergence, then `Server::stop` and a check that every replica
/// holds the same state.
fn tcp_leg(
    work: &Path,
    w: Workload,
    seed: u64,
    leg: Duration,
    traced: bool,
    problems: &mut Vec<String>,
) -> io::Result<TcpLeg> {
    let dir = TempDir::new(work, "tcp")?;
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        data_dir: Some(dir.0.clone()),
        lease: lease(w),
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let conn = || connect(&addr);
    let mut written: HashSet<i64> = warm_up(&conn, w, seed)?.0.into_iter().collect();
    let timed = timed_phase(&conn, w, seed, leg, traced)?;
    written.extend(timed.run.written.iter().copied());
    check_replies(&timed.run, &written, problems);
    let converged = Readers::open(&conn)?.converge(SETTLE_POLL, CONVERGE_TIMEOUT)?;
    if let Err(e) = check_state(&converged, &written) {
        problems.push(e);
    }
    let shed = server.shed_count();
    let hosts = server.stop();
    let states: Vec<_> = hosts
        .iter()
        .map(|h| h.group(GroupId::new(0)).materialize())
        .collect();
    if states.windows(2).any(|s| s[0] != s[1]) {
        problems.push("replica states differ after Server::stop".into());
    }
    Ok(TcpLeg {
        run: timed.run,
        elapsed: timed.elapsed,
        shed,
    })
}

/// One op as the cluster leg's feeder saw it.
struct InvokeSpan {
    tag: u64,
    class: Class,
    start: u64,
    end: u64,
}

/// Feeds a `LiveCluster` directly, like the server's reader threads and
/// dispatcher do, minus the sockets.
struct Feed {
    cluster: LiveCluster<Traced<KvHost>>,
    window: Arc<Window>,
    lease_on: bool,
    next_conn: AtomicU64,
    routes: Mutex<HashMap<u64, mpsc::Sender<(u64, Value)>>>,
    invokes: Mutex<Vec<InvokeSpan>>,
    /// `(tag, ns)` when the dispatcher took the response off the
    /// cluster's output channel.
    recvs: Mutex<Vec<(u64, u64)>>,
    stop: AtomicBool,
}

impl Feed {
    fn connect(&self) -> FeedConn<'_> {
        let id = self.next_conn.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        self.routes.lock().expect("routes lock").insert(id, tx);
        FeedConn {
            feed: self,
            id,
            seq: 0,
            rx,
            invokes: Vec::new(),
        }
    }

    /// The server's dispatcher loop: route each response to its
    /// connection by tag.
    fn dispatch(&self) {
        let mut recvs = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let Some((_, (_, resp))) = self.cluster.recv_output(Duration::from_millis(20)) else {
                continue;
            };
            let at = self.window.now();
            let Some(tag) = resp.tag else { continue };
            recvs.push((tag, at));
            if let Some(tx) = self.routes.lock().expect("routes lock").get(&(tag >> 32)) {
                let _ = tx.send((tag, resp.value));
            }
        }
        self.recvs.lock().expect("recvs lock").extend(recvs);
    }
}

struct FeedConn<'a> {
    feed: &'a Feed,
    id: u64,
    seq: u64,
    rx: mpsc::Receiver<(u64, Value)>,
    invokes: Vec<InvokeSpan>,
}

impl Conn for FeedConn<'_> {
    fn send(&mut self, level: Level, op: KvOp) -> io::Result<u64> {
        self.seq += 1;
        let tag = (self.id << 32) | self.seq;
        let read = matches!(op, KvOp::Get(_));
        let class = match (level, read) {
            (Level::Weak, _) => Class::Weak,
            (Level::Strong, true) => Class::StrongRead,
            (Level::Strong, false) => Class::StrongWrite,
        };
        // the server's routing: sticky by connection, strong reads to
        // the presumed leaseholder (lowest replica) when leases are on
        let replica = if self.feed.lease_on && class == Class::StrongRead {
            0
        } else {
            self.id as usize % REPLICAS
        };
        let inv = Invocation::new(op, level).with_tag(tag);
        let start = self.feed.window.now();
        self.feed
            .cluster
            .invoke(ReplicaId::new(replica as u32), (GroupId::new(0), inv));
        let end = self.feed.window.now();
        self.invokes.push(InvokeSpan {
            tag,
            class,
            start,
            end,
        });
        Ok(tag)
    }

    fn recv(&mut self) -> io::Result<(u64, Reply)> {
        match self.rx.recv_timeout(REPLY_TIMEOUT) {
            Ok((tag, v)) => Ok((tag, Reply::Ok(v))),
            Err(_) => Err(io::Error::new(io::ErrorKind::TimedOut, "no reply")),
        }
    }
}

impl Drop for FeedConn<'_> {
    fn drop(&mut self) {
        // no panic in drop: a poisoned lock just loses this conn's spans
        if let Ok(mut routes) = self.feed.routes.lock() {
            routes.remove(&self.id);
        }
        if let Ok(mut invokes) = self.feed.invokes.lock() {
            invokes.extend(std::mem::take(&mut self.invokes));
        }
    }
}

/// One timed op of the cluster leg, joined across the feeder, the
/// serving replica's wrapper and the dispatcher.
struct OpSpan {
    class: Class,
    /// Time blocked in `LiveCluster::invoke`.
    invoke_block: u64,
    /// `invoke` → `on_input` of the op's tag.
    inbox: u64,
    /// `on_input` → its response drained.
    residence: u64,
    /// Duration of the `on_input` step itself.
    input_step: u64,
    /// fsync time at the serving replica during the residence.
    fsync: u64,
    /// Drained → taken off the output channel by the dispatcher.
    output: u64,
}

impl OpSpan {
    /// `invoke` → dispatcher: the sum of the stages.
    fn cluster(&self) -> u64 {
        self.inbox + self.residence + self.output
    }
}

struct ClusterLeg {
    run: ConnRun,
    /// Median time from the end of load (each burst, or the whole timed
    /// phase) until all replicas agree.
    drain_s: f64,
    ops: Vec<OpSpan>,
    hosts: Vec<Traced<KvHost>>,
    probes: Vec<Arc<StorageProbe>>,
    window_ns: u64,
    recover_s: f64,
}

fn cluster_leg(
    work: &Path,
    w: Workload,
    seed: u64,
    leg: Duration,
    problems: &mut Vec<String>,
) -> io::Result<ClusterLeg> {
    let dir = TempDir::new(work, "cluster")?;
    let window = Window::new();
    let probes: Vec<Arc<StorageProbe>> = (0..REPLICAS).map(|_| Arc::default()).collect();
    let store = ServerConfig::default().store;
    let lease = lease(w);
    let cluster = {
        let (root, probes, window) = (dir.0.clone(), probes.clone(), Arc::clone(&window));
        LiveCluster::new(
            LiveConfig {
                n: REPLICAS,
                seed: 0,
                delay: Duration::ZERO,
                channel_capacity: 4096,
            },
            move |id, n| {
                let files = FileStorage::open(root.join(format!("replica-{}", id.index())))
                    .expect("open replica data dir");
                let probe = Arc::clone(&probes[id.index()]);
                let backend = TracedStorage::new(files, Arc::clone(&probe), Arc::clone(&window));
                let mut host = recover_grouped_paxos::<KvStore, DeltaState<KvStore>, _>(
                    id,
                    n,
                    1,
                    ProtocolMode::Improved,
                    PaxosConfig::default(),
                    backend,
                    store,
                );
                host.set_lease(lease);
                host.meter_wire_bytes();
                Traced::new(host, Arc::clone(&window), probe)
            },
        )
    };
    let feed = Feed {
        cluster,
        window: Arc::clone(&window),
        lease_on: lease.is_some(),
        next_conn: AtomicU64::new(0),
        routes: Mutex::new(HashMap::new()),
        invokes: Mutex::new(Vec::new()),
        recvs: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    };
    let mut load_conns = 0..0;
    let timed = std::thread::scope(|s| {
        s.spawn(|| feed.dispatch());
        let result = (|| {
            let conn = || Ok(feed.connect());
            let mut written: HashSet<i64> = warm_up(&conn, w, seed)?.0.into_iter().collect();
            // the timed phase opens its load connections first; the
            // quiescence readers after them are not workload ops
            let first = feed.next_conn.load(Ordering::SeqCst);
            load_conns = first..first + CONNS as u64;
            window.open();
            let mut timed = timed_phase(&conn, w, seed, leg, false)?;
            window.close();
            written.extend(timed.run.written.iter().copied());
            check_replies(&timed.run, &written, problems);
            let t = Instant::now();
            let converged = Readers::open(&conn)?.converge(DRAIN_POLL, CONVERGE_TIMEOUT)?;
            if timed.drains.is_empty() {
                timed.drains.push(t.elapsed());
            }
            if let Err(e) = check_state(&converged, &written) {
                problems.push(e);
            }
            Ok::<_, io::Error>(timed)
        })();
        feed.stop.store(true, Ordering::SeqCst);
        result
    })?;
    let Feed {
        cluster,
        invokes,
        recvs,
        ..
    } = feed;
    let hosts = cluster.shutdown();

    // join the spans of every workload op invoked inside the window
    let mut inputs = HashMap::new();
    let mut drains = HashMap::new();
    for h in &hosts {
        inputs.extend(h.spans.inputs.iter().map(|i| (i.tag, i)));
        drains.extend(h.spans.drains.iter().map(|d| (d.tag, d)));
    }
    let recvs: HashMap<u64, u64> = recvs
        .into_inner()
        .expect("recvs lock")
        .into_iter()
        .collect();
    let invokes = invokes.into_inner().expect("invokes lock");
    let timed_ops: Vec<&InvokeSpan> = invokes
        .iter()
        .filter(|s| window.contains(s.start) && load_conns.contains(&(s.tag >> 32)))
        .collect();
    let ops: Vec<OpSpan> = timed_ops
        .iter()
        .filter_map(|s| {
            let (i, d, r) = (inputs.get(&s.tag)?, drains.get(&s.tag)?, recvs.get(&s.tag)?);
            Some(OpSpan {
                class: s.class,
                invoke_block: s.end - s.start,
                inbox: i.start.saturating_sub(s.start),
                residence: d.at.saturating_sub(i.start),
                input_step: i.step,
                fsync: d.sync_ns.saturating_sub(i.sync_ns),
                output: r.saturating_sub(d.at),
            })
        })
        .collect();
    if ops.len() != timed_ops.len() {
        problems.push(format!(
            "{} of {} cluster-leg ops are missing a span",
            timed_ops.len() - ops.len(),
            timed_ops.len()
        ));
    }

    // recovery of each replica's store from the leg's data dir
    let recoveries: Vec<f64> = ReplicaId::all(REPLICAS)
        .map(|id| {
            let files = FileStorage::open(dir.0.join(format!("replica-{}", id.index())))
                .expect("open replica data dir");
            let t = Instant::now();
            let host = recover_grouped_paxos::<KvStore, DeltaState<KvStore>, _>(
                id,
                REPLICAS,
                1,
                ProtocolMode::Improved,
                PaxosConfig::default(),
                files,
                store,
            );
            let secs = t.elapsed().as_secs_f64();
            drop(host);
            secs
        })
        .collect();
    let drains: Vec<f64> = timed.drains.iter().map(Duration::as_secs_f64).collect();
    Ok(ClusterLeg {
        run: timed.run,
        drain_s: median_f64(&drains),
        ops,
        hosts,
        probes,
        window_ns: window.len_ns(),
        recover_s: median_f64(&recoveries),
    })
}

/// Mean nanoseconds per call of the server's request decode and `Ok`
/// encode, over the workload's own ops and the values the leg returned.
fn codec_ns(w: Workload, seed: u64, observed: &[(u8, Value)]) -> (f64, f64) {
    let mut gen = Gen::new(w, seed, 0);
    let frames: Vec<Vec<u8>> = (0..4096u64)
        .map(|tag| {
            let g = gen.next_op();
            let mut f = Vec::new();
            encode_frame(
                &mut f,
                &Request::Op {
                    tag,
                    level: g.level,
                    op: g.op,
                },
            );
            f
        })
        .collect();
    let values: Vec<&Value> = observed.iter().map(|(_, v)| v).take(4096).collect();
    let (mut dec, mut enc) = (Vec::new(), Vec::new());
    let mut out = Vec::with_capacity(64);
    for _ in 0..9 {
        let t = Instant::now();
        for f in &frames {
            black_box(RequestView::view_from_bytes(black_box(&f[4..])).expect("decode"));
        }
        dec.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
        let t = Instant::now();
        for (tag, v) in values.iter().enumerate() {
            out.clear();
            encode_ok_response(&mut out, tag as u64, black_box(v));
            black_box(&out);
        }
        enc.push(t.elapsed().as_nanos() as f64 / values.len().max(1) as f64);
    }
    (median_f64(&dec), median_f64(&enc))
}

/// Per-class p50s of the stage table, in microseconds.
#[derive(Default, Clone, Copy)]
struct Stages {
    n: usize,
    tcp: f64,
    cluster: f64,
    inbox: f64,
    residence: f64,
    after_input: f64,
    fsync: f64,
    output: f64,
}

impl Stages {
    fn front_end(&self) -> f64 {
        self.tcp - self.cluster
    }

    fn residual(&self) -> f64 {
        self.cluster - (self.inbox + self.residence + self.output)
    }
}

pub fn run(work: &Path, w: Workload, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let leg = Duration::from_secs_f64((seconds as f64 / 3.0).max(1.0));
    let mut problems = Vec::new();
    let plain = tcp_leg(work, w, seed, leg, false, &mut problems)?;
    let mut tcp = tcp_leg(work, w, seed, leg, true, &mut problems)?;
    let cl = cluster_leg(work, w, seed, leg, &mut problems)?;
    let (decode_ns, encode_ns) = codec_ns(w, seed, &tcp.run.observed);

    let plain_ok_s = plain.run.oks as f64 / plain.elapsed.as_secs_f64();
    let tcp_ok_s = tcp.run.oks as f64 / tcp.elapsed.as_secs_f64();
    let overhead = 1.0 - tcp_ok_s / plain_ok_s;
    let busy_frac = tcp.shed as f64 / tcp.run.sent.max(1) as f64;
    if tcp.shed > 0 {
        problems.push(format!("the server shed {} ops at 32 in flight", tcp.shed));
    }

    // per-class stage p50s
    let mut stages = [Stages::default(); 3];
    let mut commit_wait: Vec<u64> = Vec::new();
    let mut inbox_all: Vec<u64> = Vec::new();
    let mut output_all: Vec<u64> = Vec::new();
    let mut respond: [Vec<u64>; 3] = Default::default();
    for class in CLASSES {
        let mine: Vec<&OpSpan> = cl.ops.iter().filter(|o| o.class == class).collect();
        let get = |f: fn(&OpSpan) -> u64| -> Vec<u64> { mine.iter().map(|o| f(o)).collect() };
        let mut residence = get(|o| o.residence);
        let mut after = get(|o| o.residence.saturating_sub(o.input_step));
        let (mut inbox, mut output) = (get(|o| o.inbox), get(|o| o.output));
        inbox_all.extend(&inbox);
        output_all.extend(&output);
        if class == Class::StrongWrite {
            commit_wait.extend(&after);
        }
        stages[class.index()] = Stages {
            n: mine.len(),
            tcp: p(&mut tcp.run.latency[class.index()], 0.5),
            cluster: p(&mut get(OpSpan::cluster), 0.5),
            inbox: p(&mut inbox, 0.5),
            residence: p(&mut residence, 0.5),
            after_input: p(&mut after, 0.5),
            fsync: p(&mut get(|o| o.fsync), 0.5),
            output: p(&mut output, 0.5),
        };
        respond[class.index()] = residence;
    }

    let ops = cl.ops.len().max(1) as f64;
    let hosts = &cl.hosts;
    let delta = |f: &dyn Fn(&bayou_core::ReplicaStats) -> u64| -> f64 {
        hosts
            .iter()
            .map(|h| match (h.spans.stats_first, h.spans.stats_last) {
                (Some(a), Some(b)) => f(&b).saturating_sub(f(&a)),
                _ => 0,
            })
            .sum::<u64>() as f64
    };
    let strong_reads = cl
        .ops
        .iter()
        .filter(|o| o.class == Class::StrongRead)
        .count();
    let mut steps: [Vec<u64>; 4] = Default::default();
    for h in hosts {
        for (k, s) in h.spans.steps.iter().enumerate() {
            steps[k].extend(s);
        }
    }
    let total_steps: usize = steps.iter().map(Vec::len).sum();
    let busy_max = hosts
        .iter()
        .map(|h| h.spans.busy_ns as f64 / cl.window_ns.max(1) as f64)
        .fold(0.0, f64::max);
    let mut depth: Vec<u64> = hosts
        .iter()
        .flat_map(|h| h.spans.spec_depth.iter().copied())
        .collect();
    let sum =
        |f: &dyn Fn(&Traced<KvHost>) -> u64| -> f64 { hosts.iter().map(f).sum::<u64>() as f64 };
    let probe_sum = |f: &dyn Fn(&StorageProbe) -> u64| -> f64 {
        cl.probes.iter().map(|p| f(p)).sum::<u64>() as f64
    };
    let mut sync_samples: Vec<u64> = cl
        .probes
        .iter()
        .flat_map(|p| p.sync_samples.lock().expect("sync samples lock").clone())
        .collect();
    let invoke_block_us = cl.ops.iter().map(|o| us(o.invoke_block)).sum::<f64>() / ops;

    let mut m = Metrics::default();
    for class in CLASSES {
        let s = stages[class.index()];
        m.push(
            format!("server.frontend_us_p50.{}", class.name()),
            s.front_end(),
            "us",
        );
    }
    m.push("server.decode_ns", decode_ns, "ns");
    m.push("server.encode_ns", encode_ns, "ns");
    m.push("server.busy_frac", busy_frac, "ratio");
    m.push(
        "server.client_send_us_p50",
        p(&mut tcp.run.send_ns, 0.5),
        "us",
    );
    m.push(
        "server.client_recv_us_p50",
        p(&mut tcp.run.recv_ns, 0.5),
        "us",
    );
    m.push("net.invoke_block_us", invoke_block_us, "us");
    m.push("net.inbox_wait_us_p50", p(&mut inbox_all, 0.5), "us");
    m.push("net.inbox_wait_us_p99", p(&mut inbox_all, 0.99), "us");
    m.push("net.output_wait_us_p50", p(&mut output_all, 0.5), "us");
    for (h, name) in HANDLERS {
        m.push(
            format!("core.step_us_p50.{name}"),
            p(&mut steps[h as usize], 0.5),
            "us",
        );
        m.push(
            format!("core.step_us_p99.{name}"),
            p(&mut steps[h as usize], 0.99),
            "us",
        );
    }
    m.push("core.steps_per_op", total_steps as f64 / ops, "count");
    m.push("core.busy_frac_max", busy_max, "ratio");
    for class in CLASSES {
        let r = &mut respond[class.index()];
        m.push(
            format!("core.respond_us_p50.{}", class.name()),
            p(r, 0.5),
            "us",
        );
        m.push(
            format!("core.respond_us_p99.{}", class.name()),
            p(r, 0.99),
            "us",
        );
    }
    m.push(
        "core.spec_depth_p50",
        quantile(&mut depth, 0.5).unwrap_or(0) as f64,
        "count",
    );
    m.push(
        "core.spec_depth_max",
        depth.iter().copied().max().unwrap_or(0) as f64,
        "count",
    );
    m.push(
        "core.lease_served_frac",
        delta(&|s| s.lease_reads) / strong_reads.max(1) as f64,
        "ratio",
    );
    let replicas = REPLICAS as f64;
    m.push(
        "data.executes_per_op",
        delta(&|s| s.executions) / ops / replicas,
        "count",
    );
    m.push(
        "data.rollbacks_per_op",
        delta(&|s| s.rollbacks) / ops / replicas,
        "count",
    );
    m.push(
        "broadcast.msgs_per_op",
        sum(&|h| h.spans.sends) / ops,
        "count",
    );
    m.push(
        "broadcast.wire_bytes_per_op",
        sum(&|h| h.spans.wire_bytes) / ops,
        "bytes",
    );
    m.push(
        "broadcast.tob_deliveries_per_op",
        delta(&|s| s.tob_deliveries) / ops / replicas,
        "count",
    );
    m.push(
        "broadcast.commit_wait_us_p50",
        p(&mut commit_wait, 0.5),
        "us",
    );
    m.push(
        "broadcast.commit_wait_us_p99",
        p(&mut commit_wait, 0.99),
        "us",
    );
    m.push("broadcast.drain_ms", cl.drain_s * 1e3, "ms");
    m.push(
        "storage.syncs_per_op",
        probe_sum(&|p| p.syncs.load(Ordering::SeqCst)) / ops,
        "count",
    );
    m.push("storage.sync_us_p50", p(&mut sync_samples, 0.5), "us");
    m.push("storage.sync_us_p99", p(&mut sync_samples, 0.99), "us");
    m.push(
        "storage.sync_busy_frac",
        probe_sum(&|p| p.sync_ns.load(Ordering::SeqCst)) / (replicas * cl.window_ns.max(1) as f64),
        "ratio",
    );
    m.push(
        "storage.append_bytes_per_op",
        probe_sum(&|p| p.append_bytes.load(Ordering::SeqCst)) / ops,
        "bytes",
    );
    m.push("storage.recover_s", cl.recover_s, "s");
    let mut all: Vec<u64> = tcp.run.latency.iter().flatten().copied().collect();
    m.push("p99_ms", p(&mut all, 0.99) / 1e3, "ms");
    for class in CLASSES {
        let s = &mut tcp.run.latency[class.index()];
        m.push(format!("{}_p50_ms", class.name()), p(s, 0.5) / 1e3, "ms");
        m.push(format!("{}_p99_ms", class.name()), p(s, 0.99) / 1e3, "ms");
    }
    for class in CLASSES {
        m.push(
            format!("trace.residual_us.{}", class.name()),
            stages[class.index()].residual(),
            "us",
        );
    }
    m.push("trace.overhead_frac", overhead, "ratio");

    // human-readable report
    println!(
        "traced run: workload {} (seed {seed}, three legs of {:.1} s)",
        w.name,
        leg.as_secs_f64()
    );
    println!("stage table, p50 in us (classes the workload issues):");
    print!("  {:<44}", "stage");
    let issued: Vec<Class> = CLASSES.into_iter().filter(|c| w.issues(*c)).collect();
    for c in &issued {
        print!("{:>14}", c.name());
    }
    println!();
    type Row = (&'static str, fn(&Stages) -> f64);
    let rows: [Row; 9] = [
        ("end to end, TCP leg", |s| s.tcp),
        ("  front end (TCP leg - cluster leg)", Stages::front_end),
        ("  inbox wait (invoke -> on_input)", |s| s.inbox),
        ("  replica residence (on_input -> drained)", |s| s.residence),
        ("    of which after the input step (TOB wait)", |s| {
            s.after_input
        }),
        ("    of which fsync at the serving replica", |s| s.fsync),
        ("  output wait (drained -> dispatcher)", |s| s.output),
        ("  residual (cluster leg - stage sum)", Stages::residual),
        ("  residual, % of end to end", |s| {
            100.0 * s.residual() / s.tcp
        }),
    ];
    for (label, f) in rows {
        print!("  {label:<44}");
        for c in &issued {
            print!("{:>14.1}", f(&stages[c.index()]));
        }
        println!();
    }
    print!("  {:<44}", "samples (cluster leg)");
    for c in &issued {
        print!("{:>14}", stages[c.index()].n);
    }
    println!();
    println!(
        "tracing overhead: traced TCP leg {tcp_ok_s:.1} ok/s vs untraced {plain_ok_s:.1} ok/s ({:+.2} %)",
        -100.0 * overhead
    );
    println!(
        "self-check: server.busy_frac = {busy_frac} ({} shed of {} sent; must be 0)",
        tcp.shed, tcp.run.sent
    );
    println!("per-layer metrics:");
    for metric in &m.0 {
        println!(
            "  {:<40} {:>14.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for p in &problems {
        println!("  CORRECTNESS FAILURE: {p}");
    }

    let legs = [&plain.run, &tcp.run, &cl.run];
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: legs.iter().map(|r| r.sent).sum(),
        failed: legs.iter().map(|r| r.failed()).sum(),
        metrics: m,
    })
}
