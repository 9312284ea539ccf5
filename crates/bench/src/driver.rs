//! Client driver applications: closed-loop/windowed op generators that live
//! on the (dedicated, unloaded) client machine, exactly like the paper's
//! benchmark clients. Latency is recorded inside the simulation, so
//! measurements are event-precise.

use hyperloop::{GroupAck, GroupOp, GroupTransport};
use simcore::{HealthMonitor, Latencies, MetricsRegistry, SimDuration, SimTime};
use std::collections::HashMap;
use testbed::{Env, HostApp, HostEvent};

/// Produces the `i`-th operation of a benchmark plan.
pub type OpPlan = Box<dyn FnMut(u64) -> GroupOp>;

/// A client process the run harness installs and watches
/// (`run::install`, `run::Arm::poll`): every driver here, and the sharded
/// and transaction clients of `shardscale`, `migrate` and `txnmix`.
pub(crate) trait Client: HostApp {
    /// The transports the client issues on: the first one's node places
    /// the client's process, and every one's ack CQ wakes it.
    fn transports(&self) -> Vec<&dyn GroupTransport>;
    /// True once the client's quota is met and its pipeline drained.
    fn is_done(&self) -> bool;
    /// The measured latencies (warm-up excluded).
    fn latencies(&self) -> &Latencies;
    /// Simulated time from first issue to last completion, where the
    /// client tracks it.
    fn elapsed(&self) -> Option<SimDuration> {
        None
    }
    /// Writes the client's counters for the arm's counter tracks.
    fn export_tracks(&self, _reg: &mut MetricsRegistry) {}
}

/// A generic primitive-level benchmark client over any [`GroupTransport`].
///
/// Keeps up to `window` operations in flight; records the latency of each
/// op from issue to chain ack; optionally waits `think` between completions
/// and re-issues.
pub struct PrimitiveDriver<T> {
    transport: T,
    plan: OpPlan,
    total: u64,
    window: u32,
    warmup: u64,
    issued: u64,
    completed: u64,
    /// Think time between a completion and the next issue (ZERO = closed
    /// loop). Paces the run across background-load cycles.
    pace: SimDuration,
    sent_at: HashMap<u64, SimTime>,
    /// Health monitor fed every issue/ack (including warm-up), plus the
    /// shard the feed is attributed to.
    health: Option<(HealthMonitor, u32)>,
    /// Reused completion buffer: one driver-side allocation for the whole
    /// run instead of a fresh ack vector per poll.
    ack_scratch: Vec<GroupAck>,
    /// Latencies of the completed ops, warm-up excluded.
    pub latencies: Latencies,
    /// When the first op was issued.
    pub started_at: Option<SimTime>,
    /// When the last op completed.
    pub done_at: Option<SimTime>,
}

impl<T: GroupTransport + 'static> PrimitiveDriver<T> {
    /// Creates a driver that runs `total` ops from `plan`, keeping `window`
    /// in flight and discarding the first `warmup` from statistics.
    pub fn new(transport: T, plan: OpPlan, total: u64, window: u32, warmup: u64) -> Self {
        Self::with_pace(transport, plan, total, window, warmup, SimDuration::ZERO)
    }

    /// Like [`PrimitiveDriver::new`], but waits `pace` after each completion
    /// before issuing the next op.
    pub fn with_pace(
        transport: T,
        plan: OpPlan,
        total: u64,
        window: u32,
        warmup: u64,
        pace: SimDuration,
    ) -> Self {
        PrimitiveDriver {
            transport,
            plan,
            total,
            window,
            warmup,
            issued: 0,
            completed: 0,
            pace,
            sent_at: HashMap::new(),
            health: None,
            ack_scratch: Vec::new(),
            latencies: Latencies::new(),
            started_at: None,
            done_at: None,
        }
    }

    /// Feeds every issue/ack (including warm-up) to `health`, attributed
    /// to `shard`.
    pub fn with_health(mut self, health: HealthMonitor, shard: u32) -> Self {
        self.health = Some((health, shard));
        self
    }

    /// True once every op has completed.
    pub fn is_done(&self) -> bool {
        self.completed >= self.total
    }

    fn fill_now(&mut self, env: &mut Env<'_>) {
        while self.issued < self.total
            && self.transport.can_issue()
            && self.issued - self.completed < self.window as u64
        {
            let op = (self.plan)(self.issued);
            let now = env.now();
            let gen = match env.with_fabric(|ctx| self.transport.issue(ctx, op)) {
                Ok(g) => g,
                Err(_) => break,
            };
            self.sent_at.insert(gen, now);
            if let Some((h, shard)) = &self.health {
                h.record_issue(now, *shard);
            }
            if self.started_at.is_none() {
                self.started_at = Some(now);
            }
            self.issued += 1;
        }
    }
}

impl<T: GroupTransport + 'static> HostApp for PrimitiveDriver<T> {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        match event {
            HostEvent::Start | HostEvent::Timer(_) => self.fill_now(env),
            HostEvent::CqReady(cq) => {
                debug_assert_eq!(cq, self.transport.ack_cq());
                let mut acks = std::mem::take(&mut self.ack_scratch);
                acks.clear();
                env.with_fabric(|ctx| self.transport.poll_into(ctx, &mut acks));
                let now = env.now();
                for ack in acks.drain(..) {
                    if let Some(sent) = self.sent_at.remove(&ack.gen) {
                        self.completed += 1;
                        if let Some((h, shard)) = &self.health {
                            h.record_ack(now, *shard, now.since(sent));
                        }
                        if self.completed > self.warmup {
                            self.latencies.record(now.since(sent));
                        }
                        if self.completed >= self.total {
                            self.done_at = Some(now);
                        }
                    }
                }
                self.ack_scratch = acks;
                // Paced, the next issue waits out `pace` on a timer.
                if self.pace.is_zero() {
                    self.fill_now(env);
                } else if self.issued < self.total {
                    env.set_timer(self.pace, 0);
                }
            }
            _ => {}
        }
    }
}

impl<T: GroupTransport + 'static> Client for PrimitiveDriver<T> {
    fn transports(&self) -> Vec<&dyn GroupTransport> {
        vec![&self.transport]
    }
    fn is_done(&self) -> bool {
        PrimitiveDriver::is_done(self)
    }
    fn latencies(&self) -> &Latencies {
        &self.latencies
    }
    fn elapsed(&self) -> Option<SimDuration> {
        Some(self.done_at?.since(self.started_at?))
    }
}

/// YCSB driver over the replicated KV store (the Fig. 11 RocksDB client):
/// reads hit the memtable; updates run the replicated `Append` path and are
/// the measured operations, exactly as in the paper.
pub struct KvDriver<T> {
    store: kvstore::ReplicatedKv<T>,
    gen: ycsb::Generator,
    total_writes: u64,
    warmup: u64,
    pace: SimDuration,
    checkpoint_every: u64,
    issued: u64,
    completed: u64,
    /// Health monitor fed every issue/ack (including warm-up), plus the
    /// shard the feed is attributed to.
    health: Option<(HealthMonitor, u32)>,
    /// Issue timestamps in completion (FIFO) order.
    sent_order: std::collections::VecDeque<SimTime>,
    /// A write that hit back-pressure, retried after checkpointing.
    retry: Option<(u64, Vec<u8>)>,
    /// Update latencies.
    pub latencies: Latencies,
    /// Set when all writes completed.
    pub done_at: Option<SimTime>,
}

impl<T: GroupTransport + 'static> KvDriver<T> {
    /// Creates the driver: `total_writes` measured updates (plus `warmup`).
    pub fn new(
        store: kvstore::ReplicatedKv<T>,
        gen: ycsb::Generator,
        total_writes: u64,
        warmup: u64,
        pace: SimDuration,
    ) -> Self {
        KvDriver {
            store,
            gen,
            total_writes,
            warmup,
            pace,
            checkpoint_every: 128,
            issued: 0,
            completed: 0,
            health: None,
            sent_order: std::collections::VecDeque::new(),
            retry: None,
            latencies: Latencies::new(),
            done_at: None,
        }
    }

    /// Feeds every issue/ack (including warm-up) to `health`, attributed
    /// to `shard`.
    pub fn with_health(mut self, health: HealthMonitor, shard: u32) -> Self {
        self.health = Some((health, shard));
        self
    }

    /// Attempts one put; on back-pressure, checkpoints and stashes for
    /// retry. Returns true if the put was issued.
    fn try_put(&mut self, env: &mut Env<'_>, key: u64, value: Vec<u8>) -> bool {
        let now = env.now();
        let r = env.with_fabric(|ctx| self.store.put(ctx, key, value.clone()));
        match r {
            Ok(_gen) => {
                self.sent_order.push_back(now);
                if let Some((h, shard)) = &self.health {
                    h.record_issue(now, *shard);
                }
                self.issued += 1;
                true
            }
            Err(kvstore::KvError::Busy) => {
                // Reclaim log space off the critical path and retry later.
                env.with_fabric(|ctx| {
                    self.store.checkpoint(ctx, 64);
                });
                self.retry = Some((key, value));
                false
            }
            Err(e) => panic!("kv put failed: {e}"),
        }
    }

    fn issue_one(&mut self, env: &mut Env<'_>) {
        if self.issued >= self.total_writes + self.warmup {
            return;
        }
        if let Some((key, value)) = self.retry.take() {
            self.try_put(env, key, value);
            return;
        }
        // Draw ops until a write; reads are memtable hits (not measured).
        for _ in 0..1000 {
            let op = self.gen.next_op();
            match op {
                ycsb::Operation::Read { key } => {
                    let _ = self.store.get(key);
                }
                ycsb::Operation::Scan { key, len } => {
                    let _ = self.store.scan(key, len);
                }
                ycsb::Operation::Update { key, value }
                | ycsb::Operation::Insert { key, value }
                | ycsb::Operation::ReadModifyWrite { key, value } => {
                    let key = key % self.store.config().capacity;
                    self.try_put(env, key, value);
                    return;
                }
                ycsb::Operation::Transfer { .. } => {
                    unreachable!("multi-key transfers need the txn API (see txnmix)")
                }
            }
        }
    }
}

impl<T: GroupTransport + 'static> HostApp for KvDriver<T> {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        match event {
            HostEvent::Start | HostEvent::Timer(_) => self.issue_one(env),
            HostEvent::CqReady(_) => {
                let done = env.with_fabric(|ctx| self.store.poll(ctx));
                let now = env.now();
                let finished = done.len();
                // Puts complete in issue (chain FIFO) order.
                for _ in 0..finished {
                    let sent = self.sent_order.pop_front().expect("tracked put");
                    self.completed += 1;
                    if let Some((h, shard)) = &self.health {
                        h.record_ack(now, *shard, now.since(sent));
                    }
                    if self.completed > self.warmup {
                        self.latencies.record(now.since(sent));
                    }
                    if self.is_done() {
                        self.done_at = Some(now);
                    }
                }
                if finished > 0 && self.completed.is_multiple_of(self.checkpoint_every) {
                    env.with_fabric(|ctx| {
                        self.store.checkpoint(ctx, 64);
                    });
                }
                if !self.is_done() && self.sent_order.is_empty() {
                    if self.pace.is_zero() || finished == 0 {
                        // Closed loop, or resources freed by checkpoint acks.
                        self.issue_one(env);
                    } else {
                        env.set_timer(self.pace, 0);
                    }
                }
            }
            _ => {}
        }
    }
}

impl<T: GroupTransport + 'static> Client for KvDriver<T> {
    fn transports(&self) -> Vec<&dyn GroupTransport> {
        vec![&self.store.transport]
    }
    fn is_done(&self) -> bool {
        self.completed >= self.total_writes + self.warmup
    }
    fn latencies(&self) -> &Latencies {
        &self.latencies
    }
}

/// YCSB driver over the replicated document store (Figs. 2 and 12): every
/// operation pays the client software-stack cost; writes additionally run
/// the lock + journal + execute pipeline and are measured end-to-end.
pub struct DocDriver<T> {
    store: docstore::ReplicatedDocStore<T>,
    gen: ycsb::Generator,
    total_ops: u64,
    warmup: u64,
    /// Fixed client software-stack cost added to every operation (query
    /// parsing/validation — the paper's "overhead inherent to MongoDB's
    /// software stack in the client").
    stack_cost: SimDuration,
    /// Extra cost per scanned document.
    scan_per_doc: SimDuration,
    pace: SimDuration,
    /// Maximum writes kept in flight (YCSB client threads).
    concurrency: u64,
    /// Health monitor fed every write issue/ack, plus the shard the feed
    /// is attributed to.
    health: Option<(HealthMonitor, u32)>,
    ops_done: u64,
    writes_in_flight: u64,
    /// A write drawn while another was in flight, issued on completion.
    pending_write: Option<docstore::Document>,
    /// All-operation latencies (reads, scans and writes).
    pub latencies: Latencies,
    /// Set when the op quota is met and the pipeline drained.
    pub done_at: Option<SimTime>,
}

impl<T: GroupTransport + 'static> DocDriver<T> {
    /// Creates the driver for `total_ops` YCSB operations.
    pub fn new(
        store: docstore::ReplicatedDocStore<T>,
        gen: ycsb::Generator,
        total_ops: u64,
        warmup: u64,
        stack_cost: SimDuration,
        pace: SimDuration,
    ) -> Self {
        DocDriver {
            store,
            gen,
            total_ops,
            warmup,
            stack_cost,
            scan_per_doc: SimDuration::from_micros(2),
            pace,
            concurrency: 1,
            health: None,
            ops_done: 0,
            writes_in_flight: 0,
            pending_write: None,
            latencies: Latencies::new(),
            done_at: None,
        }
    }

    /// Keeps up to `n` writes in flight (models `n` YCSB client threads
    /// sharing one front end).
    pub fn with_concurrency(mut self, n: u64) -> Self {
        self.concurrency = n.max(1);
        self
    }

    /// Feeds every write issue/ack (including warm-up) to `health`,
    /// attributed to `shard`.
    pub fn with_health(mut self, health: HealthMonitor, shard: u32) -> Self {
        self.health = Some((health, shard));
        self
    }

    fn record(&mut self, lat: SimDuration) {
        self.ops_done += 1;
        if self.ops_done > self.warmup {
            self.latencies.record(lat);
        }
    }

    fn issue_write(&mut self, env: &mut Env<'_>, doc: docstore::Document) -> bool {
        let now = env.now();
        let r = env.with_fabric(|ctx| self.store.write(ctx, doc.clone()));
        match r {
            Ok(_) => {
                self.writes_in_flight += 1;
                if let Some((h, shard)) = &self.health {
                    h.record_issue(now, *shard);
                }
                true
            }
            Err(docstore::DocError::Busy) => {
                self.pending_write = Some(doc);
                false
            }
            Err(e) => panic!("doc write failed: {e}"),
        }
    }

    fn step(&mut self, env: &mut Env<'_>) {
        // A stashed write goes first.
        if self.writes_in_flight < self.concurrency {
            if let Some(doc) = self.pending_write.take() {
                if !self.issue_write(env, doc) {
                    return;
                }
            }
        }
        while self.ops_done + self.writes_in_flight < self.total_ops
            && self.writes_in_flight < self.concurrency
            && self.pending_write.is_none()
        {
            let op = self.gen.next_op();
            match op {
                ycsb::Operation::Read { key } => {
                    let _ = self.store.read(key % self.store.config().capacity);
                    self.record(self.stack_cost);
                }
                ycsb::Operation::Scan { key, len } => {
                    let _ = self.store.scan(key % self.store.config().capacity, len);
                    self.record(self.stack_cost + self.scan_per_doc * len);
                }
                ycsb::Operation::Update { key, value }
                | ycsb::Operation::Insert { key, value }
                | ycsb::Operation::ReadModifyWrite { key, value } => {
                    let id = key % self.store.config().capacity;
                    let doc = docstore::Document::with_field(id, "field0", value);
                    if !self.issue_write(env, doc) {
                        return; // back-pressure: resume on completion
                    }
                    if self.writes_in_flight >= self.concurrency {
                        return;
                    }
                    continue;
                }
                ycsb::Operation::Transfer { .. } => {
                    unreachable!("multi-key transfers need the txn API (see txnmix)")
                }
            }
            if !self.pace.is_zero() {
                env.set_timer(self.pace, 0);
                return;
            }
        }
        if self.is_done() && self.done_at.is_none() {
            self.done_at = Some(env.now());
        }
    }
}

impl<T: GroupTransport + 'static> HostApp for DocDriver<T> {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        match event {
            HostEvent::Start | HostEvent::Timer(_) => self.step(env),
            HostEvent::CqReady(_) => {
                let done = env.with_fabric(|ctx| self.store.poll(ctx));
                let completions = done.len();
                let now = env.now();
                for tx in done {
                    self.writes_in_flight = self.writes_in_flight.saturating_sub(1);
                    let lat = tx.finished.since(tx.started) + self.stack_cost;
                    if let Some((h, shard)) = &self.health {
                        h.record_ack(now, *shard, lat);
                    }
                    self.ops_done += 1;
                    if self.ops_done > self.warmup {
                        self.latencies.record(lat);
                    }
                }
                if self.is_done() {
                    if self.done_at.is_none() {
                        self.done_at = Some(env.now());
                    }
                } else if completions > 0 {
                    // Native mode: apply the journal backlog off the
                    // critical path (no-op for the full pipeline).
                    env.with_fabric(|ctx| {
                        self.store.apply_backlog(ctx, 16);
                    });
                    // Re-arm only on real completions; intermediate phase
                    // acks must not accelerate the op stream.
                    if self.pace.is_zero() {
                        self.step(env);
                    } else {
                        env.set_timer(self.pace, 0);
                    }
                }
            }
            _ => {}
        }
    }
}

impl<T: GroupTransport + 'static> Client for DocDriver<T> {
    fn transports(&self) -> Vec<&dyn GroupTransport> {
        vec![&self.store.transport]
    }
    fn is_done(&self) -> bool {
        self.ops_done >= self.total_ops && self.writes_in_flight == 0
    }
    fn latencies(&self) -> &Latencies {
        &self.latencies
    }
}
