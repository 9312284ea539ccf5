//! # netsim — the data-center fabric under the RDMA NICs
//!
//! A deliberately simple model matching what the HyperLoop evaluation needs:
//! every pair of nodes is connected through a lossless fabric
//! (InfiniBand-like, 56 Gbps in the paper's testbed) with
//!
//! * fixed propagation delay (switching + cabling),
//! * transmission delay proportional to message size,
//! * small multiplicative jitter, and
//! * **in-order delivery per directed node pair** — RDMA reliable
//!   connections (RC queue pairs) require this, and the WAIT-chaining trick
//!   at the heart of HyperLoop depends on it.
//!
//! ```
//! use netsim::{Network, FabricConfig, NodeId};
//! use simcore::{SimRng, SimTime};
//!
//! let mut net = Network::new(4, FabricConfig::default());
//! let mut rng = SimRng::new(7);
//! let t0 = SimTime::ZERO;
//! let a = net.deliver_at(NodeId(0), NodeId(1), 1024, t0, &mut rng);
//! let b = net.deliver_at(NodeId(0), NodeId(1), 64, t0, &mut rng);
//! assert!(b >= a, "same-pair messages stay ordered");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simcore::simtrace::{TraceKind, NO_OP};
use simcore::{MetricsRegistry, SimDuration, SimRng, SimTime, Tracer};
use std::fmt;

/// Identifies a machine on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Fabric-wide timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Link bandwidth in bits per second (56 Gbps ConnectX-3 by default).
    pub bandwidth_bps: u64,
    /// One-way propagation + switching delay.
    pub propagation: SimDuration,
    /// Multiplicative jitter: each delay is scaled by `1 + U(0, jitter)`.
    pub jitter: f64,
    /// Per-message fixed overhead (headers, framing).
    pub per_message_overhead: SimDuration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            bandwidth_bps: 56_000_000_000,
            propagation: SimDuration::from_nanos(900),
            jitter: 0.05,
            per_message_overhead: SimDuration::from_nanos(100),
        }
    }
}

impl FabricConfig {
    /// Time to serialize `bytes` onto the wire at the configured bandwidth.
    pub fn transmission(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes * 8 * 1_000_000_000 / self.bandwidth_bps)
    }

    /// Base one-way latency for a message of `bytes` (before jitter).
    pub fn base_latency(&self, bytes: u64) -> SimDuration {
        self.propagation + self.per_message_overhead + self.transmission(bytes)
    }
}

/// Per-directed-pair traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages carried.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

/// The fabric: computes delivery times and enforces per-pair FIFO order.
#[derive(Debug)]
pub struct Network {
    nodes: u32,
    config: FabricConfig,
    /// When each node's egress port finishes its current transmission.
    egress_free: Vec<SimTime>,
    /// When each node's ingress port finishes its current reception.
    ingress_free: Vec<SimTime>,
    /// Latest delivery time so far on each directed pair (FIFO clamp),
    /// indexed by [`Network::pair`].
    channel_clock: Vec<SimTime>,
    /// Traffic per directed pair, indexed by [`Network::pair`].
    stats: Vec<LinkStats>,
    tracer: Tracer,
}

impl Network {
    /// A fabric connecting `nodes` machines.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: u32, config: FabricConfig) -> Self {
        assert!(nodes > 0, "network must have at least one node");
        let pairs = nodes as usize * nodes as usize;
        Network {
            nodes,
            config,
            egress_free: vec![SimTime::ZERO; nodes as usize],
            ingress_free: vec![SimTime::ZERO; nodes as usize],
            channel_clock: vec![SimTime::ZERO; pairs],
            stats: vec![LinkStats::default(); pairs],
            tracer: Tracer::disabled(),
        }
    }

    /// Index of the directed pair `src -> dst` in the per-pair tables.
    fn pair(&self, src: NodeId, dst: NodeId) -> usize {
        src.0 as usize * self.nodes as usize + dst.0 as usize
    }

    /// Installs a trace sink; link enqueue/deliver events will be emitted.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of machines on the fabric.
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Computes when a message of `bytes` sent at `now` from `src` arrives at
    /// `dst`. Each node's egress and ingress ports serialize transmissions
    /// (one frame at a time at line rate), which is what bounds throughput —
    /// per node, not per pair — and delivery per directed pair is FIFO,
    /// which RDMA reliable connections require. Loopback (src == dst) costs
    /// only the per-message overhead.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn deliver_at(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> SimTime {
        self.deliver_at_traced(src, dst, bytes, now, rng, NO_OP)
    }

    /// [`Network::deliver_at`] with a causal op id attached to the emitted
    /// trace events, so link time shows up in per-op span trees.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn deliver_at_traced(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
        op: u64,
    ) -> SimTime {
        assert!(
            src.0 < self.nodes && dst.0 < self.nodes,
            "node out of range"
        );
        let pair = self.pair(src, dst);
        let st = &mut self.stats[pair];
        st.messages += 1;
        st.bytes += bytes;
        self.tracer
            .emit(now, src.0, op, TraceKind::LinkEnqueue { dst: dst.0, bytes });

        if src == dst {
            let arrival = now + self.config.per_message_overhead;
            self.tracer.emit(
                arrival,
                dst.0,
                op,
                TraceKind::LinkDeliver {
                    src: src.0,
                    dst: dst.0,
                },
            );
            return arrival;
        }

        // Serialize on both ports: a NIC transmits at most one frame at a
        // time (egress) and a receiver drains at most line rate (ingress).
        let start_tx = now
            .max(self.egress_free[src.0 as usize])
            .max(self.ingress_free[dst.0 as usize]);
        let finish_tx = start_tx + self.config.transmission(bytes);
        self.egress_free[src.0 as usize] = finish_tx;
        self.ingress_free[dst.0 as usize] = finish_tx;

        let tail = self.config.propagation + self.config.per_message_overhead;
        let jitter = 1.0 + rng.next_f64() * self.config.jitter;
        let arrival = finish_tx + tail.mul_f64(jitter);

        // FIFO per directed pair: never deliver before an earlier message.
        let clock = &mut self.channel_clock[pair];
        let ordered = arrival.max(*clock + SimDuration::from_nanos(1));
        *clock = ordered;
        self.tracer.emit(
            ordered,
            dst.0,
            op,
            TraceKind::LinkDeliver {
                src: src.0,
                dst: dst.0,
            },
        );
        ordered
    }

    /// Traffic carried on a directed pair so far (none for a node id out
    /// of range).
    pub fn link_stats(&self, src: NodeId, dst: NodeId) -> LinkStats {
        if src.0 < self.nodes && dst.0 < self.nodes {
            self.stats[self.pair(src, dst)]
        } else {
            LinkStats::default()
        }
    }

    /// Total bytes carried across the whole fabric.
    pub fn total_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes).sum()
    }

    /// Snapshots link statistics into a [`MetricsRegistry`] under `prefix`:
    /// fabric-wide totals plus message/byte counters for every directed
    /// pair that has carried a message, in `(src, dst)` order.
    pub fn export_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let mut messages = 0;
        let mut bytes = 0;
        for (i, st) in self.stats.iter().enumerate() {
            if st.messages == 0 {
                continue;
            }
            let n = self.nodes as usize;
            let (src, dst) = (NodeId((i / n) as u32), NodeId((i % n) as u32));
            messages += st.messages;
            bytes += st.bytes;
            reg.counter_set(&format!("{prefix}.link.{src}_{dst}.messages"), st.messages);
            reg.counter_set(&format!("{prefix}.link.{src}_{dst}.bytes"), st.bytes);
        }
        reg.counter_set(&format!("{prefix}.messages"), messages);
        reg.counter_set(&format!("{prefix}.bytes"), bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (Network, SimRng) {
        (Network::new(4, FabricConfig::default()), SimRng::new(1))
    }

    #[test]
    fn latency_grows_with_size() {
        let (mut net, mut rng) = net();
        let small = net.deliver_at(NodeId(0), NodeId(1), 64, SimTime::ZERO, &mut rng);
        let mut net2 = Network::new(4, FabricConfig::default());
        let large = net2.deliver_at(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO, &mut rng);
        assert!(large > small);
        // 1 MiB at 56 Gbps is ~150 us of transmission alone.
        assert!(large.since(SimTime::ZERO) > SimDuration::from_micros(100));
    }

    #[test]
    fn transmission_math() {
        let cfg = FabricConfig::default();
        // 56 Gbps = 7 bytes/ns -> 7000 bytes take 1000 ns.
        assert_eq!(cfg.transmission(7000).as_nanos(), 1000);
        assert_eq!(cfg.transmission(0).as_nanos(), 0);
    }

    #[test]
    fn per_pair_fifo_order() {
        let (mut net, mut rng) = net();
        let mut last = SimTime::ZERO;
        for i in 0..100u64 {
            // Decreasing sizes would reorder without the FIFO clamp.
            let bytes = 10_000 - i * 100;
            let t = net.deliver_at(NodeId(2), NodeId(3), bytes, SimTime::ZERO, &mut rng);
            assert!(t > last, "message {i} delivered out of order");
            last = t;
        }
    }

    #[test]
    fn disjoint_node_pairs_are_independent() {
        let (mut net, mut rng) = net();
        let t1 = net.deliver_at(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO, &mut rng);
        let t2 = net.deliver_at(NodeId(2), NodeId(3), 64, SimTime::ZERO, &mut rng);
        assert!(t2 < t1, "disjoint pair should not be delayed");
    }

    #[test]
    fn shared_egress_port_serializes() {
        // One sender to two receivers: the sender's port is the bottleneck.
        let (mut net, mut rng) = net();
        let t1 = net.deliver_at(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO, &mut rng);
        let t2 = net.deliver_at(NodeId(0), NodeId(2), 64, SimTime::ZERO, &mut rng);
        assert!(
            t2 > t1 - FabricConfig::default().base_latency(64).mul_f64(2.0),
            "second transmission must wait for the shared egress port"
        );
    }

    #[test]
    fn shared_ingress_port_serializes() {
        // Two senders to one receiver: the receiver's port is the bottleneck.
        let cfg = FabricConfig::default();
        let (mut net, mut rng) = net();
        let a = net.deliver_at(NodeId(0), NodeId(3), 1 << 20, SimTime::ZERO, &mut rng);
        let b = net.deliver_at(NodeId(1), NodeId(3), 1 << 20, SimTime::ZERO, &mut rng);
        let tx = cfg.transmission(1 << 20);
        assert!(
            b.since(SimTime::ZERO) >= tx * 2,
            "ingress did not serialize"
        );
        assert!(a < b);
    }

    #[test]
    fn loopback_is_cheap() {
        let (mut net, mut rng) = net();
        let t = net.deliver_at(NodeId(1), NodeId(1), 1 << 20, SimTime::ZERO, &mut rng);
        assert_eq!(
            t.since(SimTime::ZERO),
            FabricConfig::default().per_message_overhead
        );
    }

    #[test]
    fn stats_accumulate() {
        let (mut net, mut rng) = net();
        net.deliver_at(NodeId(0), NodeId(1), 100, SimTime::ZERO, &mut rng);
        net.deliver_at(NodeId(0), NodeId(1), 200, SimTime::ZERO, &mut rng);
        net.deliver_at(NodeId(1), NodeId(0), 50, SimTime::ZERO, &mut rng);
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).messages, 2);
        assert_eq!(net.link_stats(NodeId(0), NodeId(1)).bytes, 300);
        assert_eq!(net.link_stats(NodeId(1), NodeId(0)).bytes, 50);
        assert_eq!(net.total_bytes(), 350);
    }

    #[test]
    fn jitter_stays_bounded() {
        let cfg = FabricConfig::default();
        let mut rng = SimRng::new(42);
        let base = cfg.base_latency(512);
        for _ in 0..1000 {
            let mut fresh = Network::new(2, cfg);
            let t = fresh.deliver_at(NodeId(0), NodeId(1), 512, SimTime::ZERO, &mut rng);
            let d = t.since(SimTime::ZERO);
            assert!(d >= base, "delay below base");
            assert!(d <= base.mul_f64(1.0 + cfg.jitter) + SimDuration::from_nanos(1));
        }
    }

    #[test]
    fn link_serializes_back_to_back_messages() {
        let cfg = FabricConfig::default();
        let (mut net, mut rng) = (Network::new(2, cfg), SimRng::new(3));
        let n = 100u64;
        let bytes = 70_000; // 10 us of transmission each at 56 Gbps
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = net.deliver_at(NodeId(0), NodeId(1), bytes, SimTime::ZERO, &mut rng);
        }
        let total = last.since(SimTime::ZERO);
        let pure_tx = cfg.transmission(bytes) * n;
        assert!(
            total >= pure_tx,
            "link did not serialize: {total} < {pure_tx}"
        );
        // And no more than ~10% overhead beyond serialization + tail.
        assert!(total <= pure_tx.mul_f64(1.1) + SimDuration::from_micros(2));
    }

    #[test]
    fn reverse_direction_does_not_serialize_with_forward() {
        let cfg = FabricConfig::default();
        let (mut net, mut rng) = (Network::new(2, cfg), SimRng::new(4));
        net.deliver_at(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO, &mut rng);
        let back = net.deliver_at(NodeId(1), NodeId(0), 64, SimTime::ZERO, &mut rng);
        assert!(
            back.since(SimTime::ZERO) < SimDuration::from_micros(5),
            "full duplex violated"
        );
    }

    #[test]
    fn export_lists_exactly_the_pairs_that_carried_messages() {
        let mut net = Network::new(12, FabricConfig::default());
        let mut rng = SimRng::new(5);
        for (src, dst, bytes) in [(11, 2, 40), (0, 1, 100), (11, 2, 60), (3, 3, 8), (2, 11, 0)] {
            net.deliver_at(NodeId(src), NodeId(dst), bytes, SimTime::ZERO, &mut rng);
        }
        let mut reg = MetricsRegistry::new();
        net.export_into(&mut reg, "net");
        let counters: Vec<(&str, u64)> = reg.counters().collect();
        assert_eq!(
            counters,
            [
                ("net.bytes", 208),
                ("net.link.node0_node1.bytes", 100),
                ("net.link.node0_node1.messages", 1),
                ("net.link.node11_node2.bytes", 100),
                ("net.link.node11_node2.messages", 2),
                ("net.link.node2_node11.bytes", 0),
                ("net.link.node2_node11.messages", 1),
                ("net.link.node3_node3.bytes", 8),
                ("net.link.node3_node3.messages", 1),
                ("net.messages", 5),
            ]
        );
        assert_eq!(net.link_stats(NodeId(11), NodeId(2)).messages, 2);
        assert_eq!(net.link_stats(NodeId(1), NodeId(0)), LinkStats::default());
        assert_eq!(net.link_stats(NodeId(12), NodeId(0)), LinkStats::default());
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_node_panics() {
        let (mut net, mut rng) = net();
        net.deliver_at(NodeId(0), NodeId(9), 1, SimTime::ZERO, &mut rng);
    }
}

#[cfg(test)]
mod randomized {
    use super::*;

    fn gen_msgs(seed: u64, nodes: u32, max_bytes: u64, n_max: usize) -> Vec<(u32, u32, u64, u64)> {
        let mut rng = SimRng::new(seed);
        let n = 1 + rng.gen_index(n_max - 1);
        (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..nodes as u64) as u32,
                    rng.gen_range(0..nodes as u64) as u32,
                    rng.gen_range(1..max_bytes),
                    rng.gen_range(0..10_000),
                )
            })
            .collect()
    }

    /// Conservation law: no node can source or sink traffic faster than
    /// its port rate, whatever the traffic pattern.
    #[test]
    fn port_capacity_is_never_exceeded() {
        for case in 0..48u64 {
            let cfg = FabricConfig::default();
            let mut net = Network::new(4, cfg);
            let mut rng = SimRng::new(11);
            let mut last = SimTime::ZERO;
            let mut tx_bytes = [0u64; 4];
            let mut rx_bytes = [0u64; 4];
            for (s, d, bytes, _) in gen_msgs(0x0CEA + case, 4, 100_000, 100) {
                let (src, dst) = (NodeId(s), NodeId(d));
                let t = net.deliver_at(src, dst, bytes, SimTime::ZERO, &mut rng);
                last = last.max(t);
                if s != d {
                    tx_bytes[s as usize] += bytes;
                    rx_bytes[d as usize] += bytes;
                }
            }
            let window = last.as_secs_f64().max(1e-12);
            for n in 0..4 {
                let tx_bps = tx_bytes[n] as f64 * 8.0 / window;
                let rx_bps = rx_bytes[n] as f64 * 8.0 / window;
                assert!(
                    tx_bps <= cfg.bandwidth_bps as f64 * 1.001,
                    "node {n} egress over line rate: {tx_bps:.2e}"
                );
                assert!(
                    rx_bps <= cfg.bandwidth_bps as f64 * 1.001,
                    "node {n} ingress over line rate: {rx_bps:.2e}"
                );
            }
        }
    }

    /// FIFO per directed pair holds under arbitrary interleavings.
    #[test]
    fn per_pair_fifo_always() {
        for case in 0..48u64 {
            let mut net = Network::new(3, FabricConfig::default());
            let mut rng = SimRng::new(13);
            let mut pair_last: std::collections::HashMap<(u32, u32), SimTime> =
                std::collections::HashMap::new();
            let mut now = SimTime::ZERO;
            for (s, d, bytes, gap) in gen_msgs(0xF1F0 + case, 3, 50_000, 120) {
                now += SimDuration::from_nanos(gap);
                let t = net.deliver_at(NodeId(s), NodeId(d), bytes, now, &mut rng);
                if let Some(&prev) = pair_last.get(&(s, d)) {
                    assert!(t > prev, "pair ({s},{d}) reordered");
                }
                pair_last.insert((s, d), t);
            }
        }
    }
}
