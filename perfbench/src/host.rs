//! How the workloads drive the system.
//!
//! Untraced runs use the program's own drivers: `P2PSystem` for the
//! simulator and `ShardedNetwork` over `build_peers` for the pool. The
//! traced run hosts [`crate::trace::Traced`] peers on a `Simulator` it
//! builds itself; [`TracedSim`] mirrors `P2PSystem`'s session numbering
//! (one epoch per session, system-wide), so both deliver the same messages.

use crate::trace::{Tally, Traced};
use p2p_core::peer::DbPeer;
use p2p_core::{P2PSystem, ProtocolMsg, SystemConfig};
use p2p_net::{
    ConstantLatency, NetStats, Peer, SessionId, ShardPlacement, ShardedNetwork, SimTime, Simulator,
};
use p2p_relational::query::{evaluate_certain, parse_query};
use p2p_relational::{Tuple, Val};
use p2p_topology::NodeId;
use std::time::{Duration, Instant};

/// A peer type the benchmark can host and inspect.
pub trait Hosted: Peer<ProtocolMsg> + 'static {
    /// The database peer inside.
    fn db_peer(&self) -> &DbPeer;

    /// What the peer's deliveries cost, when it is traced.
    fn tally(&self) -> Option<Tally> {
        None
    }
}

impl Hosted for DbPeer {
    fn db_peer(&self) -> &DbPeer {
        self
    }
}

/// What one operation cost and whether the program reported success.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCost {
    /// Wall time of the session (a write's insert is timed by the caller).
    pub wall: Duration,
    /// Messages delivered.
    pub msgs: u64,
    /// Wire bytes delivered.
    pub bytes: u64,
    /// Simulated time from injection to quiescence (simulator only).
    pub virtual_us: u64,
    /// The run quiesced, the session closed and no peer recorded an error.
    pub ok: bool,
}

/// A network on the simulator that takes inserts, global sessions (writes)
/// and query-dependent reads.
pub trait SimHost {
    /// Inserts one base fact at `node`.
    fn insert(&mut self, node: NodeId, relation: &str, values: Vec<Val>) -> Result<(), String>;
    /// Runs one global session rooted at `root` to quiescence.
    fn write(&mut self, root: NodeId) -> OpCost;
    /// Refreshes `node`'s dependency scope, then answers `query` locally.
    fn read(&mut self, node: NodeId, query: &str) -> (OpCost, Result<Vec<Tuple>, String>);
    /// Every hosted peer, in id order.
    fn db_peers(&self) -> Vec<&DbPeer>;
    /// The transport's counters.
    fn net_stats(&self) -> &NetStats;
}

fn no_errors<'a>(mut peers: impl Iterator<Item = &'a DbPeer>) -> bool {
    peers.all(|p| p.errors().is_empty())
}

impl SimHost for P2PSystem {
    fn insert(&mut self, node: NodeId, relation: &str, values: Vec<Val>) -> Result<(), String> {
        P2PSystem::insert(self, node, relation, values).map_err(|e| e.to_string())
    }

    fn write(&mut self, root: NodeId) -> OpCost {
        let start_virtual = self.net_stats().finished_at;
        let t0 = Instant::now();
        let report = self.run_update_from(root);
        let wall = t0.elapsed();
        OpCost {
            wall,
            msgs: report.messages,
            bytes: report.bytes,
            virtual_us: (report.outcome.virtual_time - start_virtual).as_micros(),
            ok: report.outcome.quiescent && report.all_closed && report.errors.is_empty(),
        }
    }

    fn read(&mut self, node: NodeId, query: &str) -> (OpCost, Result<Vec<Tuple>, String>) {
        let (msgs, bytes) = (
            self.net_stats().total_messages,
            self.net_stats().total_bytes,
        );
        let start_virtual = self.net_stats().finished_at;
        let t0 = Instant::now();
        let answer = self.distributed_query(node, query);
        let wall = t0.elapsed();
        let stats = self.net_stats();
        let cost = OpCost {
            wall,
            msgs: stats.total_messages - msgs,
            bytes: stats.total_bytes - bytes,
            virtual_us: (stats.finished_at - start_virtual).as_micros(),
            ok: answer.is_ok() && self.closed(node) && no_errors(self.peers().map(|(_, p)| p)),
        };
        (cost, answer.map_err(|e| e.to_string()))
    }

    fn db_peers(&self) -> Vec<&DbPeer> {
        self.peers().map(|(_, p)| p).collect()
    }

    fn net_stats(&self) -> &NetStats {
        P2PSystem::net_stats(self)
    }
}

/// The traced run's simulator: [`Traced`] peers, `P2PSystem`'s latency
/// (1 ms constant), event budget, codec and session numbering.
pub struct TracedSim {
    sim: Simulator<ProtocolMsg, Traced>,
    epoch: u64,
}

impl TracedSim {
    /// Hosts `peers` (from `P2PSystemBuilder::build_peers`) under `config`.
    pub fn new(peers: Vec<(NodeId, DbPeer)>, config: &SystemConfig) -> Self {
        let mut sim = Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(1))));
        sim.set_max_events(config.effective_max_events(peers.len()));
        sim.set_codec(config.codec);
        for (id, peer) in peers {
            sim.add_peer(id, Traced::new(peer, config.codec));
        }
        TracedSim { sim, epoch: 0 }
    }

    /// The sum of every peer's [`Tally`].
    pub fn tally(&self) -> Tally {
        let mut total = Tally::default();
        for t in self.sim.peers().filter_map(|(_, p)| p.tally()) {
            total.add(&t);
        }
        total
    }

    fn session(&mut self, root: NodeId, msg: impl FnOnce(SessionId) -> ProtocolMsg) -> OpCost {
        self.epoch += 1;
        let sid = SessionId::new(root, self.epoch);
        let (msgs, bytes) = (
            self.sim.stats().total_messages,
            self.sim.stats().total_bytes,
        );
        let start_virtual = self.sim.now();
        let t0 = Instant::now();
        self.sim.inject(root, root, msg(sid));
        let outcome = self.sim.run();
        let wall = t0.elapsed();
        OpCost {
            wall,
            msgs: self.sim.stats().total_messages - msgs,
            bytes: self.sim.stats().total_bytes - bytes,
            virtual_us: (outcome.virtual_time - start_virtual).as_micros(),
            ok: outcome.quiescent && no_errors(self.db_peers().into_iter()),
        }
    }
}

impl SimHost for TracedSim {
    fn insert(&mut self, node: NodeId, relation: &str, values: Vec<Val>) -> Result<(), String> {
        let peer = self
            .sim
            .peer_mut(node)
            .ok_or_else(|| format!("unknown node {node}"))?;
        peer.inner_mut()
            .insert_base_fact(relation, values)
            .map_err(|e| e.to_string())
    }

    fn write(&mut self, root: NodeId) -> OpCost {
        let mut cost = self.session(root, |session| ProtocolMsg::StartUpdate { session });
        let sid = SessionId::new(root, self.epoch);
        cost.ok &= self
            .sim
            .peers()
            .all(|(_, p)| p.db_peer().session_closed(sid));
        cost
    }

    fn read(&mut self, node: NodeId, query: &str) -> (OpCost, Result<Vec<Tuple>, String>) {
        let mut cost = self.session(node, |session| ProtocolMsg::StartScopedUpdate { session });
        let answer = self
            .sim
            .peer(node)
            .ok_or_else(|| format!("unknown node {node}"))
            .and_then(|p| local_query(p.db_peer(), query));
        cost.ok &= answer.is_ok()
            && self
                .sim
                .peer(node)
                .is_some_and(|p| p.db_peer().update_closed());
        (cost, answer)
    }

    fn db_peers(&self) -> Vec<&DbPeer> {
        self.sim.peers().map(|(_, p)| p.db_peer()).collect()
    }

    fn net_stats(&self) -> &NetStats {
        self.sim.stats()
    }
}

/// Certain answers of `query` over `peer`'s database, as
/// `P2PSystem::query` computes them.
pub fn local_query(peer: &DbPeer, query: &str) -> Result<Vec<Tuple>, String> {
    let q = parse_query(query).map_err(|e| e.to_string())?;
    evaluate_certain(&q, peer.database()).map_err(|e| e.to_string())
}

/// Worker threads of the sharded pool, the core count of the reference host.
pub const POOL_THREADS: usize = 2;

/// What one session on the pool left behind.
pub struct PoolRun<P> {
    /// The peers, in id order, with their final state.
    pub peers: Vec<(NodeId, P)>,
    /// The merged transport counters.
    pub stats: NetStats,
    /// Wall time of the run.
    pub wall: Duration,
}

/// One session on a freshly built copy hosted by the sharded pool
/// (`POOL_THREADS` workers, round-robin placement): `start` is injected at
/// `root` and the pool runs to quiescence.
pub fn sharded_session<P: Hosted>(
    peers: Vec<(NodeId, P)>,
    codec: p2p_net::Codec,
    root: NodeId,
    start: ProtocolMsg,
) -> Result<PoolRun<P>, String> {
    let mut net = ShardedNetwork::new();
    net.set_codec(codec);
    net.set_shards(POOL_THREADS);
    net.set_placement(ShardPlacement::RoundRobin);
    for (id, peer) in peers {
        net.add_peer(id, peer);
    }
    let t0 = Instant::now();
    let (peers, stats) = net
        .run(vec![(root, root, start)])
        .map_err(|p| format!("peer {} panicked: {}", p.node, p.payload))?;
    Ok(PoolRun {
        peers,
        stats,
        wall: t0.elapsed(),
    })
}
