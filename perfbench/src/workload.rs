//! The three workloads: a fixed sequence of steps (writes, each followed by
//! reads) run on one long-lived network (simulator) or on a fresh copy per
//! step (sharded pool), with every result checked as it comes.

use crate::check::{check_inbox, check_read_against_oracle, check_total, ExpanderModel};
use crate::host::{local_query, sharded_session, Hosted, OpCost, PoolRun, SimHost, TracedSim};
use crate::inputs::{dblp_query, DblpInputs, ExpanderInputs, INBOX_QUERY, WRITERS};
use crate::trace::{StorageCounts, Tally, Traced, WorkerPasses};
use p2p_core::oracle::global_fixpoint;
use p2p_core::peer::DbPeer;
use p2p_core::system::P2PSystemBuilder;
use p2p_core::{P2PSystem, ProtocolMsg, SystemConfig};
use p2p_net::codec::encode_passes;
use p2p_net::{Codec, SessionId};
use p2p_relational::query::{evaluate, ConjunctiveQuery, Term};
use p2p_relational::{Database, Tuple, Val};
use p2p_topology::NodeId;
use p2p_workload::{build_system, scale_system, SchemaFamily};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The workloads, by their names on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10k-peer expander on the simulator.
    Expander10kSim,
    /// The same inputs on the sharded pool.
    Expander10kSharded,
    /// The paper's DBLP setting on a 16-peer small world.
    DblpSmallworld16,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Expander10kSim,
        Workload::Expander10kSharded,
        Workload::DblpSmallworld16,
    ];

    /// Name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Expander10kSim => "expander10k_sim",
            Workload::Expander10kSharded => "expander10k_sharded",
            Workload::DblpSmallworld16 => "dblp_smallworld16",
        }
    }

    /// Parses a name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a run is. A run is a fixed number of operations — never a fixed
/// duration — because a write's cost depends on the writes before it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Peers.
    pub nodes: u32,
    /// Rounds of [`WRITERS`] writes.
    pub rounds: usize,
    /// Reads after each write.
    pub reads_per_write: usize,
    /// Times the set-up runs. On the simulator, half run before the
    /// operations (the last network built serves them) and half after.
    pub setups: usize,
    /// Publications per peer (DBLP only).
    pub records: usize,
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub enum Step {
    /// Insert `facts` at `root`, then run a global session rooted there.
    Write {
        /// Writer.
        root: NodeId,
        /// Fresh facts.
        facts: Vec<(&'static str, Vec<Val>)>,
    },
    /// A query-dependent read at `node`.
    Read {
        /// Reader.
        node: NodeId,
        /// Local query after the scoped refresh.
        query: &'static str,
    },
}

/// Relational-layer counters summed over peers (`PeerStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rel {
    /// Rows read by plan-based evaluations.
    pub rows_scanned: u64,
    /// Persistent-index probes.
    pub index_probes: u64,
    /// Local conjunctive-query evaluations.
    pub evaluations: u64,
    /// Evaluations served by a cached compiled plan.
    pub plan_cache_hits: u64,
    /// Facts inserted by the update algorithm.
    pub tuples_inserted: u64,
}

impl Rel {
    fn of<'a>(peers: impl IntoIterator<Item = &'a DbPeer>) -> Rel {
        let mut r = Rel::default();
        for p in peers {
            let s = p.stats();
            r.rows_scanned += s.rows_scanned;
            r.index_probes += s.index_probes;
            r.evaluations += s.local_evaluations;
            r.plan_cache_hits += s.plan_cache_hits;
            r.tuples_inserted += s.tuples_inserted;
        }
        r
    }

    fn add(&mut self, o: &Rel) {
        self.rows_scanned += o.rows_scanned;
        self.index_probes += o.index_probes;
        self.evaluations += o.evaluations;
        self.plan_cache_hits += o.plan_cache_hits;
        self.tuples_inserted += o.tuples_inserted;
    }

    fn since(&self, e: &Rel) -> Rel {
        Rel {
            rows_scanned: self.rows_scanned - e.rows_scanned,
            index_probes: self.index_probes - e.index_probes,
            evaluations: self.evaluations - e.evaluations,
            plan_cache_hits: self.plan_cache_hits - e.plan_cache_hits,
            tuples_inserted: self.tuples_inserted - e.tuples_inserted,
        }
    }
}

/// What the traced run sees of one phase (all writes, or all reads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Handler and sizing spans per message kind.
    pub tally: Tally,
    /// Relational counters.
    pub rel: Rel,
    /// Encode passes the program made (the benchmark's own sizing excluded).
    pub encode_passes: u64,
    /// Storage backend counters.
    pub storage: StorageCounts,
    /// Fan-out sends that reused a shared payload.
    pub shared_payload_sends: u64,
    /// Sends that crossed shards.
    pub cross_shard_sends: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.tally.add(&o.tally);
        self.rel.add(&o.rel);
        self.encode_passes += o.encode_passes;
        self.storage.ns += o.storage.ns;
        self.storage.frames += o.storage.frames;
        self.storage.wal_bytes += o.storage.wal_bytes;
        self.storage.snapshot_bytes += o.storage.snapshot_bytes;
        self.shared_payload_sends += o.shared_payload_sends;
        self.cross_shard_sends += o.cross_shard_sends;
    }
}

/// A traced simulator's counters at one instant.
struct Probe {
    tally: Tally,
    rel: Rel,
    passes: u64,
    storage: StorageCounts,
    shared: u64,
}

impl Probe {
    fn take(host: &TracedSim) -> Probe {
        Probe {
            tally: host.tally(),
            rel: Rel::of(host.db_peers()),
            passes: encode_passes(),
            storage: StorageCounts::now(),
            shared: host.net_stats().shared_payload_sends,
        }
    }

    fn since(&self, e: &Probe) -> Layers {
        let tally = self.tally.since(&e.tally);
        Layers {
            tally,
            rel: self.rel.since(&e.rel),
            encode_passes: (self.passes - e.passes).saturating_sub(tally.size_passes),
            storage: self.storage.since(&e.storage),
            shared_payload_sends: self.shared - e.shared,
            cross_shard_sends: 0,
        }
    }
}

/// One set-up, split into its phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Inputs: topology, schemas, rules and data into a builder.
    pub generate: Duration,
    /// Peers (`build` / `build_peers`).
    pub build: Duration,
    /// The first global session (simulator workloads).
    pub initial_fixpoint: Duration,
}

impl Setup {
    /// All phases together.
    pub fn total(&self) -> Duration {
        self.generate + self.build + self.initial_fixpoint
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations the program reported as failed.
    pub failed: u64,
    /// Results that differ from the independently computed ones.
    pub wrong: Vec<String>,
    /// Every set-up.
    pub setups: Vec<Setup>,
    /// Completed writes (wall time includes the insert).
    pub writes: Vec<OpCost>,
    /// Completed reads.
    pub reads: Vec<OpCost>,
    /// Traced runs only: the writes' layers.
    pub write_layers: Layers,
    /// Traced runs only: the reads' layers.
    pub read_layers: Layers,
    /// Traced runs only: re-evaluating every rule body on the final data.
    pub replay_eval: Duration,
    /// Worker threads that ran handlers.
    pub threads: usize,
    /// Sharded pool only: generating the one builder every copy is built
    /// from (each copy's set-up is its build alone).
    pub shared_generate: Option<Duration>,
}

impl Run {
    fn wrong(&mut self, check: Result<(), String>) {
        if let Err(e) = check {
            if self.wrong.len() < 8 {
                self.wrong.push(e);
            }
        }
    }
}

/// Runs `workload` at `size` on `seed`; `traced` hosts the peers in the
/// benchmark's [`Traced`] wrapper and records layer counters.
pub fn run(workload: Workload, size: &Size, seed: u64, traced: bool) -> Result<Run, String> {
    match workload {
        Workload::Expander10kSim => {
            let inputs = ExpanderInputs::new(size.nodes, seed);
            expander_sim(&inputs, size, traced)
        }
        Workload::Expander10kSharded => {
            let inputs = ExpanderInputs::new(size.nodes, seed);
            if traced {
                expander_sharded(&inputs, size, Traced::new)
            } else {
                expander_sharded(&inputs, size, |p, _| p)
            }
        }
        Workload::DblpSmallworld16 => {
            let inputs = DblpInputs::new(size.nodes, size.records, seed);
            dblp(&inputs, size, traced)
        }
    }
}

/// The steps of an expander run: rotating writes of one fresh item, each
/// followed by reads at rotating readers.
pub fn expander_steps(inputs: &ExpanderInputs, size: &Size) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut reads = 0usize;
    for k in 0..size.rounds * WRITERS {
        let (root, item) = inputs.fresh_item(k);
        steps.push(Step::Write {
            root,
            facts: vec![("item", item)],
        });
        for _ in 0..size.reads_per_write {
            let node = inputs.readers[reads % inputs.readers.len()];
            reads += 1;
            steps.push(Step::Read {
                node,
                query: INBOX_QUERY,
            });
        }
    }
    steps
}

/// The steps of a DBLP run: rotating writes of fresh publications, each
/// followed by reads at rotating readers.
pub fn dblp_steps(inputs: &DblpInputs, size: &Size) -> Vec<Step> {
    let writes = size.rounds * WRITERS;
    let pubs = inputs.fresh_publications(writes);
    let mut steps = Vec::new();
    let mut reads = 0usize;
    for (k, batch) in pubs.chunks(crate::inputs::DBLP_PUBS_PER_WRITE).enumerate() {
        let root = inputs.writers[k % inputs.writers.len()];
        let family = SchemaFamily::for_node(root.0);
        let facts = batch.iter().flat_map(|p| family.tuples_for(p)).collect();
        steps.push(Step::Write { root, facts });
        for _ in 0..size.reads_per_write {
            let node = inputs.readers[reads % inputs.readers.len()];
            reads += 1;
            steps.push(Step::Read {
                node,
                query: dblp_query(node),
            });
        }
    }
    steps
}

/// Checks that every peer closed the last session and retired its state.
fn all_closed_and_retired(peers: &[&DbPeer]) -> Result<(), String> {
    let open = peers.iter().filter(|p| !p.update_closed()).count();
    let live = peers.iter().filter(|p| p.session_table_len() > 0).count();
    if open == 0 && live == 0 {
        Ok(())
    } else {
        Err(format!(
            "after a write {open} peers are not closed and {live} hold live sessions"
        ))
    }
}

fn total_tuples(peers: &[&DbPeer]) -> usize {
    peers.iter().map(|p| p.database().total_tuples()).sum()
}

/// A simulator network under test, untraced (`P2PSystem`) or traced.
enum SimNet {
    Plain(P2PSystem),
    Traced(TracedSim),
}

impl SimNet {
    fn host(&mut self) -> &mut dyn SimHost {
        match self {
            SimNet::Plain(s) => s,
            SimNet::Traced(s) => s,
        }
    }

    fn probe(&self) -> Option<Probe> {
        match self {
            SimNet::Plain(_) => None,
            SimNet::Traced(s) => Some(Probe::take(s)),
        }
    }
}

/// Builds a simulator network from `builder`: `P2PSystem::build`, or
/// `build_peers` hosted by a [`TracedSim`].
fn build_net(mut builder: P2PSystemBuilder, traced: bool) -> Result<SimNet, String> {
    if traced {
        let config: SystemConfig = *builder.config_mut();
        let mut peers = builder.build_peers().map_err(|e| e.to_string())?;
        if config.durability {
            for (_, peer) in &mut peers {
                let storage = p2p_storage::PeerStorage::with_codec(
                    Box::<crate::trace::TimingBackend>::default(),
                    config.snapshot_every,
                    config.codec,
                );
                peer.attach_storage(storage).map_err(|e| e.to_string())?;
            }
        }
        Ok(SimNet::Traced(TracedSim::new(peers, &config)))
    } else {
        builder
            .build()
            .map(SimNet::Plain)
            .map_err(|e| e.to_string())
    }
}

/// Sets up a simulator network once: the builder from `generate`, the peers,
/// the first global session from the super-peer. `check` sees the network
/// after that session.
fn set_up_once(
    run: &mut Run,
    traced: bool,
    generate: &dyn Fn() -> Result<P2PSystemBuilder, String>,
    check: &dyn Fn(&[&DbPeer]) -> Result<(), String>,
) -> Result<SimNet, String> {
    let t0 = Instant::now();
    let builder = generate()?;
    let t1 = Instant::now();
    let mut built = build_net(builder, traced)?;
    let t2 = Instant::now();
    let first = built.host().write(NodeId(0));
    let t3 = Instant::now();
    if !first.ok {
        return Err("the initial global session did not close".into());
    }
    run.wrong(check(&built.host().db_peers()));
    run.setups.push(Setup {
        generate: t1 - t0,
        build: t2 - t1,
        initial_fixpoint: t3 - t2,
    });
    Ok(built)
}

/// How many of a simulator run's `size.setups` set-ups run before its
/// operations (the last network built serves them) and how many after. The
/// host's speed drifts within a run, so set-ups at both ends of it give
/// `setup_s` a steadier median than set-ups back to back.
fn setups_around(size: &Size) -> (usize, usize) {
    let n = size.setups.max(1);
    (n - n / 2, n / 2)
}

/// The set-ups before a simulator run's operations; returns the network
/// built last.
fn set_up(
    run: &mut Run,
    size: &Size,
    traced: bool,
    generate: &dyn Fn() -> Result<P2PSystemBuilder, String>,
    check: &dyn Fn(&[&DbPeer]) -> Result<(), String>,
) -> Result<SimNet, String> {
    let mut net = None;
    for _ in 0..setups_around(size).0 {
        // The previous network goes first, so only one is ever alive.
        drop(net.take());
        net = Some(set_up_once(run, traced, generate, check)?);
    }
    net.ok_or_else(|| "no set-up ran".to_string())
}

/// The set-ups after a simulator run's operations; `net`, the network that
/// served them, goes first, so only one is ever alive.
fn set_up_after(
    run: &mut Run,
    net: SimNet,
    size: &Size,
    traced: bool,
    generate: &dyn Fn() -> Result<P2PSystemBuilder, String>,
    check: &dyn Fn(&[&DbPeer]) -> Result<(), String>,
) -> Result<(), String> {
    drop(net);
    for _ in 0..setups_around(size).1 {
        set_up_once(run, traced, generate, check)?;
    }
    Ok(())
}

/// Runs `steps` on a simulator network. `on_write` and `on_read` check each
/// completed operation.
fn drive_sim(
    run: &mut Run,
    net: &mut SimNet,
    steps: &[Step],
    on_write: &mut dyn FnMut(&mut Run, &Step, &[&DbPeer]),
    on_read: &mut dyn FnMut(&mut Run, NodeId, &[Tuple]),
) {
    for step in steps {
        let before = net.probe();
        run.attempted += 1;
        match step {
            Step::Write { root, facts } => {
                let t0 = Instant::now();
                let inserted = facts
                    .iter()
                    .try_for_each(|(rel, vals)| net.host().insert(*root, rel, vals.clone()));
                let mut cost = net.host().write(*root);
                cost.wall = t0.elapsed();
                if inserted.is_err() || !cost.ok {
                    run.failed += 1;
                    continue;
                }
                if let (Some(before), Some(after)) = (before, net.probe()) {
                    run.write_layers.add(&after.since(&before));
                }
                run.writes.push(cost);
                on_write(run, step, &net.host().db_peers());
            }
            Step::Read { node, query } => {
                let (cost, answer) = net.host().read(*node, query);
                match answer {
                    Ok(answer) if cost.ok => {
                        if let (Some(before), Some(after)) = (before, net.probe()) {
                            run.read_layers.add(&after.since(&before));
                        }
                        run.reads.push(cost);
                        on_read(run, *node, &answer);
                    }
                    _ => run.failed += 1,
                }
            }
        }
    }
}

fn expander_sim(inputs: &ExpanderInputs, size: &Size, traced: bool) -> Result<Run, String> {
    let mut run = Run {
        threads: 1,
        ..Run::default()
    };
    let base = ExpanderModel::new(inputs.nodes(), &inputs.edges, inputs.records);
    let cfg = inputs.scale_config();
    let generate = || scale_system(&cfg).map_err(|e| e.to_string());
    let initial_total = base.total_tuples();
    let check_initial =
        |peers: &[&DbPeer]| check_total("initial fix-point", total_tuples(peers), initial_total);
    let mut net = set_up(&mut run, size, traced, &generate, &check_initial)?;
    let steps = expander_steps(inputs, size);
    let model = std::cell::RefCell::new(base);
    drive_sim(
        &mut run,
        &mut net,
        &steps,
        &mut |run, step, peers| {
            if let Step::Write { root, facts } = step {
                if let Some(Val::Int(id)) = facts[0].1.first() {
                    model.borrow_mut().insert(*id, *root);
                }
            }
            run.wrong(all_closed_and_retired(peers));
        },
        &mut |run, node, answer| {
            run.wrong(check_inbox(node, answer, &model.borrow().inbox(node)));
        },
    );
    let peers = net.host().db_peers();
    run.wrong(check_total(
        "final fix-point",
        total_tuples(&peers),
        model.borrow().total_tuples(),
    ));
    if traced {
        let builder = scale_system(&cfg).map_err(|e| e.to_string())?;
        run.replay_eval = replay_rule_bodies(builder.rules(), &peers)?;
    }
    set_up_after(&mut run, net, size, traced, &generate, &check_initial)?;
    Ok(run)
}

/// Re-evaluates every rule body fragment once on the final databases,
/// through the public query API, and returns the time it took.
pub fn replay_rule_bodies(
    rules: &p2p_core::RuleSet,
    peers: &[&DbPeer],
) -> Result<Duration, String> {
    let by_id: BTreeMap<NodeId, &Database> = peers.iter().map(|p| (p.id(), p.database())).collect();
    let queries: Vec<(NodeId, ConjunctiveQuery)> = rules
        .iter()
        .flat_map(|r| r.parts.iter())
        .map(|part| {
            let q = ConjunctiveQuery {
                name: "q".into(),
                head: part.vars.iter().cloned().map(Term::Var).collect(),
                atoms: part.atoms.clone(),
                constraints: part.local_constraints.clone(),
            };
            (part.node, q)
        })
        .collect();
    let t0 = Instant::now();
    for (node, q) in &queries {
        let db = by_id
            .get(node)
            .ok_or_else(|| format!("rule body at unknown node {node}"))?;
        std::hint::black_box(evaluate(q, db).map_err(|e| e.to_string())?);
    }
    Ok(t0.elapsed())
}

fn expander_sharded<P: Hosted>(
    inputs: &ExpanderInputs,
    size: &Size,
    wrap: impl Fn(DbPeer, Codec) -> P,
) -> Result<Run, String> {
    let mut run = Run {
        threads: crate::host::POOL_THREADS,
        ..Run::default()
    };
    let mut model = ExpanderModel::new(inputs.nodes(), &inputs.edges, inputs.records);
    let t0 = Instant::now();
    let mut builder = scale_system(&inputs.scale_config()).map_err(|e| e.to_string())?;
    run.shared_generate = Some(t0.elapsed());
    let codec = builder.config_mut().codec;
    let rules = builder.rules().clone();
    let steps = expander_steps(inputs, size);
    let mut last_peers: Vec<(NodeId, P)> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        run.attempted += 1;
        // Each operation runs on a fresh copy: peers returned by the pool
        // cannot serve another session (message ids restart at 0).
        drop(std::mem::take(&mut last_peers));
        let t_insert = Instant::now();
        if let Step::Write { root, facts } = step {
            for (rel, vals) in facts {
                builder
                    .insert(root.0, rel, vals.clone())
                    .map_err(|e| e.to_string())?;
            }
        }
        let insert = t_insert.elapsed();
        let t_build = Instant::now();
        let copy: Vec<(NodeId, P)> = builder
            .build_peers()
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|(id, p)| (id, wrap(p, codec)))
            .collect();
        run.setups.push(Setup {
            build: t_build.elapsed(),
            ..Setup::default()
        });
        let (root, start) = match step {
            Step::Write { root, .. } => (
                *root,
                ProtocolMsg::StartUpdate {
                    session: SessionId::new(*root, 1),
                },
            ),
            Step::Read { node, .. } => (
                *node,
                ProtocolMsg::StartScopedUpdate {
                    session: SessionId::new(*node, 1),
                },
            ),
        };
        let passes = (encode_passes(), WorkerPasses::exited());
        let PoolRun { peers, stats, wall } = sharded_session(copy, codec, root, start)?;
        let passes = encode_passes() - passes.0 + WorkerPasses::exited() - passes.1;
        let db_peers: Vec<&DbPeer> = peers.iter().map(|(_, p)| p.db_peer()).collect();
        let errors = db_peers.iter().any(|p| !p.errors().is_empty());
        let mut cost = OpCost {
            wall: wall + insert,
            msgs: stats.total_messages,
            bytes: stats.total_bytes,
            virtual_us: 0,
            ok: !errors,
        };
        let mut tally = Tally::default();
        for (_, p) in &peers {
            if let Some(t) = p.tally() {
                tally.add(&t);
            }
        }
        let layers = Layers {
            tally,
            rel: Rel::of(db_peers.iter().copied()),
            encode_passes: passes.saturating_sub(tally.size_passes),
            storage: StorageCounts::default(),
            shared_payload_sends: stats.shared_payload_sends,
            cross_shard_sends: stats.cross_shard_sends,
        };
        match step {
            Step::Write { root, facts } => {
                let sid = SessionId::new(*root, 1);
                cost.ok &= db_peers.iter().all(|p| p.session_closed(sid));
                if !cost.ok {
                    run.failed += 1;
                    continue;
                }
                if let Some(Val::Int(id)) = facts[0].1.first() {
                    model.insert(*id, *root);
                }
                run.wrong(all_closed_and_retired(&db_peers));
                run.wrong(check_total(
                    "fix-point of a fresh copy",
                    total_tuples(&db_peers),
                    model.total_tuples(),
                ));
                run.write_layers.add(&layers);
                run.writes.push(cost);
            }
            Step::Read { node, query } => {
                let reader = db_peers
                    .iter()
                    .find(|p| p.id() == *node)
                    .ok_or_else(|| format!("unknown reader {node}"))?;
                let answer = local_query(reader, query);
                cost.ok &= reader.update_closed();
                match answer {
                    Ok(answer) if cost.ok => {
                        run.wrong(check_inbox(*node, &answer, &model.inbox(*node)));
                        run.read_layers.add(&layers);
                        run.reads.push(cost);
                    }
                    _ => run.failed += 1,
                }
            }
        }
        if i + 1 == steps.len() && peers[0].1.tally().is_some() {
            run.replay_eval = replay_rule_bodies(&rules, &db_peers)?;
        }
        last_peers = peers;
    }
    Ok(run)
}

fn dblp(inputs: &DblpInputs, size: &Size, traced: bool) -> Result<Run, String> {
    let mut run = Run {
        threads: 1,
        ..Run::default()
    };
    let generate = || -> Result<P2PSystemBuilder, String> {
        let mut b = build_system(&inputs.config).map_err(|e| e.to_string())?;
        let c = b.config_mut();
        c.codec = Codec::Binary;
        c.durability = true;
        Ok(b)
    };
    // The centralized chase starts from the same base data and rules.
    let mut oracle_builder = generate()?;
    let rules = oracle_builder.rules().clone();
    let max_null_depth = oracle_builder.config_mut().max_null_depth;
    let mut initial: BTreeMap<NodeId, Database> = oracle_builder
        .build_peers()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(id, p)| (id, p.database().clone()))
        .collect();

    let check_initial = |peers: &[&DbPeer]| all_closed_and_retired(peers);
    let mut net = set_up(&mut run, size, traced, &generate, &check_initial)?;
    let steps = dblp_steps(inputs, size);
    let mut answers: Vec<(NodeId, Vec<Tuple>)> = Vec::new();
    drive_sim(
        &mut run,
        &mut net,
        &steps,
        &mut |run, _, peers| run.wrong(all_closed_and_retired(peers)),
        &mut |_, node, answer| answers.push((node, answer.to_vec())),
    );
    for step in &steps {
        if let Step::Write { root, facts } = step {
            let db = initial
                .get_mut(root)
                .ok_or_else(|| format!("unknown writer {root}"))?;
            for (rel, vals) in facts {
                db.insert_values(rel, vals.clone())
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let oracle = global_fixpoint(&initial, &rules, max_null_depth).map_err(|e| e.to_string())?;
    let peers = net.host().db_peers();
    let actual = p2p_core::GlobalDb(
        peers
            .iter()
            .map(|p| (p.id(), p.database().clone()))
            .collect(),
    );
    if !actual.equivalent(&oracle) {
        run.wrong(Err(
            "final global database differs from the centralized chase".into(),
        ));
    }
    let count = answers.len();
    for (i, (node, answer)) in answers.iter().enumerate() {
        let db = oracle
            .0
            .get(node)
            .ok_or_else(|| format!("unknown reader {node}"))?;
        let q = p2p_relational::query::parse_query(dblp_query(*node)).map_err(|e| e.to_string())?;
        let expected: BTreeSet<Tuple> = p2p_relational::query::evaluate_certain(&q, db)
            .map_err(|e| e.to_string())?
            .into_iter()
            .collect();
        run.wrong(check_read_against_oracle(
            *node,
            answer,
            &expected,
            i + 1 == count,
        ));
    }
    if traced {
        run.replay_eval = replay_rule_bodies(&rules, &peers)?;
    }
    set_up_after(&mut run, net, size, traced, &generate, &check_initial)?;
    Ok(run)
}
