//! Seeded inputs. Everything a workload feeds the system — topology, base
//! data, writers, readers and the fresh facts each write inserts — comes
//! from the `--seed` argument alone, so one seed always gives one input.

use p2p_relational::Val;
use p2p_topology::{NodeId, Topology};
use p2p_workload::{DblpGenerator, Distribution, Publication, SchemaFamily, WorkloadConfig};

/// Writers rotate over this many distinct peers; a round of operations is
/// one write at each of them.
pub const WRITERS: usize = 4;

/// SplitMix64: a few lines of seeded generator, so the inputs depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct node ids out of `0..n`, in draw order.
    pub fn distinct_nodes(&mut self, k: usize, n: u32) -> Vec<NodeId> {
        assert!(k <= n as usize, "cannot draw {k} distinct nodes out of {n}");
        let mut out: Vec<NodeId> = Vec::with_capacity(k);
        while out.len() < k {
            let node = NodeId(self.below(u64::from(n)) as u32);
            if !out.contains(&node) {
                out.push(node);
            }
        }
        out
    }
}

/// Inputs of the two expander workloads: the flat `scale` scenario
/// (degree-4 expander, `records` items per peer, one one-hop copy rule per
/// dependency edge) plus the rotating writers and readers.
#[derive(Debug, Clone)]
pub struct ExpanderInputs {
    /// The network shape handed to `p2p_workload::scale_system`.
    pub topology: Topology,
    /// `item` tuples seeded at every peer.
    pub records: usize,
    /// Dependency edges `(head, body)`: the head's `inbox` imports the
    /// body's `item`s.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Rotating writers.
    pub writers: Vec<NodeId>,
    /// Rotating readers.
    pub readers: Vec<NodeId>,
    /// First id of the fresh items; write `k` inserts id `id_base + k`.
    pub id_base: i64,
}

/// Readers rotate over this many distinct peers.
pub const EXPANDER_READERS: usize = 8;

impl ExpanderInputs {
    /// The inputs for `n` peers and `seed`.
    pub fn new(n: u32, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let topology = Topology::Expander {
            n,
            degree: 4,
            seed: rng.next_u64(),
        };
        let edges = topology.generate().graph.edges().collect();
        let writers = rng.distinct_nodes(WRITERS, n);
        let readers = rng.distinct_nodes(EXPANDER_READERS.min(n as usize), n);
        // Seven-digit ids whatever the seed, so JSON byte counts do not
        // depend on it.
        let id_base = 1_000_000 + rng.below(800_000) as i64;
        ExpanderInputs {
            topology,
            records: 4,
            edges,
            writers,
            readers,
            id_base,
        }
    }

    /// Peer count.
    pub fn nodes(&self) -> usize {
        self.topology.node_count()
    }

    /// The `scale` scenario configuration these inputs describe.
    pub fn scale_config(&self) -> p2p_workload::ScaleConfig {
        p2p_workload::ScaleConfig {
            topology: self.topology,
            records_per_node: self.records,
        }
    }

    /// The fresh item write `k` inserts at its writer: `item(id, writer)`.
    pub fn fresh_item(&self, k: usize) -> (NodeId, Vec<Val>) {
        let writer = self.writers[k % self.writers.len()];
        let id = self.id_base + k as i64;
        (writer, vec![Val::Int(id), Val::Int(i64::from(writer.0))])
    }
}

/// The query every expander read asks.
pub const INBOX_QUERY: &str = "q(I, S) :- inbox(I, S)";

/// Inputs of the DBLP workload: the paper's Section-5 setting on a
/// 16-peer small world.
#[derive(Debug, Clone)]
pub struct DblpInputs {
    /// Topology, base data and overlap, handed to `p2p_workload::build_system`.
    pub config: WorkloadConfig,
    /// Rotating writers.
    pub writers: Vec<NodeId>,
    /// Rotating readers.
    pub readers: Vec<NodeId>,
    /// Seed of the fresh publications.
    pub pub_seed: u64,
}

/// Fresh publications each DBLP write inserts.
pub const DBLP_PUBS_PER_WRITE: usize = 2;

/// Readers rotate over this many distinct peers. Their read costs differ
/// several-fold, so the count is odd: with as many reads at each, the median
/// read then falls inside one reader's reads instead of on the gap between
/// two readers' (which moved `read_ms_p50` by a third between runs).
pub const DBLP_READERS: usize = 5;

/// Seed of the DBLP network's shape (topology, writers, readers).
const DBLP_SHAPE_SEED: u64 = 16;

impl DblpInputs {
    /// The inputs for `n` peers with `records` publications each, and `seed`.
    ///
    /// The network — topology, writers, readers — is part of the workload's
    /// definition and the same for every seed: at 16 peers, which edges a
    /// seed rewires and which schema families write would change a write's
    /// cost several-fold. The seed draws the data: publication contents,
    /// which records neighbours share, and the fresh publications.
    pub fn new(n: u32, records: usize, seed: u64) -> Self {
        let mut shape = Rng::new(DBLP_SHAPE_SEED);
        let topology = if n >= 8 {
            Topology::SmallWorld {
                n,
                k: 4,
                rewire_percent: 10,
                seed: shape.next_u64(),
            }
        } else {
            Topology::Ring { n }
        };
        let writers = shape.distinct_nodes(WRITERS, n);
        let readers = shape.distinct_nodes(DBLP_READERS.min(n as usize), n);
        let mut rng = Rng::new(seed);
        let config = WorkloadConfig {
            topology,
            records_per_node: records,
            distribution: Distribution::OverlapNeighbors { percent: 20 },
            seed: rng.next_u64(),
        };
        DblpInputs {
            config,
            writers,
            readers,
            pub_seed: rng.next_u64(),
        }
    }

    /// The fresh publications of every write, in write order, for `writes`
    /// writes: ids start at 1,000,000, far above the base data's.
    pub fn fresh_publications(&self, writes: usize) -> Vec<Publication> {
        let mut gen = DblpGenerator::new(self.pub_seed);
        (0..writes * DBLP_PUBS_PER_WRITE)
            .map(|k| Publication {
                id: 1_000_000 + k as i64,
                ..gen.publication()
            })
            .collect()
    }
}

/// The read query at a DBLP peer: every publication's `(id, title, year)`
/// in that peer's schema family.
pub fn dblp_query(node: NodeId) -> &'static str {
    match SchemaFamily::for_node(node.0) {
        SchemaFamily::S1 => "q(I, T, Y) :- pub(I, T, Y)",
        SchemaFamily::S2 => "q(I, T, Y) :- article(I, T, V, Y, N)",
        SchemaFamily::S3 => "q(I, T, Y) :- paper(I, T, Y)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = ExpanderInputs::new(64, 5);
        let b = ExpanderInputs::new(64, 5);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.writers, b.writers);
        assert_eq!(a.readers, b.readers);
        assert_eq!(a.id_base, b.id_base);
        let c = ExpanderInputs::new(64, 6);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn writers_and_readers_are_distinct() {
        let inputs = DblpInputs::new(16, 30, 9);
        let mut w = inputs.writers.clone();
        w.sort();
        w.dedup();
        assert_eq!(w.len(), WRITERS);
        let mut r = inputs.readers.clone();
        r.sort();
        r.dedup();
        assert_eq!(r.len(), DBLP_READERS);
    }
}
