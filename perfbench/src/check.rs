//! Expected results computed apart from the program under test.
//!
//! The expander workloads are checked against closed forms derived from the
//! generated edge list and the inserted items; the DBLP workload against
//! the centralized chase (`p2p_core::oracle::global_fixpoint`) over the
//! initial data plus every inserted publication. Each check returns `Err`
//! with a message naming what differed.

use p2p_relational::{Tuple, Val};
use p2p_topology::NodeId;
use std::collections::BTreeSet;

/// The expander fix-point in closed form. A peer keeps its own `item`s and
/// its `inbox` holds `(id, src)` for every item of every body it imports
/// from, so the network-wide tuple count is
/// `(nodes + edges) × records + Σ_inserted (1 + importers of the writer)`.
#[derive(Debug, Clone)]
pub struct ExpanderModel {
    records: usize,
    nodes: usize,
    edges: usize,
    /// Bodies each head imports from.
    bodies_of: Vec<Vec<NodeId>>,
    /// Heads importing from each body.
    importers: Vec<usize>,
    /// Fresh items inserted so far: `(id, writer)`.
    inserted: Vec<(i64, NodeId)>,
}

impl ExpanderModel {
    /// The model of the base data, before any write.
    pub fn new(nodes: usize, edges: &[(NodeId, NodeId)], records: usize) -> Self {
        let mut bodies_of = vec![Vec::new(); nodes];
        let mut importers = vec![0usize; nodes];
        for &(head, body) in edges {
            bodies_of[head.0 as usize].push(body);
            importers[body.0 as usize] += 1;
        }
        ExpanderModel {
            records,
            nodes,
            edges: edges.len(),
            bodies_of,
            importers,
            inserted: Vec::new(),
        }
    }

    /// Records one fresh item inserted at `writer`.
    pub fn insert(&mut self, id: i64, writer: NodeId) {
        self.inserted.push((id, writer));
    }

    /// Network-wide tuple count at the fix-point.
    pub fn total_tuples(&self) -> usize {
        let fresh: usize = self
            .inserted
            .iter()
            .map(|&(_, w)| 1 + self.importers[w.0 as usize])
            .sum();
        (self.nodes + self.edges) * self.records + fresh
    }

    /// `reader`'s `inbox` at the fix-point, as `(id, src)` pairs.
    pub fn inbox(&self, reader: NodeId) -> BTreeSet<(i64, i64)> {
        let mut out = BTreeSet::new();
        for &body in &self.bodies_of[reader.0 as usize] {
            let src = i64::from(body.0);
            out.extend((0..self.records as i64).map(|i| (i, src)));
            out.extend(
                self.inserted
                    .iter()
                    .filter(|&&(_, w)| w == body)
                    .map(|&(id, _)| (id, src)),
            );
        }
        out
    }
}

/// Compares a network-wide tuple count with its expected value.
pub fn check_total(what: &str, actual: usize, expected: usize) -> Result<(), String> {
    if actual == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: {actual} tuples, closed form says {expected}"
        ))
    }
}

/// Reads an answer of `(int, int)` rows as a set of pairs.
pub fn int_pairs(answer: &[Tuple]) -> Result<BTreeSet<(i64, i64)>, String> {
    answer
        .iter()
        .map(|t| {
            let v: Vec<&Val> = t.values().collect();
            match v.as_slice() {
                [Val::Int(a), Val::Int(b)] => Ok((*a, *b)),
                _ => Err(format!("answer row {t:?} is not two integers")),
            }
        })
        .collect()
}

/// Compares a reader's answer with the expected `(id, src)` set.
pub fn check_inbox(
    reader: NodeId,
    answer: &[Tuple],
    expected: &BTreeSet<(i64, i64)>,
) -> Result<(), String> {
    let got = int_pairs(answer)?;
    if &got == expected {
        Ok(())
    } else {
        let missing = expected.difference(&got).count();
        let extra = got.difference(expected).count();
        Err(format!(
            "read at {reader}: {} rows, expected {} ({missing} missing, {extra} unexpected)",
            got.len(),
            expected.len()
        ))
    }
}

/// Checks a DBLP read against the oracle's answer at the same peer: a read
/// taken before the last write must be a subset (inserts are monotone), the
/// last read must be equal.
pub fn check_read_against_oracle(
    reader: NodeId,
    answer: &[Tuple],
    oracle: &BTreeSet<Tuple>,
    last: bool,
) -> Result<(), String> {
    let got: BTreeSet<Tuple> = answer.iter().cloned().collect();
    if !got.is_subset(oracle) {
        let extra = got.difference(oracle).count();
        return Err(format!(
            "read at {reader}: {extra} rows the centralized chase does not derive"
        ));
    }
    if last && got.len() != oracle.len() {
        return Err(format!(
            "last read at {reader}: {} rows, centralized chase gives {}",
            got.len(),
            oracle.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3() -> Vec<(NodeId, NodeId)> {
        vec![
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(2)),
            (NodeId(2), NodeId(0)),
        ]
    }

    #[test]
    fn closed_form_counts_inserted_items_once_per_importer() {
        let mut m = ExpanderModel::new(3, &ring3(), 2);
        assert_eq!(m.total_tuples(), (3 + 3) * 2);
        m.insert(100, NodeId(1));
        // The item itself plus one copy at its single importer.
        assert_eq!(m.total_tuples(), 12 + 2);
        let inbox = m.inbox(NodeId(0));
        assert!(inbox.contains(&(100, 1)));
        assert_eq!(inbox.len(), 3);
    }

    #[test]
    fn wrong_answers_are_rejected() {
        let m = ExpanderModel::new(3, &ring3(), 1);
        let right = vec![Tuple::new(vec![Val::Int(0), Val::Int(1)])];
        assert!(check_inbox(NodeId(0), &right, &m.inbox(NodeId(0))).is_ok());
        let wrong = vec![Tuple::new(vec![Val::Int(0), Val::Int(2)])];
        assert!(check_inbox(NodeId(0), &wrong, &m.inbox(NodeId(0))).is_err());
        assert!(check_total("t", 6, 7).is_err());
    }
}
