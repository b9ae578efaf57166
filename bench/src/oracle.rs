//! The oracle: every sampled answer is recomputed by a `Mode::Basic`,
//! free-cost cluster over the same generator and compared bit for bit.

use crate::drive::Digest;
use crate::shape::{self, Workload};
use stash_cluster::SimCluster;
use stash_model::AggQuery;

pub struct Oracle {
    cluster: SimCluster,
    pub checked: u64,
    pub mismatches: u64,
    /// The first disagreement, for the report.
    pub first: Option<String>,
}

impl Oracle {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Oracle {
            cluster: SimCluster::new(shape::oracle_config(workload, seed)),
            checked: 0,
            mismatches: 0,
            first: None,
        }
    }

    /// Compare one answer of the system under test with a raw-block scan:
    /// key set, counts, sums, min/max of every attribute, and — for
    /// sketched Cells — the estimator outputs.
    pub fn check(&mut self, query: &AggQuery, got: &Digest) {
        self.checked += 1;
        let problem = match self.cluster.client().query(query).run() {
            Err(e) => Some(format!("oracle query failed: {e}")),
            Ok(r) => describe_difference(&Digest::of(&r), got),
        };
        if let Some(p) = problem {
            self.mismatches += 1;
            self.first.get_or_insert_with(|| format!("{query}: {p}"));
        }
    }
}

fn describe_difference(want: &Digest, got: &Digest) -> Option<String> {
    if want == got {
        return None;
    }
    if want.cells.len() != got.cells.len() {
        return Some(format!(
            "{} non-empty Cells, oracle has {}",
            got.cells.len(),
            want.cells.len()
        ));
    }
    for ((wk, wa), (gk, ga)) in want.cells.iter().zip(&got.cells) {
        if wk != gk {
            return Some(format!("Cell key {gk:?}, oracle has {wk:?}"));
        }
        if wa != ga {
            return Some(format!(
                "Cell {gk:?}: count {} sum bits {:#x}, oracle count {} sum bits {:#x}",
                ga[0][0], ga[0][3], wa[0][0], wa[0][3]
            ));
        }
    }
    Some(format!(
        "sketch estimates {:?}, oracle has {:?}",
        got.estimates, want.estimates
    ))
}
