//! Traffic accounting: how many bytes were served locally vs. remotely.
//!
//! The whole point of the paper's techniques is to increase the fraction of
//! task input/output bytes that are served from the socket the task runs on.
//! [`TrafficStats`] is the ledger both executors write to, and the local
//! fraction `figure1` reports next to the speedups.

use std::collections::BTreeMap;

use serde::{de, Deserialize, Reader, Serialize, Token, Writer};

use crate::ids::NodeId;
use crate::topology::DistanceMatrix;

/// Byte counters accumulated over an execution.
///
/// Every counter saturates: recording and [`TrafficStats::total_bytes`]
/// stop at the type's maximum, so accesses adding up to more than
/// `u64::MAX` bytes report `u64::MAX`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficStats {
    /// Bytes accessed from the node local to the executing core.
    pub local_bytes: u64,
    /// Bytes accessed from a remote node.
    pub remote_bytes: u64,
    /// Bytes whose placement happened via first touch during the execution
    /// (deferred allocations performed). These are charged as local because
    /// the touching socket becomes the home.
    pub deferred_allocated_bytes: u64,
    /// Per (source node, destination node) matrix of transferred bytes:
    /// `link[(from, to)]` = bytes read by cores of `to` from memory of `from`.
    link: BTreeMap<(usize, usize), u64>,
    /// Weighted sum of bytes × SLIT distance, to compute the average access
    /// distance.
    distance_weighted_bytes: u128,
}

impl TrafficStats {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access of `bytes` bytes by a core on `core_node` to data
    /// living on `data_node`, at SLIT `distance`.
    pub fn record_access(
        &mut self,
        core_node: NodeId,
        data_node: NodeId,
        distance: u32,
        bytes: u64,
    ) {
        let counter = if core_node == data_node {
            &mut self.local_bytes
        } else {
            &mut self.remote_bytes
        };
        *counter = counter.saturating_add(bytes);
        let link = self
            .link
            .entry((data_node.index(), core_node.index()))
            .or_default();
        *link = link.saturating_add(bytes);
        self.distance_weighted_bytes = self
            .distance_weighted_bytes
            .saturating_add(u128::from(bytes) * u128::from(distance));
    }

    /// Folds a dense row-major byte matrix over the nodes of `distances`
    /// into the ledger: `matrix[from * n + to]` = bytes read by cores of `to`
    /// from memory of `from`. Each non-zero entry is recorded as one access
    /// at the pair's distance, which leaves exactly the ledger per-access
    /// [`TrafficStats::record_access`] calls summing to the matrix would
    /// have: every counter is an integer sum, so grouping the accesses of a
    /// node pair changes nothing. The executors' hot loops fill such a
    /// matrix (one add per access) and fold it once per run.
    pub fn fold_link_matrix(&mut self, matrix: &[u64], distances: &DistanceMatrix) {
        let n = distances.len();
        debug_assert_eq!(matrix.len(), n * n);
        for (i, &bytes) in matrix.iter().enumerate() {
            if bytes > 0 {
                let (data_node, core_node) = (NodeId(i / n), NodeId(i % n));
                let distance = distances.distance(core_node, data_node);
                self.record_access(core_node, data_node, distance, bytes);
            }
        }
    }

    /// Records a deferred allocation of `bytes` on the executing node.
    pub fn record_deferred_allocation(&mut self, bytes: u64) {
        self.deferred_allocated_bytes = self.deferred_allocated_bytes.saturating_add(bytes);
    }

    /// Total bytes accessed.
    pub fn total_bytes(&self) -> u64 {
        self.local_bytes.saturating_add(self.remote_bytes)
    }

    /// Fraction of bytes served locally, in `[0, 1]`. Returns 1.0 when no
    /// traffic was recorded (vacuously all-local).
    pub fn local_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            1.0
        } else {
            self.local_bytes as f64 / total as f64
        }
    }

    /// Iterates the link matrix entries as `((from, to), bytes)`, in
    /// deterministic key order.
    pub fn link_entries(&self) -> impl Iterator<Item = ((usize, usize), u64)> + '_ {
        self.link.iter().map(|(&k, &v)| (k, v))
    }

    /// The sum over accessed bytes of their SLIT distance.
    pub fn distance_weighted(&self) -> u128 {
        self.distance_weighted_bytes
    }
}

/// The wire form carries the exact parts, private matrix included —
/// re-deriving the counters would not round-trip, as the recording methods
/// couple them: `{local, remote, deferred, dw, links}`, with `links` as
/// `[from, to, bytes]` triples in key order.
impl Serialize for TrafficStats {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.field("local", &self.local_bytes);
        out.field("remote", &self.remote_bytes);
        out.field("deferred", &self.deferred_allocated_bytes);
        out.field("dw", &self.distance_weighted_bytes);
        out.key("links");
        out.begin_array();
        for (&(from, to), &bytes) in &self.link {
            out.element();
            [from as u64, to as u64, bytes].serialize(out);
        }
        out.end_array();
        out.end_object();
    }
}

/// One `[from, to, bytes]` entry of the wire form's `links`.
struct Link((usize, usize), u64);

impl Deserialize for Link {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, String> {
        let wrong = || "must be an array of 3 entries".to_string();
        let mut more = input.peek() == Ok(Token::Array) && input.begin_array()?;
        let mut part = |input: &mut Reader<'_>, at: usize| -> Result<u64, String> {
            if !more {
                return Err(wrong());
            }
            let part = u64::deserialize(input);
            more = input.next_element()?;
            part.map_err(|e| format!("[{at}]: {e}"))
        };
        let (from, to, bytes) = (part(input, 0)?, part(input, 1)?, part(input, 2)?);
        match more {
            true => Err(wrong()),
            false => Ok(Link((from as usize, to as usize), bytes)),
        }
    }
}

impl Deserialize for TrafficStats {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, String> {
        const OWNER: &str = "TrafficStats";
        let (mut local, mut remote, mut deferred, mut dw, mut links) =
            (None, None, None, None, None);
        let first = de::begin(input, OWNER)?;
        de::members(input, first, |input, key| match key {
            "local" => de::take(&mut local, input, OWNER, key),
            "remote" => de::take(&mut remote, input, OWNER, key),
            "deferred" => de::take(&mut deferred, input, OWNER, key),
            "dw" => de::take(&mut dw, input, OWNER, key),
            "links" => de::take(&mut links, input, OWNER, key),
            _ => Ok(false),
        })?;
        Ok(TrafficStats {
            local_bytes: de::present(local, OWNER, "local")?,
            remote_bytes: de::present(remote, OWNER, "remote")?,
            deferred_allocated_bytes: de::present(deferred, OWNER, "deferred")?,
            distance_weighted_bytes: de::present(dw, OWNER, "dw")?,
            link: de::present::<Vec<Link>>(links, OWNER, "links")?
                .into_iter()
                .map(|Link(key, bytes)| (key, bytes))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_vacuously_local() {
        let s = TrafficStats::new();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.local_fraction(), 1.0);
    }

    #[test]
    fn local_and_remote_are_separated() {
        let mut s = TrafficStats::new();
        s.record_access(NodeId(0), NodeId(0), 10, 1000);
        s.record_access(NodeId(0), NodeId(3), 27, 3000);
        assert_eq!(s.local_bytes, 1000);
        assert_eq!(s.remote_bytes, 3000);
        assert_eq!(s.total_bytes(), 4000);
        assert!((s.local_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mean_distance_weights_by_bytes() {
        let mut s = TrafficStats::new();
        s.record_access(NodeId(0), NodeId(0), 10, 100);
        s.record_access(NodeId(0), NodeId(1), 30, 100);
        assert_eq!(s.distance_weighted(), 10 * 100 + 30 * 100);
    }

    #[test]
    fn link_matrix_tracks_direction() {
        let mut s = TrafficStats::new();
        // Core on node 2 reads from memory on node 5.
        s.record_access(NodeId(2), NodeId(5), 27, 500);
        assert_eq!(s.link_entries().collect::<Vec<_>>(), [((5, 2), 500)]);
    }

    #[test]
    fn a_recorded_ledger_round_trips_through_its_wire_form() {
        let mut s = TrafficStats::new();
        s.record_access(NodeId(0), NodeId(0), 10, 1000);
        s.record_access(NodeId(2), NodeId(5), 27, 500);
        s.record_access(NodeId(1), NodeId(0), 15, u64::MAX / 2);
        s.record_deferred_allocation(4096);
        let rebuilt: TrafficStats = serde::decode(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.distance_weighted(), s.distance_weighted());
        serde::testing::assert_struct_rejects_malformed(
            &serde_json::to_string(&s).unwrap(),
            &[],
            serde::decode::<TrafficStats>,
        );
    }

    #[test]
    fn every_counter_saturates() {
        let mut s = TrafficStats::new();
        s.record_access(NodeId(0), NodeId(0), 10, u64::MAX);
        s.record_access(NodeId(0), NodeId(0), 10, 1);
        s.record_access(NodeId(0), NodeId(1), 21, u64::MAX);
        s.record_deferred_allocation(u64::MAX);
        s.record_deferred_allocation(1);
        assert_eq!((s.local_bytes, s.remote_bytes), (u64::MAX, u64::MAX));
        assert_eq!(s.total_bytes(), u64::MAX);
        assert_eq!(s.deferred_allocated_bytes, u64::MAX);
        assert_eq!(
            s.link_entries().map(|(_, b)| b).collect::<Vec<_>>(),
            [u64::MAX; 2]
        );
        s.distance_weighted_bytes = u128::MAX - 1;
        s.record_access(NodeId(1), NodeId(0), 21, 1);
        assert_eq!(s.distance_weighted(), u128::MAX);
    }

    /// A small machine and an access sequence on it, both drawn from
    /// `words`: `(core_node, data_node, bytes)` triples.
    fn accesses_on(
        words: &[(u64, u64, u64)],
        nodes: usize,
    ) -> (DistanceMatrix, Vec<(NodeId, NodeId, u64)>) {
        let values = (0..nodes * nodes)
            .map(|i| {
                let (a, b) = (i / nodes, i % nodes);
                if a == b {
                    DistanceMatrix::LOCAL
                } else {
                    // Symmetric, and several pairs share a distance.
                    11 + ((a.min(b) * 7 + a.max(b) * 3) % 5) as u32 * 4
                }
            })
            .collect();
        let accesses = words
            .iter()
            .map(|&(c, d, bytes)| {
                (
                    NodeId(c as usize % nodes),
                    NodeId(d as usize % nodes),
                    bytes,
                )
            })
            .collect();
        (DistanceMatrix::from_rows(nodes, values), accesses)
    }

    proptest::proptest! {
        /// The single matrix fold leaves the ledger per-access recording
        /// leaves — link entries, local / remote bytes and the
        /// distance-weighted sum (`PartialEq` covers the private fields).
        #[test]
        fn matrix_fold_equals_per_access_recording(
            words in proptest::collection::vec((0u64..64, 0u64..64, 1u64..(1 << 40)), 0..200),
            nodes in 1usize..9,
        ) {
            let (distances, accesses) = accesses_on(&words, nodes);
            let mut recorded = TrafficStats::new();
            let mut matrix = vec![0u64; nodes * nodes];
            for &(core_node, data_node, bytes) in &accesses {
                let distance = distances.distance(core_node, data_node);
                recorded.record_access(core_node, data_node, distance, bytes);
                matrix[data_node.index() * nodes + core_node.index()] += bytes;
            }
            let mut folded = TrafficStats::new();
            folded.fold_link_matrix(&matrix, &distances);
            proptest::prop_assert_eq!(&folded, &recorded);
            proptest::prop_assert_eq!(folded.distance_weighted(), recorded.distance_weighted());
            proptest::prop_assert_eq!(
                folded.link_entries().collect::<Vec<_>>(),
                recorded.link_entries().collect::<Vec<_>>()
            );
        }
    }
}
