//! Machine topology: sockets, cores and the NUMA distance matrix.
//!
//! The evaluation machine of the paper is an Atos Bull bullion S16 with
//! 8 sockets and 4 cores used per socket. bullion machines are built from
//! 2-socket modules glued together by a node controller (BCS), so the NUMA
//! distance between two sockets depends on whether they share a module.
//! [`Topology::bullion_s16`] models exactly that.

use serde::{de, Deserialize, Reader, Serialize, Writer};

use crate::ids::{CoreId, NodeId, SocketId};

/// ACPI-SLIT style distance matrix between NUMA nodes.
///
/// The local distance is conventionally `10`; a value of `21` means an
/// access is 2.1 times as expensive as a local one.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n × n` matrix of relative distances.
    values: Vec<u32>,
}

impl DistanceMatrix {
    /// Local distance used by convention (ACPI SLIT).
    pub const LOCAL: u32 = 10;

    /// Builds a distance matrix from a row-major vector of `n * n` values.
    ///
    /// # Panics
    /// Panics if `values.len() != n * n`, if any diagonal element is not
    /// [`Self::LOCAL`], if the matrix is not symmetric or if a distance is
    /// below [`Self::LOCAL`].
    pub fn from_rows(n: usize, values: Vec<u32>) -> Self {
        Self::checked(n, values).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DistanceMatrix::from_rows`], refusing instead of panicking: the one
    /// validation of a matrix, which the wire decode runs too.
    fn checked(n: usize, values: Vec<u32>) -> Result<Self, String> {
        if n.checked_mul(n) != Some(values.len()) {
            return Err(format!(
                "distance matrix must be n*n: {} entries for {n} nodes",
                values.len()
            ));
        }
        let at = |i: usize, j: usize| values[i * n + j];
        for i in 0..n {
            if at(i, i) != Self::LOCAL {
                return Err(format!(
                    "diagonal of distance matrix must be the local distance {}: d[{i}][{i}] = {}",
                    Self::LOCAL,
                    at(i, i)
                ));
            }
            for j in 0..n {
                if at(i, j) != at(j, i) {
                    return Err(format!(
                        "distance matrix must be symmetric: d[{i}][{j}] = {}, d[{j}][{i}] = {}",
                        at(i, j),
                        at(j, i)
                    ));
                }
                if at(i, j) < Self::LOCAL {
                    return Err(format!(
                        "remote distance cannot be smaller than the local distance: d[{i}][{j}] = {}",
                        at(i, j)
                    ));
                }
            }
        }
        Ok(DistanceMatrix { n, values })
    }

    /// The distinct distance values of the matrix, ascending.
    pub(crate) fn distinct_distances(&self) -> Vec<u32> {
        let mut distances = self.values.clone();
        distances.sort_unstable();
        distances.dedup();
        distances
    }

    /// A uniform matrix: every remote access has the same `remote` distance.
    pub(crate) fn uniform(n: usize, remote: u32) -> Self {
        assert!(remote >= Self::LOCAL);
        let mut values = vec![remote; n * n];
        for i in 0..n {
            values[i * n + i] = Self::LOCAL;
        }
        DistanceMatrix { n, values }
    }

    /// Number of NUMA nodes covered by this matrix.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Distance between two nodes.
    #[inline]
    pub(crate) fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.values[a.index() * self.n + b.index()]
    }

    /// Largest distance in the matrix (the "diameter" of the machine).
    pub(crate) fn max_distance(&self) -> u32 {
        self.values.iter().copied().max().unwrap_or(Self::LOCAL)
    }
}

/// Description of the machine: how many sockets, how many cores per socket,
/// and how far apart the NUMA nodes are.
///
/// The topology is immutable once built; runtimes and policies share it by
/// reference (it is cheap to clone as well).
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    num_sockets: usize,
    cores_per_socket: usize,
    distances: DistanceMatrix,
    name: String,
}

impl Topology {
    /// Builds a topology with an explicit distance matrix.
    ///
    /// # Panics
    /// Panics if the distance matrix size does not match `num_sockets`, or if
    /// either dimension is zero.
    pub fn new(
        name: impl Into<String>,
        num_sockets: usize,
        cores_per_socket: usize,
        distances: DistanceMatrix,
    ) -> Self {
        Self::checked(name.into(), num_sockets, cores_per_socket, Ok(distances))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Topology::new`], refusing instead of panicking: the one validation
    /// of a machine, which the wire decode runs too. The dimensions are
    /// judged before the distance matrix, whose own complaint (if any)
    /// `distances` carries.
    fn checked(
        name: String,
        num_sockets: usize,
        cores_per_socket: usize,
        distances: Result<DistanceMatrix, String>,
    ) -> Result<Self, String> {
        if num_sockets == 0 {
            return Err("a machine needs at least one socket".to_string());
        }
        if cores_per_socket == 0 {
            return Err("a socket needs at least one core".to_string());
        }
        let distances = distances?;
        if distances.len() != num_sockets {
            return Err(format!(
                "distance matrix must have one row per socket: {} rows for {num_sockets} sockets",
                distances.len()
            ));
        }
        Ok(Topology {
            num_sockets,
            cores_per_socket,
            distances,
            name,
        })
    }

    /// The machine used in the paper's evaluation: an Atos Bull bullion S16
    /// configured with 8 sockets and 4 cores per socket (32 workers).
    ///
    /// bullion systems pair sockets into modules connected by an external
    /// node controller, so the distance is `10` locally, `15` to the sibling
    /// socket inside the same module and `27` across modules — mirroring the
    /// ~2.7× remote/local latency ratios reported for this class of machine.
    pub fn bullion_s16() -> Self {
        let n = 8;
        let mut values = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = if i == j {
                    DistanceMatrix::LOCAL
                } else if i / 2 == j / 2 {
                    15
                } else {
                    27
                };
            }
        }
        Topology::new(
            "bullion_s16 (8 sockets x 4 cores)",
            n,
            4,
            DistanceMatrix::from_rows(n, values),
        )
    }

    /// A commodity dual-socket server (distance 21 between the two sockets).
    pub fn two_socket(cores_per_socket: usize) -> Self {
        Topology::new(
            format!("2-socket x {cores_per_socket} cores"),
            2,
            cores_per_socket,
            DistanceMatrix::uniform(2, 21),
        )
    }

    /// A four-socket, fully connected server (uniform remote distance 21).
    pub fn four_socket(cores_per_socket: usize) -> Self {
        Topology::new(
            format!("4-socket x {cores_per_socket} cores"),
            4,
            cores_per_socket,
            DistanceMatrix::uniform(4, 21),
        )
    }

    /// A single-socket (UMA) machine; useful as a degenerate baseline where
    /// every policy must behave identically.
    pub fn uma(cores: usize) -> Self {
        Topology::new(
            format!("UMA x {cores} cores"),
            1,
            cores,
            DistanceMatrix::uniform(1, DistanceMatrix::LOCAL),
        )
    }

    /// A generic `sockets × cores` machine with uniform remote distance 21,
    /// used by the socket-count ablation.
    pub fn symmetric(sockets: usize, cores_per_socket: usize) -> Self {
        Topology::new(
            format!("{sockets}-socket x {cores_per_socket} cores"),
            sockets,
            cores_per_socket,
            DistanceMatrix::uniform(sockets, 21),
        )
    }

    /// Human-readable name of the preset.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of sockets (== number of NUMA nodes).
    pub fn num_sockets(&self) -> usize {
        self.num_sockets
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Total number of cores (workers).
    pub fn num_cores(&self) -> usize {
        self.num_sockets * self.cores_per_socket
    }

    /// Socket that owns a core. Cores are numbered socket-major:
    /// cores `0..cores_per_socket` live on socket 0, etc.
    #[inline]
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        debug_assert!(core.index() < self.num_cores());
        SocketId(core.index() / self.cores_per_socket)
    }

    /// The cores that belong to a socket, in increasing id order.
    pub fn cores_of(&self, socket: SocketId) -> impl Iterator<Item = CoreId> + '_ {
        debug_assert!(socket.index() < self.num_sockets);
        let start = socket.index() * self.cores_per_socket;
        (start..start + self.cores_per_socket).map(CoreId)
    }

    /// All sockets of the machine.
    pub fn sockets(&self) -> impl Iterator<Item = SocketId> {
        (0..self.num_sockets).map(SocketId)
    }

    /// All NUMA nodes of the machine.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_sockets).map(NodeId)
    }

    /// All cores of the machine.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }

    /// The distance matrix.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// NUMA distance between two nodes.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.distances.distance(a, b)
    }

    /// Nodes sorted by distance from `from` (closest first, `from` itself is
    /// always first). Used by policies that spill work to the nearest node.
    pub fn nodes_by_distance(&self, from: NodeId) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.nodes().collect();
        nodes.sort_by_key(|&n| (self.distance(from, n), n.index()));
        nodes
    }
}

/// The wire form: `{name, sockets, cores, distances}`, the matrix row-major.
impl Serialize for Topology {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.field("name", &self.name);
        out.field("sockets", &self.num_sockets);
        out.field("cores", &self.cores_per_socket);
        out.field("distances", &self.distances.values);
        out.end_object();
    }
}

/// Refuses, with [`Topology::new`]'s words, every machine it would panic on.
impl Deserialize for Topology {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, String> {
        const OWNER: &str = "Topology";
        let (mut name, mut sockets, mut cores, mut distances) = (None, None, None, None);
        let first = de::begin(input, OWNER)?;
        de::members(input, first, |input, key| match key {
            "name" => de::take(&mut name, input, OWNER, key),
            "sockets" => de::take(&mut sockets, input, OWNER, key),
            "cores" => de::take(&mut cores, input, OWNER, key),
            "distances" => de::take(&mut distances, input, OWNER, key),
            _ => Ok(false),
        })?;
        let name = de::present(name, OWNER, "name")?;
        let sockets = de::present(sockets, OWNER, "sockets")?;
        let cores = de::present(cores, OWNER, "cores")?;
        let distances = de::present(distances, OWNER, "distances")?;
        Topology::checked(
            name,
            sockets,
            cores,
            DistanceMatrix::checked(sockets, distances),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn bullion_dimensions() {
        let t = Topology::bullion_s16();
        assert_eq!(t.num_sockets(), 8);
        assert_eq!(t.cores_per_socket(), 4);
        assert_eq!(t.num_cores(), 32);
    }

    #[test]
    fn bullion_distance_structure() {
        let t = Topology::bullion_s16();
        // Local.
        assert_eq!(t.distance(NodeId(3), NodeId(3)), 10);
        // Same module (sockets 0 and 1 are paired; 2 and 3; ...).
        assert_eq!(t.distance(NodeId(0), NodeId(1)), 15);
        assert_eq!(t.distance(NodeId(6), NodeId(7)), 15);
        // Cross module.
        assert_eq!(t.distance(NodeId(0), NodeId(2)), 27);
        assert_eq!(t.distance(NodeId(1), NodeId(7)), 27);
        // Symmetry.
        for a in t.nodes() {
            for b in t.nodes() {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn socket_core_mapping_is_socket_major() {
        let t = Topology::bullion_s16();
        assert_eq!(t.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(3)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(4)), SocketId(1));
        assert_eq!(t.socket_of(CoreId(31)), SocketId(7));
        let cores: Vec<_> = t.cores_of(SocketId(2)).collect();
        assert_eq!(cores, vec![CoreId(8), CoreId(9), CoreId(10), CoreId(11)]);
    }

    #[test]
    fn every_core_maps_back_to_its_socket() {
        let t = Topology::bullion_s16();
        for s in t.sockets() {
            for c in t.cores_of(s) {
                assert_eq!(t.socket_of(c), s);
            }
        }
    }

    #[test]
    fn uma_machine_has_unit_relative_cost() {
        let t = Topology::uma(4);
        assert_eq!(t.num_sockets(), 1);
        assert_eq!(t.num_cores(), 4);
        assert_eq!(t.distance(NodeId(0), NodeId(0)), DistanceMatrix::LOCAL);
    }

    #[test]
    fn uniform_matrix_properties() {
        let d = DistanceMatrix::uniform(4, 21);
        assert_eq!(d.len(), 4);
        assert_eq!(d.distance(NodeId(0), NodeId(0)), 10);
        assert_eq!(d.distance(NodeId(0), NodeId(3)), 21);
        assert_eq!(d.max_distance(), 21);
    }

    #[test]
    fn nodes_by_distance_orders_local_first() {
        let t = Topology::bullion_s16();
        let order = t.nodes_by_distance(NodeId(2));
        assert_eq!(order[0], NodeId(2));
        assert_eq!(order[1], NodeId(3)); // sibling in the same module
        assert_eq!(order.len(), 8);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        DistanceMatrix::from_rows(2, vec![10, 21, 25, 10]);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn bad_diagonal_rejected() {
        DistanceMatrix::from_rows(2, vec![12, 21, 21, 10]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        Topology::new("bad", 2, 0, DistanceMatrix::uniform(2, 21));
    }

    #[test]
    fn a_topology_round_trips_through_its_wire_form() {
        for t in [
            Topology::bullion_s16(),
            Topology::uma(3),
            Topology::symmetric(64, 1),
        ] {
            assert_eq!(
                serde_json::from_value::<Topology>(&serde_json::to_value(&t)),
                Ok(t.clone())
            );
        }
        let wire = serde_json::to_string(&Topology::two_socket(2)).unwrap();
        serde::testing::assert_struct_rejects_malformed(&wire, &[], serde::decode::<Topology>);
    }

    /// Every machine [`Topology::new`] would panic on is refused on the
    /// wire, in the words of the panic.
    #[test]
    fn the_wire_decode_refuses_what_the_constructors_panic_on() {
        let topology = |sockets: f64, cores: f64, distances: &[u32]| {
            Value::Object(vec![
                ("name".to_string(), serde_json::to_value(&"m")),
                ("sockets".to_string(), Value::Number(sockets)),
                ("cores".to_string(), Value::Number(cores)),
                ("distances".to_string(), serde_json::to_value(&distances)),
            ])
        };
        for (wire, complaint) in [
            (
                topology(0.0, 2.0, &[10]),
                "a machine needs at least one socket",
            ),
            (
                topology(2.0, 0.0, &[10, 21, 21, 10]),
                "a socket needs at least one core",
            ),
            (
                topology(2.0, 2.0, &[10, 21, 30, 10]),
                "distance matrix must be symmetric: d[0][1] = 21, d[1][0] = 30",
            ),
            (
                topology(2.0, 2.0, &[0, 21, 21, 10]),
                "diagonal of distance matrix must be the local distance 10: d[0][0] = 0",
            ),
            (
                topology(2.0, 2.0, &[10, 9, 9, 10]),
                "remote distance cannot be smaller than the local distance: d[0][1] = 9",
            ),
            (
                topology(2.0, 2.0, &[10, 21, 21]),
                "distance matrix must be n*n: 3 entries for 2 nodes",
            ),
            (
                topology(2f64.powi(33), 1.0, &[10]),
                "distance matrix must be n*n: 1 entries for 8589934592 nodes",
            ),
        ] {
            assert_eq!(
                serde_json::from_value::<Topology>(&wire),
                Err(complaint.to_string())
            );
        }
    }

    #[test]
    fn symmetric_preset_scales() {
        for s in [2, 4, 8, 16] {
            let t = Topology::symmetric(s, 4);
            assert_eq!(t.num_sockets(), s);
            assert_eq!(t.num_cores(), 4 * s);
        }
    }
}
