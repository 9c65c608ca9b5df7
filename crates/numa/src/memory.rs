//! Placement of data regions onto NUMA nodes.
//!
//! Tasks in the modelled runtime operate on *regions*: contiguous blocks of
//! bytes such as one tile of a blocked matrix. The operating system places
//! memory at page granularity, and the placement is decided by whichever
//! core *first touches* each page. The paper's *deferred allocation* policy
//! postpones that first touch for a task's output regions until the task has
//! been assigned to a socket, so the runtime controls where the data ends up.
//!
//! [`MemoryMap`] tracks, for every region, whether it has been placed and on
//! which node. A region is placed whole: one task touches all of it first,
//! which is the only placement the executors produce.

use crate::ids::{NodeId, RegionId};

/// Where the bytes of a region currently live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The region has been registered but no page has been touched yet —
    /// the state deferred allocation keeps output regions in until the
    /// producing task is scheduled.
    Unallocated,
    /// All pages of the region live on a single node (the result of a first
    /// touch by one socket, or of an explicit placement).
    Node(NodeId),
}

impl Placement {
    /// True if the region has a home node.
    pub(crate) fn is_allocated(&self) -> bool {
        !matches!(self, Placement::Unallocated)
    }

    /// If the whole region lives on one node, that node.
    pub fn single_node(&self) -> Option<NodeId> {
        match self {
            Placement::Node(n) => Some(*n),
            Placement::Unallocated => None,
        }
    }
}

/// The part of an access touching `access_bytes` bytes of a `region_size`-byte
/// region that falls on `resident` of the region's bytes:
/// `round(resident × access_bytes / max(region_size, 1))` in `f64`. The one
/// place the executors' traffic charging and the policies' socket weighting
/// get the formula from; its operation order is part of every committed
/// makespan.
///
/// The two cases a [`MemoryMap`] produces are answered without the floats,
/// because the formula returns an operand there: a whole-region access
/// (`access_bytes == region_size`) yields `resident`, an access to a region
/// with one home (`resident == region_size`) yields `access_bytes`. With
/// `a = region_size as f64` and unit roundoff `u = 2^-53`,
/// `fl(fl(r·a)/a) = r(1+e1)(1+e2)` with `|e1|, |e2| ≤ u`, so the quotient is
/// within `r(2u+u²) < 0.5` of `r` for every `r < 2^51` and rounds to `r`
/// (whatever `region_size` rounded to in its own conversion — both uses see
/// the same `a`). From `2^53 + 1` on the operand itself no longer converts
/// exactly, so the bound is load-bearing.
#[inline]
fn scaled_share(resident: u64, access_bytes: u64, region_size: u64) -> u64 {
    const EXACT_BELOW: u64 = 1 << 51;
    if region_size != 0 {
        if access_bytes == region_size && resident < EXACT_BELOW {
            return resident;
        }
        if resident == region_size && access_bytes < EXACT_BELOW {
            return access_bytes;
        }
    }
    ((resident as f64) * (access_bytes as f64) / (region_size.max(1) as f64)).round() as u64
}

/// The NUMA memory state of the machine: which node holds each region.
///
/// The map is a pure bookkeeping structure — it never allocates real memory.
/// Both the discrete-event simulator and the threaded executor use it as the
/// single source of truth for data location, which is exactly the
/// information the paper's scheduling policies consume.
#[derive(Clone, Debug, Default)]
pub struct MemoryMap {
    /// `(size in bytes, placement)` per region, indexed by region id.
    regions: Vec<(u64, Placement)>,
}

impl MemoryMap {
    /// Creates an empty memory map.
    pub fn new() -> Self {
        Self::default()
    }

    /// A map holding one unallocated region per entry of `sizes`, with ids in
    /// slice order — what an executor builds per run from a workload's region
    /// table, in one allocation.
    pub fn with_regions(sizes: &[u64]) -> Self {
        MemoryMap {
            regions: sizes
                .iter()
                .map(|&size| (size, Placement::Unallocated))
                .collect(),
        }
    }

    /// Registers a new region of `size_bytes` bytes and returns its id.
    /// The region starts unallocated (deferred).
    pub fn register(&mut self, size_bytes: u64) -> RegionId {
        let id = RegionId(self.regions.len());
        self.regions.push((size_bytes, Placement::Unallocated));
        id
    }

    /// Size of a region in bytes.
    ///
    /// # Panics
    /// Panics (like every per-region accessor) if the region id was not
    /// produced by this map.
    pub fn size_of(&self, region: RegionId) -> u64 {
        self.regions[region.index()].0
    }

    /// Current placement of a region.
    pub fn placement(&self, region: RegionId) -> &Placement {
        &self.regions[region.index()].1
    }

    /// True if the region has been placed.
    pub fn is_allocated(&self, region: RegionId) -> bool {
        self.placement(region).is_allocated()
    }

    /// Places the whole region on `node`, as the paper's deferred allocation
    /// does when the producing task is finally scheduled. Overwrites any
    /// previous placement (modelling a migration).
    pub fn place(&mut self, region: RegionId, node: NodeId) {
        self.regions[region.index()].1 = Placement::Node(node);
    }

    /// Splits one task access — `access_bytes` bytes of `region` — over the
    /// node currently holding the region: `visit(home, share)` if the region
    /// has a home (a share can round to zero), and the share that has no
    /// home yet as the return value.
    #[inline]
    pub fn access_shares(
        &self,
        region: RegionId,
        access_bytes: u64,
        mut visit: impl FnMut(NodeId, u64),
    ) -> u64 {
        match self.regions[region.index()] {
            (size, Placement::Node(home)) => {
                visit(home, scaled_share(size, access_bytes, size));
                0
            }
            (size, Placement::Unallocated) => scaled_share(size, access_bytes, size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn register_starts_unallocated() {
        let mut m = MemoryMap::new();
        let r = m.register(1 << 20);
        assert_eq!(m.regions.len(), 1);
        assert!(!m.is_allocated(r));
        assert_eq!(*m.placement(r), Placement::Unallocated);
        assert_eq!(m.size_of(r), 1 << 20);
    }

    #[test]
    fn place_whole_region() {
        let mut m = MemoryMap::new();
        let r = m.register(8192);
        m.place(r, NodeId(3));
        assert!(m.is_allocated(r));
        assert_eq!(*m.placement(r), Placement::Node(NodeId(3)));
        assert_eq!(m.placement(r).single_node(), Some(NodeId(3)));
    }

    #[test]
    fn a_second_placement_is_a_migration() {
        let mut m = MemoryMap::new();
        let r = m.register(10_000);
        m.place(r, NodeId(0));
        m.place(r, NodeId(5));
        assert_eq!(*m.placement(r), Placement::Node(NodeId(5)));
        assert_eq!(m.size_of(r), 10_000);
    }

    #[test]
    fn with_regions_registers_every_size_unallocated() {
        let m = MemoryMap::with_regions(&[64, 0, 4096]);
        assert_eq!(m.regions.len(), 3);
        assert_eq!(m.size_of(RegionId(0)), 64);
        assert!((0..3).all(|r| !m.is_allocated(RegionId(r))));
        assert_eq!(m.size_of(RegionId(2)), 4096);
    }

    /// The formula as it stood before `scaled_share` answered its integer
    /// cases directly — the reference every share is held to.
    fn share_by_the_float_formula(resident: u64, access_bytes: u64, region_size: u64) -> u64 {
        ((resident as f64) * (access_bytes as f64) / (region_size.max(1) as f64)).round() as u64
    }

    /// What the executors and the socket weighting computed per access
    /// before `access_shares` existed: the region's bytes per node (all on
    /// its home, or all unallocated), then the float formula per pair and
    /// for the unallocated rest.
    fn shares_by_the_old_formula(
        m: &MemoryMap,
        region: RegionId,
        access_bytes: u64,
    ) -> (Vec<(NodeId, u64)>, u64) {
        let region_size = m.size_of(region);
        let scale = |resident| share_by_the_float_formula(resident, access_bytes, region_size);
        match *m.placement(region) {
            Placement::Node(home) => (vec![(home, scale(region_size))], scale(0)),
            Placement::Unallocated => (Vec::new(), scale(region_size)),
        }
    }

    #[test]
    fn access_shares_match_the_old_formula_for_every_placement() {
        let mut m = MemoryMap::new();
        let unallocated = m.register(7000);
        let whole = m.register(7000);
        m.place(whole, NodeId(3));
        let odd = m.register(3);
        m.place(odd, NodeId(0));
        let empty = m.register(0);
        let empty_placed = m.register(0);
        m.place(empty_placed, NodeId(2));
        // Sizes beyond 2^53 round in the conversion to f64, like before.
        let huge = m.register((1 << 60) + 12345);
        m.place(huge, NodeId(7));

        for region in [unallocated, whole, odd, empty, empty_placed, huge] {
            let size = m.size_of(region);
            // Zero-byte, one-byte, partial, rounding-edge and whole-region
            // accesses (and one larger than the region, which validation
            // rejects but the formula must still agree on).
            for access_bytes in [
                0,
                1,
                2,
                size / 3,
                size / 2,
                size.saturating_sub(1),
                size,
                size + 7,
            ] {
                let mut visited = Vec::new();
                let rest = m.access_shares(region, access_bytes, |node, share| {
                    visited.push((node, share))
                });
                assert_eq!(
                    (visited, rest),
                    shares_by_the_old_formula(&m, region, access_bytes),
                    "{:?} of {size} bytes, access of {access_bytes}",
                    m.placement(region)
                );
            }
        }
    }

    /// The operand values where the integer answers start and stop being the
    /// formula's: zero, one, both sides of the `2^51` guard, the first `u64`
    /// that does not convert to `f64` exactly, and the saturating end.
    const EDGES: [u64; 6] = [0, 1, (1 << 51) - 1, 1 << 51, (1 << 53) + 1, u64::MAX];

    #[test]
    fn scaled_share_is_the_float_formula_on_the_edge_table() {
        // Every triple over the table covers `size == 0`, `resident > size`
        // (a foreign locator may say so), `access < size` on a single-home
        // region and both guards from either side.
        for resident in EDGES {
            for access_bytes in EDGES {
                for region_size in EDGES {
                    assert_eq!(
                        scaled_share(resident, access_bytes, region_size),
                        share_by_the_float_formula(resident, access_bytes, region_size),
                        "resident {resident}, access {access_bytes}, size {region_size}"
                    );
                }
            }
        }
    }

    /// A `u64` with a uniformly drawn number of significant bits (0 to 64):
    /// uniform over magnitudes, not values.
    struct AnyMagnitude;

    impl Strategy for AnyMagnitude {
        type Value = u64;
        fn sample(&self, rng: &mut TestRng) -> u64 {
            let bits = (rng.next_u64() % 65) as u32;
            rng.next_u64().checked_shr(64 - bits).unwrap_or(0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12_000))]

        /// `scaled_share` against the float reference, operands drawn at
        /// every magnitude; `shape` steers a third of the cases each into the
        /// whole-region and the single-home identity, which independent
        /// draws would almost never hit.
        #[test]
        fn scaled_share_is_the_float_formula(
            resident in AnyMagnitude,
            access_bytes in AnyMagnitude,
            region_size in AnyMagnitude,
            shape in 0u8..3,
        ) {
            let (resident, access_bytes) = match shape {
                0 => (resident, region_size),
                1 => (region_size, access_bytes),
                _ => (resident, access_bytes),
            };
            prop_assert_eq!(
                scaled_share(resident, access_bytes, region_size),
                share_by_the_float_formula(resident, access_bytes, region_size),
                "resident {}, access {}, size {}", resident, access_bytes, region_size
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The map's shares are the old formula's at every magnitude, placed
        /// or not, whole-region accesses and partial ones.
        #[test]
        fn map_shares_are_the_old_formula_at_every_magnitude(
            size in AnyMagnitude,
            partial in AnyMagnitude,
            whole in 0u8..2,
            home in 0usize..9,
        ) {
            let access_bytes = if whole == 1 { size } else { partial };
            let mut m = MemoryMap::new();
            let region = m.register(size);
            // `home == 8` leaves the region unallocated.
            if home < 8 {
                m.place(region, NodeId(home));
            }
            let mut direct = Vec::new();
            let direct_rest = m.access_shares(region, access_bytes, |n, b| direct.push((n, b)));
            prop_assert_eq!(
                (direct, direct_rest),
                shares_by_the_old_formula(&m, region, access_bytes)
            );
        }
    }
}
