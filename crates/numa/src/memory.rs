//! Page-granular placement of data regions onto NUMA nodes.
//!
//! Tasks in the modelled runtime operate on *regions*: contiguous blocks of
//! bytes such as one tile of a blocked matrix. The operating system places
//! memory at page granularity, and the placement is decided by whichever
//! core *first touches* each page. The paper's *deferred allocation* policy
//! postpones that first touch for a task's output regions until the task has
//! been assigned to a socket, so the runtime controls where the data ends up.
//!
//! [`MemoryMap`] tracks, for every region, whether it has been placed and on
//! which node(s). It supports whole-region placement (the common case for
//! task outputs), interleaved placement (the default OS policy for large
//! shared arrays when no NUMA policy is applied), and explicit per-page
//! placement for finer modelling.

use crate::ids::{NodeId, RegionId};

/// Default page size used when converting region sizes to page counts (4 KiB).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

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
    /// Pages are interleaved round-robin across the given nodes (the OS
    /// `MPOL_INTERLEAVE` policy); the vector lists the nodes in interleave
    /// order and is never empty.
    Interleaved(Vec<NodeId>),
    /// Explicit per-page placement (one entry per page of the region).
    Pages(Vec<NodeId>),
}

impl Placement {
    /// True if at least one page of the region has a home node.
    pub fn is_allocated(&self) -> bool {
        !matches!(self, Placement::Unallocated)
    }

    /// If the whole region lives on one node, that node.
    pub fn single_node(&self) -> Option<NodeId> {
        match self {
            Placement::Node(n) => Some(*n),
            Placement::Pages(pages) => {
                let first = *pages.first()?;
                pages.iter().all(|&p| p == first).then_some(first)
            }
            Placement::Interleaved(nodes) => {
                let first = *nodes.first()?;
                nodes.iter().all(|&n| n == first).then_some(first)
            }
            Placement::Unallocated => None,
        }
    }
}

/// Static description of a region: its size and an optional debug label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionInfo {
    /// Size of the region in bytes.
    pub size_bytes: u64,
    /// Optional human readable label (e.g. `"A[2][3]"`).
    pub label: Option<String>,
}

/// Per-region byte distribution over nodes, produced by
/// [`MemoryMap::bytes_per_node`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeBytes {
    /// `(node, bytes)` pairs for every node that holds at least one byte of
    /// the region, sorted by node id.
    pub per_node: Vec<(NodeId, u64)>,
    /// Bytes of the region that are not yet allocated anywhere.
    pub unallocated: u64,
}

impl NodeBytes {
    /// Total allocated bytes.
    pub fn allocated(&self) -> u64 {
        self.per_node.iter().map(|(_, b)| *b).sum()
    }

    /// Splits an access of `access_bytes` bytes to a region of `region_size`
    /// bytes distributed like `self`: `visit(home, share)` once per holding
    /// node in ascending node order, and the share that has no home yet as
    /// the return value. The general arm of [`MemoryMap::access_shares`].
    pub fn access_shares(
        &self,
        region_size: u64,
        access_bytes: u64,
        mut visit: impl FnMut(NodeId, u64),
    ) -> u64 {
        for &(home, resident) in &self.per_node {
            visit(home, scaled_share(resident, access_bytes, region_size));
        }
        scaled_share(self.unallocated, access_bytes, region_size)
    }
}

/// The part of an access touching `access_bytes` bytes of a `region_size`-byte
/// region that falls on `resident` of the region's bytes (accesses normally
/// cover the whole region, so this is normally `resident` itself). The one
/// place the executors' traffic charging and the policies' socket weighting
/// get the formula from; its operation order is part of every committed
/// makespan.
#[inline]
fn scaled_share(resident: u64, access_bytes: u64, region_size: u64) -> u64 {
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
    regions: Vec<RegionInfo>,
    placements: Vec<Placement>,
    page_size: usize,
    /// Bytes currently resident on each node, indexed by node (kept
    /// incrementally, grown on the first placement on a node).
    node_resident: Vec<u64>,
}

impl MemoryMap {
    /// Creates an empty memory map with the default 4 KiB page size.
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// Creates an empty memory map with a custom page size (must be > 0).
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        MemoryMap {
            regions: Vec::new(),
            placements: Vec::new(),
            page_size,
            node_resident: Vec::new(),
        }
    }

    /// A map (default page size) holding one unallocated region per entry of
    /// `sizes`, with ids in slice order — what an executor builds per run
    /// from a workload's region table, in two allocations.
    pub fn with_regions(sizes: &[u64]) -> Self {
        let mut map = Self::new();
        map.regions
            .extend(sizes.iter().map(|&size_bytes| RegionInfo {
                size_bytes,
                label: None,
            }));
        map.placements.resize(sizes.len(), Placement::Unallocated);
        map
    }

    /// Page size used to convert region sizes into page counts.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of registered regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// True if no region has been registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Registers a new region of `size_bytes` bytes and returns its id.
    /// The region starts unallocated (deferred).
    pub fn register(&mut self, size_bytes: u64) -> RegionId {
        self.register_labelled(size_bytes, None::<String>)
    }

    /// Registers a new region with a debug label.
    pub fn register_labelled(
        &mut self,
        size_bytes: u64,
        label: Option<impl Into<String>>,
    ) -> RegionId {
        let id = RegionId(self.regions.len());
        self.regions.push(RegionInfo {
            size_bytes,
            label: label.map(Into::into),
        });
        self.placements.push(Placement::Unallocated);
        id
    }

    /// Static information about a region.
    ///
    /// # Panics
    /// Panics if the region id was not produced by this map.
    pub fn info(&self, region: RegionId) -> &RegionInfo {
        &self.regions[region.index()]
    }

    /// Size of a region in bytes.
    pub fn size_of(&self, region: RegionId) -> u64 {
        self.regions[region.index()].size_bytes
    }

    /// Number of pages a region spans (at least 1 for non-empty regions).
    pub fn pages_of(&self, region: RegionId) -> usize {
        let size = self.size_of(region) as usize;
        size.div_ceil(self.page_size).max(usize::from(size > 0))
    }

    /// Current placement of a region.
    pub fn placement(&self, region: RegionId) -> &Placement {
        &self.placements[region.index()]
    }

    /// True if any page of the region has been placed.
    pub fn is_allocated(&self, region: RegionId) -> bool {
        self.placements[region.index()].is_allocated()
    }

    /// Places the whole region on `node`, as the paper's deferred allocation
    /// does when the producing task is finally scheduled. Overwrites any
    /// previous placement (modelling a migration).
    pub fn place(&mut self, region: RegionId, node: NodeId) {
        self.remove_resident(region);
        self.placements[region.index()] = Placement::Node(node);
        self.add_resident(node, self.size_of(region));
    }

    /// Performs a *first touch*: places the region on `node` only if it is
    /// still unallocated. Returns `true` if this call performed the
    /// placement.
    pub fn first_touch(&mut self, region: RegionId, node: NodeId) -> bool {
        if self.is_allocated(region) {
            false
        } else {
            self.place(region, node);
            true
        }
    }

    /// Interleaves the region round-robin across `nodes` (the behaviour of a
    /// NUMA-oblivious initialisation of a large shared array).
    ///
    /// # Panics
    /// Panics if `nodes` is empty.
    pub fn place_interleaved(&mut self, region: RegionId, nodes: &[NodeId]) {
        assert!(!nodes.is_empty(), "interleave set cannot be empty");
        self.remove_resident(region);
        self.placements[region.index()] = Placement::Interleaved(nodes.to_vec());
        for (node, bytes) in self.interleave_bytes(region, nodes) {
            self.add_resident(node, bytes);
        }
    }

    /// Places each page of the region explicitly.
    ///
    /// # Panics
    /// Panics if `pages.len()` does not match the page count of the region.
    pub fn place_pages(&mut self, region: RegionId, pages: Vec<NodeId>) {
        assert_eq!(
            pages.len(),
            self.pages_of(region),
            "one node per page required"
        );
        self.remove_resident(region);
        for (node, bytes) in Self::page_bytes(self.size_of(region), self.page_size, &pages) {
            self.add_resident(node, bytes);
        }
        self.placements[region.index()] = Placement::Pages(pages);
    }

    /// Resets a region to the unallocated state (used by tests and by the
    /// deferred-allocation bookkeeping when data is freed between windows).
    pub fn deallocate(&mut self, region: RegionId) {
        self.remove_resident(region);
        self.placements[region.index()] = Placement::Unallocated;
    }

    /// How many bytes of `region` live on each node.
    pub fn bytes_per_node(&self, region: RegionId) -> NodeBytes {
        let mut out = NodeBytes::default();
        self.bytes_per_node_into(region, &mut out);
        out
    }

    /// [`MemoryMap::bytes_per_node`] into a caller-owned buffer. The common
    /// placements (`Unallocated`, whole-region `Node`) fill the buffer
    /// without allocating, which matters on the executor hot path that asks
    /// once per task access.
    pub fn bytes_per_node_into(&self, region: RegionId, out: &mut NodeBytes) {
        out.per_node.clear();
        out.unallocated = 0;
        let size = self.size_of(region);
        match &self.placements[region.index()] {
            Placement::Unallocated => out.unallocated = size,
            Placement::Node(n) => out.per_node.push((*n, size)),
            Placement::Interleaved(nodes) => {
                out.per_node.extend(self.interleave_bytes(region, nodes));
            }
            Placement::Pages(pages) => {
                out.per_node
                    .extend(Self::page_bytes(size, self.page_size, pages));
            }
        }
    }

    /// Splits one task access — `access_bytes` bytes of `region` — over the
    /// nodes currently holding the region: `visit(home, share)` once per
    /// holding node in ascending node order (a share can round to zero), and
    /// the share that has no home yet as the return value.
    ///
    /// Every region an executor touches is whole-region placed, so `Node`
    /// and `Unallocated` are answered directly; the paged placements go
    /// through [`MemoryMap::bytes_per_node`] and
    /// [`NodeBytes::access_shares`]. The direct arm performs the general
    /// arm's operations on its single pair.
    #[inline]
    pub fn access_shares(
        &self,
        region: RegionId,
        access_bytes: u64,
        mut visit: impl FnMut(NodeId, u64),
    ) -> u64 {
        let size = self.size_of(region);
        match &self.placements[region.index()] {
            Placement::Node(home) => {
                visit(*home, scaled_share(size, access_bytes, size));
                0
            }
            Placement::Unallocated => scaled_share(size, access_bytes, size),
            Placement::Interleaved(_) | Placement::Pages(_) => self
                .bytes_per_node(region)
                .access_shares(size, access_bytes, visit),
        }
    }

    /// Total bytes resident on `node` across all regions.
    pub fn resident_on(&self, node: NodeId) -> u64 {
        self.node_resident.get(node.index()).copied().unwrap_or(0)
    }

    /// Total bytes registered (allocated or not).
    pub fn total_registered_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.size_bytes).sum()
    }

    /// Total bytes currently allocated on some node.
    pub fn total_resident_bytes(&self) -> u64 {
        self.node_resident.iter().sum()
    }

    /// Iterates over all region ids.
    pub fn regions(&self) -> impl Iterator<Item = RegionId> {
        (0..self.regions.len()).map(RegionId)
    }

    fn add_resident(&mut self, node: NodeId, bytes: u64) {
        if node.index() >= self.node_resident.len() {
            self.node_resident.resize(node.index() + 1, 0);
        }
        self.node_resident[node.index()] += bytes;
    }

    fn remove_resident(&mut self, region: RegionId) {
        let release = |resident: &mut [u64], node: NodeId, bytes: u64| {
            let entry = &mut resident[node.index()];
            debug_assert!(
                *entry >= bytes,
                "{node} holds {entry} bytes, freeing {bytes}"
            );
            *entry = entry.saturating_sub(bytes);
        };
        if let Placement::Node(node) = self.placements[region.index()] {
            let size = self.size_of(region);
            release(&mut self.node_resident, node, size);
        } else {
            for (node, bytes) in self.bytes_per_node(region).per_node {
                release(&mut self.node_resident, node, bytes);
            }
        }
    }

    fn interleave_bytes(&self, region: RegionId, nodes: &[NodeId]) -> Vec<(NodeId, u64)> {
        let pages = self.pages_of(region);
        Self::bytes_by_node(self.size_of(region), self.page_size, pages, |p| {
            nodes[p % nodes.len()]
        })
    }

    fn page_bytes(size: u64, page_size: usize, pages: &[NodeId]) -> Vec<(NodeId, u64)> {
        Self::bytes_by_node(size, page_size, pages.len(), |p| pages[p])
    }

    /// Bytes per node of a region of `pages` pages whose page `p` lives on
    /// `node_of(p)`, in ascending node order.
    fn bytes_by_node(
        size: u64,
        page_size: usize,
        pages: usize,
        node_of: impl Fn(usize) -> NodeId,
    ) -> Vec<(NodeId, u64)> {
        let mut per: Vec<u64> = Vec::new();
        for p in 0..pages {
            let node = node_of(p).index();
            if node >= per.len() {
                per.resize(node + 1, 0);
            }
            per[node] += Self::bytes_in_page(size, page_size, p, pages);
        }
        // Every page holds at least one byte, so a zero is a node without one.
        per.into_iter()
            .enumerate()
            .filter(|&(_, bytes)| bytes > 0)
            .map(|(node, bytes)| (NodeId(node), bytes))
            .collect()
    }

    fn bytes_in_page(size: u64, page_size: usize, page: usize, total_pages: usize) -> u64 {
        if total_pages == 0 {
            return 0;
        }
        if page + 1 < total_pages {
            page_size as u64
        } else {
            // Last page holds the remainder.
            size - (page_size as u64) * (total_pages as u64 - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_starts_unallocated() {
        let mut m = MemoryMap::new();
        let r = m.register(1 << 20);
        assert_eq!(m.num_regions(), 1);
        assert!(!m.is_allocated(r));
        assert_eq!(*m.placement(r), Placement::Unallocated);
        assert_eq!(m.size_of(r), 1 << 20);
        assert_eq!(m.bytes_per_node(r).unallocated, 1 << 20);
    }

    #[test]
    fn place_whole_region() {
        let mut m = MemoryMap::new();
        let r = m.register(8192);
        m.place(r, NodeId(3));
        assert!(m.is_allocated(r));
        assert_eq!(m.placement(r).single_node(), Some(NodeId(3)));
        assert_eq!(m.resident_on(NodeId(3)), 8192);
        assert_eq!(m.resident_on(NodeId(0)), 0);
        let nb = m.bytes_per_node(r);
        assert_eq!(nb.per_node, vec![(NodeId(3), 8192)]);
        assert_eq!(nb.unallocated, 0);
    }

    #[test]
    fn first_touch_only_once() {
        let mut m = MemoryMap::new();
        let r = m.register(4096);
        assert!(m.first_touch(r, NodeId(1)));
        assert!(!m.first_touch(r, NodeId(2)));
        assert_eq!(m.placement(r).single_node(), Some(NodeId(1)));
    }

    #[test]
    fn migration_updates_residency() {
        let mut m = MemoryMap::new();
        let r = m.register(10_000);
        m.place(r, NodeId(0));
        m.place(r, NodeId(5));
        assert_eq!(m.resident_on(NodeId(0)), 0);
        assert_eq!(m.resident_on(NodeId(5)), 10_000);
        assert_eq!(m.total_resident_bytes(), 10_000);
    }

    #[test]
    fn interleaved_distributes_pages() {
        let mut m = MemoryMap::with_page_size(1000);
        let r = m.register(4000); // 4 pages
        m.place_interleaved(r, &[NodeId(0), NodeId(1)]);
        let nb = m.bytes_per_node(r);
        assert_eq!(nb.per_node, vec![(NodeId(0), 2000), (NodeId(1), 2000)]);
        assert_eq!(m.resident_on(NodeId(0)), 2000);
        assert_eq!(m.resident_on(NodeId(1)), 2000);
        // 2 equal nodes is not a single-node placement unless all the same.
        assert_eq!(m.placement(r).single_node(), None);
    }

    #[test]
    fn interleaved_last_page_remainder() {
        let mut m = MemoryMap::with_page_size(1000);
        let r = m.register(2500); // 3 pages: 1000, 1000, 500
        m.place_interleaved(r, &[NodeId(0), NodeId(1)]);
        let nb = m.bytes_per_node(r);
        // pages 0 and 2 on node 0 (1000 + 500), page 1 on node 1.
        assert_eq!(nb.per_node, vec![(NodeId(0), 1500), (NodeId(1), 1000)]);
        assert_eq!(nb.allocated(), 2500);
    }

    #[test]
    fn explicit_pages() {
        let mut m = MemoryMap::with_page_size(100);
        let r = m.register(250); // 3 pages: 100, 100, 50
        m.place_pages(r, vec![NodeId(2), NodeId(2), NodeId(4)]);
        let nb = m.bytes_per_node(r);
        assert_eq!(nb.per_node, vec![(NodeId(2), 200), (NodeId(4), 50)]);
        assert_eq!(m.pages_of(r), 3);
    }

    #[test]
    #[should_panic(expected = "one node per page")]
    fn wrong_page_count_rejected() {
        let mut m = MemoryMap::with_page_size(100);
        let r = m.register(250);
        m.place_pages(r, vec![NodeId(0)]);
    }

    #[test]
    fn deallocate_returns_to_unallocated() {
        let mut m = MemoryMap::new();
        let r = m.register(5000);
        m.place(r, NodeId(2));
        m.deallocate(r);
        assert!(!m.is_allocated(r));
        assert_eq!(m.total_resident_bytes(), 0);
    }

    #[test]
    fn pages_of_rounds_up() {
        let mut m = MemoryMap::with_page_size(4096);
        let a = m.register(1);
        let b = m.register(4096);
        let c = m.register(4097);
        let z = m.register(0);
        assert_eq!(m.pages_of(a), 1);
        assert_eq!(m.pages_of(b), 1);
        assert_eq!(m.pages_of(c), 2);
        assert_eq!(m.pages_of(z), 0);
    }

    #[test]
    fn totals_track_all_regions() {
        let mut m = MemoryMap::new();
        let a = m.register(100);
        let b = m.register(200);
        let _c = m.register(300);
        m.place(a, NodeId(0));
        m.place(b, NodeId(1));
        assert_eq!(m.total_registered_bytes(), 600);
        assert_eq!(m.total_resident_bytes(), 300);
        assert_eq!(m.regions().count(), 3);
    }

    #[test]
    fn labels_are_kept() {
        let mut m = MemoryMap::new();
        let r = m.register_labelled(64, Some("A[0][1]"));
        assert_eq!(m.info(r).label.as_deref(), Some("A[0][1]"));
    }

    #[test]
    fn single_node_detects_uniform_pages() {
        let mut m = MemoryMap::with_page_size(10);
        let r = m.register(30);
        m.place_pages(r, vec![NodeId(1), NodeId(1), NodeId(1)]);
        assert_eq!(m.placement(r).single_node(), Some(NodeId(1)));
    }

    #[test]
    fn with_regions_registers_every_size_unallocated() {
        let m = MemoryMap::with_regions(&[64, 0, 4096]);
        assert_eq!(m.num_regions(), 3);
        assert_eq!(m.page_size(), DEFAULT_PAGE_SIZE);
        assert_eq!(m.total_registered_bytes(), 64 + 4096);
        assert!(m.regions().all(|r| !m.is_allocated(r)));
        assert_eq!(m.size_of(RegionId(2)), 4096);
    }

    #[test]
    fn paged_placements_list_nodes_ascending_whatever_the_page_order() {
        let mut m = MemoryMap::with_page_size(100);
        let r = m.register(450); // 5 pages: 100 x 4 + 50
        m.place_interleaved(r, &[NodeId(6), NodeId(1), NodeId(3)]);
        assert_eq!(
            m.bytes_per_node(r).per_node,
            vec![(NodeId(1), 150), (NodeId(3), 100), (NodeId(6), 200)]
        );
        m.place_pages(
            r,
            vec![NodeId(5), NodeId(0), NodeId(5), NodeId(2), NodeId(0)],
        );
        assert_eq!(
            m.bytes_per_node(r).per_node,
            vec![(NodeId(0), 150), (NodeId(2), 100), (NodeId(5), 200)]
        );
        assert_eq!(m.resident_on(NodeId(6)), 0);
        assert_eq!(m.total_resident_bytes(), 450);
    }

    /// What the executors and the socket weighting computed per access
    /// before `access_shares` existed: `bytes_per_node`, then
    /// `round(resident × access_bytes / max(region_size, 1))` per pair and
    /// for the unallocated rest.
    fn shares_by_the_old_formula(
        m: &MemoryMap,
        region: RegionId,
        access_bytes: u64,
    ) -> (Vec<(NodeId, u64)>, u64) {
        let region_size = m.size_of(region).max(1);
        let scale = |resident: u64| {
            ((resident as f64) * (access_bytes as f64) / (region_size as f64)).round() as u64
        };
        let location = m.bytes_per_node(region);
        let per_node = location
            .per_node
            .iter()
            .map(|&(node, resident)| (node, scale(resident)))
            .collect();
        (per_node, scale(location.unallocated))
    }

    #[test]
    fn access_shares_match_the_old_formula_for_every_placement() {
        let mut m = MemoryMap::with_page_size(1000);
        let unallocated = m.register(7000);
        let whole = m.register(7000);
        m.place(whole, NodeId(3));
        let interleaved = m.register(7000);
        m.place_interleaved(interleaved, &[NodeId(4), NodeId(0), NodeId(2)]);
        let paged = m.register(2500);
        m.place_pages(paged, vec![NodeId(1), NodeId(5), NodeId(1)]);
        let odd = m.register(3);
        m.place(odd, NodeId(0));
        let empty = m.register(0);
        let empty_placed = m.register(0);
        m.place(empty_placed, NodeId(2));
        // Sizes beyond 2^53 round in the conversion to f64, like before.
        let huge = m.register((1 << 60) + 12345);
        m.place(huge, NodeId(7));

        let regions = [
            unallocated,
            whole,
            interleaved,
            paged,
            odd,
            empty,
            empty_placed,
            huge,
        ];
        for region in regions {
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
}
