//! Task specifications, data accesses and the borrowed task view.

use numadag_numa::RegionId;
use std::borrow::Cow;
use std::fmt;

/// Identifier of a task within one [`crate::graph::TaskGraph`]. Tasks are
/// numbered densely in submission (program) order, which the dependence
/// analysis relies on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TaskId(pub usize);

impl TaskId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for TaskId {
    fn from(v: usize) -> Self {
        TaskId(v)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Travels as its bare index.
impl serde::Serialize for TaskId {
    fn serialize(&self, out: &mut serde::Writer<'_>) {
        serde::Serialize::serialize(&self.0, out);
    }
}

impl serde::Deserialize for TaskId {
    fn deserialize(input: &mut serde::Reader<'_>) -> Result<Self, String> {
        <usize as serde::Deserialize>::deserialize(input).map(TaskId)
    }
}

/// How a task accesses a data region — the OpenMP/OmpSs `depend` clause
/// directions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessMode {
    /// The task only reads the region (`in`).
    In = 0,
    /// The task overwrites the region without reading it (`out`).
    Out = 1,
    /// The task reads and writes the region (`inout`).
    InOut = 2,
}

impl AccessMode {
    /// The mode's number in fingerprints: 0 `in`, 1 `out`, 2 `inout`.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// True if the access reads the previous contents of the region.
    pub(crate) fn reads(self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }

    /// True if the access writes the region.
    pub(crate) fn writes(self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }
}

/// One data access of a task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataAccess {
    /// The region being accessed.
    pub region: RegionId,
    /// Direction of the access.
    pub mode: AccessMode,
    /// Number of bytes the access touches (normally the full region size).
    pub bytes: u64,
}

impl DataAccess {
    /// Creates an `in` access.
    pub fn read(region: RegionId, bytes: u64) -> Self {
        DataAccess {
            region,
            mode: AccessMode::In,
            bytes,
        }
    }

    /// Creates an `out` access.
    pub fn write(region: RegionId, bytes: u64) -> Self {
        DataAccess {
            region,
            mode: AccessMode::Out,
            bytes,
        }
    }

    /// Creates an `inout` access.
    pub fn read_write(region: RegionId, bytes: u64) -> Self {
        DataAccess {
            region,
            mode: AccessMode::InOut,
            bytes,
        }
    }
}

/// A task: a fragment of sequential code with a compute cost estimate and a
/// list of data accesses. A view of one row of the graph's task columns,
/// handed out by value by [`TaskGraph::task`](crate::TaskGraph::task).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TaskDescriptor<'a> {
    /// Dense id of the task within its graph.
    pub id: TaskId,
    /// Human-readable kind (e.g. `"potrf"`, `"jacobi_sweep"`). Used by
    /// traces, the expert-programmer policy and the benchmark reports.
    pub kind: &'a str,
    /// Compute cost estimate in abstract work units (translated to time by
    /// the cost model). Must be non-negative.
    pub work_units: f64,
    /// Data accesses of the task, in declaration order.
    pub accesses: Accesses<'a>,
}

impl TaskDescriptor<'_> {
    /// Total bytes the task reads (modes `in` and `inout`).
    pub fn bytes_read(&self) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.mode.reads())
            .map(|a| a.bytes)
            .sum()
    }

    /// Total bytes the task writes (modes `out` and `inout`).
    pub fn bytes_written(&self) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.mode.writes())
            .map(|a| a.bytes)
            .sum()
    }

    /// Total bytes the task touches (each access counted once, `inout`
    /// counted once).
    pub fn bytes_touched(&self) -> u64 {
        self.accesses.bytes.iter().sum()
    }
}

/// A run of data accesses as three parallel columns (region index, mode,
/// bytes) of equal length: one task's accesses, or every access of a graph
/// in task order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Accesses<'a> {
    pub(crate) regions: &'a [u32],
    pub(crate) modes: &'a [AccessMode],
    pub(crate) bytes: &'a [u64],
}

impl<'a> Accesses<'a> {
    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True if there are no accesses.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The `i`-th access.
    pub(crate) fn get(&self, i: usize) -> DataAccess {
        DataAccess {
            region: RegionId(self.regions[i] as usize),
            mode: self.modes[i],
            bytes: self.bytes[i],
        }
    }

    /// The accesses in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DataAccess> + 'a {
        let this = *self;
        (0..this.len()).map(move |i| this.get(i))
    }

    /// The region column: `regions()[i]` is the region the `i`-th access
    /// touches.
    pub fn regions(&self) -> &'a [u32] {
        self.regions
    }

    /// The byte column: `bytes()[i]` is how much of it the `i`-th access
    /// touches.
    pub fn bytes(&self) -> &'a [u64] {
        self.bytes
    }
}

/// A task specification as submitted by the application, before an id has
/// been assigned by the builder.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TaskSpec {
    /// Human readable kind; a literal kind is not copied.
    pub kind: Cow<'static, str>,
    /// Compute cost estimate in work units.
    pub work_units: f64,
    /// Data accesses.
    pub accesses: Vec<DataAccess>,
}

impl TaskSpec {
    /// Starts a task specification of the given kind.
    pub fn new(kind: impl Into<Cow<'static, str>>) -> Self {
        TaskSpec {
            kind: kind.into(),
            work_units: 0.0,
            // Room for any task of the paper's kernels: no regrowth.
            accesses: Vec::with_capacity(8),
        }
    }

    /// Sets the compute cost (finite and non-negative, or the task is
    /// refused on submission).
    pub fn work(mut self, units: f64) -> Self {
        self.work_units = units;
        self
    }

    /// Adds an `in` access covering `bytes` of `region`.
    pub fn reads(mut self, region: RegionId, bytes: u64) -> Self {
        self.accesses.push(DataAccess::read(region, bytes));
        self
    }

    /// Adds an `out` access covering `bytes` of `region`.
    pub fn writes(mut self, region: RegionId, bytes: u64) -> Self {
        self.accesses.push(DataAccess::write(region, bytes));
        self
    }

    /// Adds an `inout` access covering `bytes` of `region`.
    pub fn reads_writes(mut self, region: RegionId, bytes: u64) -> Self {
        self.accesses.push(DataAccess::read_write(region, bytes));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_semantics() {
        assert!(AccessMode::In.reads());
        assert!(!AccessMode::In.writes());
        assert!(!AccessMode::Out.reads());
        assert!(AccessMode::Out.writes());
        assert!(AccessMode::InOut.reads());
        assert!(AccessMode::InOut.writes());
    }

    #[test]
    fn byte_accounting() {
        let mut g = crate::TaskGraph::new();
        let accesses = [100, 200, 300].map(|size| g.region(size));
        let accesses = [
            DataAccess::read(accesses[0], 100),
            DataAccess::read(accesses[1], 200),
            DataAccess::read_write(accesses[2], 300),
        ];
        g.push_task("gemm", 10.0, &accesses, &[]).unwrap();
        let t = g.task(TaskId(0));
        assert_eq!((t.kind, t.work_units), ("gemm", 10.0));
        assert!(t.accesses.iter().eq(accesses));
        assert_eq!(t.accesses.regions(), [0, 1, 2]);
        assert_eq!(t.bytes_read(), 600);
        assert_eq!(t.bytes_written(), 300);
        assert_eq!(t.bytes_touched(), 600);
    }

    #[test]
    fn spec_builder_chains() {
        let s = TaskSpec::new("axpy")
            .work(5.0)
            .reads(RegionId(0), 64)
            .writes(RegionId(1), 64);
        assert_eq!(s.kind, "axpy");
        assert_eq!(s.work_units, 5.0);
        assert_eq!(s.accesses.len(), 2);
        assert_eq!(s.accesses[0].mode, AccessMode::In);
        assert_eq!(s.accesses[1].mode, AccessMode::Out);
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(9).to_string(), "T9");
        assert_eq!(TaskId::from(3usize).index(), 3);
    }
}
