//! Strongly-typed identifiers for hardware resources and data regions.
//!
//! Using newtypes instead of bare `usize` prevents the classic bug of
//! passing a core index where a socket index is expected (they often have
//! the same small numeric values).

use std::fmt;

/// Identifier of a socket (physical package). In this model each socket is
/// also one NUMA node, mirroring the machine used in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SocketId(pub usize);

/// Identifier of a NUMA memory node. On the modelled machine there is a
/// one-to-one mapping between sockets and NUMA nodes, but the types are kept
/// separate so topologies with multiple nodes per socket (e.g. sub-NUMA
/// clustering) can be expressed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub usize);

/// Identifier of a hardware core (a worker thread in the runtime).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(pub usize);

/// Identifier of a data region (a contiguous block of bytes that tasks
/// declare as `in`/`out`/`inout` dependences, e.g. one tile of a blocked
/// matrix).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct RegionId(pub usize);

macro_rules! impl_id {
    ($t:ident, $prefix:expr) => {
        impl $t {
            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }
        impl From<usize> for $t {
            fn from(v: usize) -> Self {
                $t(v)
            }
        }
        impl From<$t> for usize {
            fn from(v: $t) -> usize {
                v.0
            }
        }
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
        /// Travels as its bare index.
        impl serde::Serialize for $t {
            fn serialize(&self, out: &mut serde::Writer<'_>) {
                serde::Serialize::serialize(&self.0, out);
            }
        }
        impl serde::Deserialize for $t {
            fn deserialize(input: &mut serde::Reader<'_>) -> Result<Self, String> {
                <usize as serde::Deserialize>::deserialize(input).map($t)
            }
        }
    };
}

impl_id!(SocketId, "S");
impl_id!(NodeId, "N");
impl_id!(CoreId, "C");
impl_id!(RegionId, "R");

impl SocketId {
    /// The NUMA node local to this socket under the 1:1 socket/node mapping.
    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

impl NodeId {
    /// The socket local to this NUMA node under the 1:1 socket/node mapping.
    #[inline]
    pub fn socket(self) -> SocketId {
        SocketId(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(SocketId(3).to_string(), "S3");
        assert_eq!(NodeId(0).to_string(), "N0");
        assert_eq!(CoreId(17).to_string(), "C17");
        assert_eq!(RegionId(42).to_string(), "R42");
    }

    #[test]
    fn round_trip_usize() {
        let s: SocketId = 5usize.into();
        assert_eq!(usize::from(s), 5);
        assert_eq!(s.index(), 5);
        let c = CoreId::from(9usize);
        assert_eq!(c.index(), 9);
    }

    #[test]
    fn socket_node_correspondence() {
        assert_eq!(SocketId(4).node(), NodeId(4));
        assert_eq!(NodeId(7).socket(), SocketId(7));
    }

    #[test]
    fn ordering_and_default() {
        assert!(SocketId(1) < SocketId(2));
        assert_eq!(RegionId::default(), RegionId(0));
    }
}
