//! Network topology substrate for Topology Aware Cluster Configuration (TACC).
//!
//! This crate models the physical network that connects IoT devices to an
//! edge-server cluster: an undirected multigraph whose links carry a
//! propagation latency and a bandwidth. From a [`Topology`] and a
//! [`DelayModel`] one derives the **communication-delay matrix** `d(i, j)` —
//! the shortest-path delay between IoT device `i` and edge server `j` — which
//! is the cost matrix of the generalized assignment problem solved by the
//! rest of the TACC workspace.
//!
//! # Highlights
//!
//! - [`Graph`]: validated undirected graph of [`NodeKind`]-tagged nodes.
//! - [`Topology`]: a graph plus the IoT / edge-server role assignment.
//! - [`DelayModel`] / [`DelayMatrix`]: per-link delay composition
//!   (propagation + transmission) and all-pairs IoT→server delays.
//! - [`generators`]: six seeded topology families (random geometric,
//!   Erdős–Rényi, Barabási–Albert, hierarchical gateway tree, grid,
//!   fat-tree).
//! - [`shortest_path`]: adjacency-list Dijkstra, the plainly written
//!   reference every fast kernel is property-tested against.
//! - [`csr`]: flat compressed-sparse-row graph snapshot with the two
//!   production kernels — a bucket-queue distance sweep and a heap
//!   sweep that records routing parents for [`routing::RoutingTable`].
//! - [`compress`]: the leaf-compressed core the distance sweeps of
//!   [`Topology::delay_matrix`] and the zone layout run on.
//! - [`incremental`]: shortest-path trees repaired in place after
//!   link-cost drift or link failure, for the online runtime.
//!
//! The shortest-path sweeps fan out over `tacc-par` workers
//! (`TACC_THREADS` to override) and are bit-for-bit identical to their
//! serial counterparts at any worker count.
//!
//! # Example
//!
//! ```
//! use tacc_topology::generators::{RandomGeometric, TopologyGenerator};
//! use tacc_topology::DelayModel;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), tacc_topology::TopologyError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let topo = RandomGeometric::builder()
//!     .num_iot(40)
//!     .num_servers(5)
//!     .num_routers(12)
//!     .build()?
//!     .generate(&mut rng)?;
//! let delays = topo.delay_matrix(&DelayModel::default());
//! assert_eq!(delays.num_iot(), 40);
//! assert_eq!(delays.num_servers(), 5);
//! // Every IoT device can reach every server in a generated topology.
//! assert!(delays.iter().all(|d| d.is_finite()));
//! # Ok(())
//! # }
//! ```

// Indexed loops over parallel arrays (delays/demands/loads) are the
// clearest way to write these numeric kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compress;
pub mod csr;
mod delay;
mod error;
pub mod export;
pub mod generators;
mod graph;
pub mod incremental;
pub mod routing;
pub mod shortest_path;
mod topology;

pub use compress::CompressedCore;
pub use delay::{DelayMatrix, DelayModel};
pub use error::TopologyError;
pub use graph::{Graph, Link, LinkId, Neighbor, Node, NodeId, NodeKind, Point};
pub use topology::Topology;
