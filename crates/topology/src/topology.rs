use serde::{Deserialize, Serialize};

use crate::compress::CompressedCore;
use crate::csr::SsspScratch;
use crate::shortest_path::dijkstra;
use crate::{DelayMatrix, DelayModel, Graph, NodeId, NodeKind, TopologyError};

/// A network graph together with its IoT / edge-server role inventory.
///
/// A `Topology` is the unit that the rest of TACC consumes: it knows which
/// graph nodes are IoT devices (the entities to assign), which are edge
/// servers (the capacitated cluster members), and how to derive the
/// communication-delay matrix between the two sets.
///
/// Construct one either from a hand-built [`Graph`] via [`Topology::new`]
/// or through one of the seeded families in [`crate::generators`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    graph: Graph,
    iot: Vec<NodeId>,
    servers: Vec<NodeId>,
}

impl Topology {
    /// Wraps a graph, deriving the role inventory from each node's
    /// [`NodeKind`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::MissingRole`] if the graph contains no IoT
    /// device or no edge server.
    pub fn new(graph: Graph) -> Result<Self, TopologyError> {
        let iot = graph.nodes_of_kind(NodeKind::IotDevice);
        let servers = graph.nodes_of_kind(NodeKind::EdgeServer);
        if iot.is_empty() {
            return Err(TopologyError::MissingRole { role: "IoT device" });
        }
        if servers.is_empty() {
            return Err(TopologyError::MissingRole { role: "edge server" });
        }
        Ok(Topology { graph, iot, servers })
    }

    /// The underlying network graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of IoT devices.
    pub fn num_iot(&self) -> usize {
        self.iot.len()
    }

    /// Number of edge servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Graph node ids of the IoT devices, in role-index order.
    pub fn iot_nodes(&self) -> &[NodeId] {
        &self.iot
    }

    /// Graph node ids of the edge servers, in role-index order.
    pub fn server_nodes(&self) -> &[NodeId] {
        &self.servers
    }

    /// Computes the IoT × server shortest-path delay matrix under `model`.
    ///
    /// Runs one SSSP per edge server (servers are typically far fewer
    /// than IoT devices) on the leaf-compressed core, with link costs from
    /// [`DelayModel::link_delay_ms`], fanned out over
    /// [`tacc_par::worker_count`] workers. The merge is by server index,
    /// so the result is **bit-for-bit identical** to
    /// [`Topology::delay_matrix_serial`] regardless of the worker count
    /// (property-tested in `tests/par_equivalence.rs`). Unreachable pairs
    /// yield `f64::INFINITY`; call [`DelayMatrix::is_fully_reachable`] or
    /// [`Topology::validate_reachability`] to detect them.
    pub fn delay_matrix(&self, model: &DelayModel) -> DelayMatrix {
        self.delay_matrix_with_threads(model, tacc_par::worker_count())
    }

    /// [`Topology::delay_matrix`] with an explicit worker count
    /// (1 = serial on the calling thread). Sweeps the leaf-compressed
    /// core ([`CompressedCore`]) with the bucket-queue SSSP kernel.
    pub fn delay_matrix_with_threads(&self, model: &DelayModel, threads: usize) -> DelayMatrix {
        let n = self.iot.len();
        let m = self.servers.len();
        let core = CompressedCore::from_graph(&self.graph, |l| model.link_delay_ms(l));
        // One contiguous chunk of server columns per worker; each worker
        // reuses one scratch buffer across all its servers and returns
        // its columns server-major.
        let chunk = m.div_ceil(threads.max(1)).max(1);
        let blocks = tacc_par::par_chunks_with(threads, &self.servers, chunk, |_, servers| {
            let mut scratch = SsspScratch::new();
            let mut columns = Vec::with_capacity(servers.len() * n);
            for &server in servers {
                let dist = core.sssp_into(server, &mut scratch);
                columns.extend(self.iot.iter().map(|&iot| core.distance(dist, iot)));
            }
            columns
        });
        // Transpose the server-major blocks into the row-major matrix.
        let mut data = vec![f64::INFINITY; n * m];
        let mut j = 0usize;
        for block in blocks {
            for column in block.chunks_exact(n.max(1)) {
                for (i, &d) in column.iter().enumerate() {
                    data[i * m + j] = d;
                }
                j += 1;
            }
        }
        DelayMatrix::from_parts(data, self.iot.clone(), self.servers.clone())
    }

    /// The serial adjacency-list reference implementation of
    /// [`Topology::delay_matrix`]: one [`dijkstra`] run per edge server.
    /// Kept as the baseline the production path is property-tested
    /// against, and as the reference lane of `tacc bench-report`.
    pub fn delay_matrix_serial(&self, model: &DelayModel) -> DelayMatrix {
        let n = self.iot.len();
        let m = self.servers.len();
        let mut data = vec![f64::INFINITY; n * m];
        for (j, &server) in self.servers.iter().enumerate() {
            let dist = dijkstra(&self.graph, server, |l| model.link_delay_ms(l));
            for (i, &iot) in self.iot.iter().enumerate() {
                data[i * m + j] = dist[iot.index()];
            }
        }
        DelayMatrix::from_parts(data, self.iot.clone(), self.servers.clone())
    }

    /// Overwrites the propagation latency of one link — see
    /// [`crate::Graph::set_link_latency`]. This is how the online runtime
    /// applies `LinkLatencyDrift` events without rebuilding the topology.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TopologyError::InvalidLink`] if `latency_ms` is
    /// negative or not finite.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the underlying graph.
    pub fn set_link_latency(
        &mut self,
        id: crate::LinkId,
        latency_ms: f64,
    ) -> Result<(), TopologyError> {
        self.graph.set_link_latency(id, latency_ms)
    }

    /// Fault injection: a copy of this topology with one link failed.
    /// Roles are unchanged; reachability may be reduced — check with
    /// [`Topology::validate_reachability`] before reconfiguring.
    ///
    /// # Panics
    ///
    /// Panics if `failed` does not belong to the underlying graph.
    pub fn with_failed_link(&self, failed: crate::LinkId) -> Topology {
        Topology {
            graph: self.graph.without_link(failed),
            iot: self.iot.clone(),
            servers: self.servers.clone(),
        }
    }

    /// Fault injection: a copy of this topology with a node's links all
    /// failed (a dead router/gateway). The node remains in the graph so
    /// ids stay stable.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the underlying graph.
    pub fn with_failed_node(&self, node: NodeId) -> Topology {
        Topology {
            graph: self.graph.without_node_links(node),
            iot: self.iot.clone(),
            servers: self.servers.clone(),
        }
    }

    /// Checks that every IoT device can reach every edge server.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] when some pair is
    /// unreachable under shortest-path routing.
    pub fn validate_reachability(&self, model: &DelayModel) -> Result<(), TopologyError> {
        if self.delay_matrix(model).is_fully_reachable() {
            Ok(())
        } else {
            Err(TopologyError::Disconnected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// iot0 -1ms- r0 -2ms- s0
    ///             \--4ms-- s1
    /// iot1 -3ms- r0
    fn star() -> Topology {
        let mut g = Graph::new();
        let i0 = g.add_node(NodeKind::IotDevice);
        let i1 = g.add_node(NodeKind::IotDevice);
        let r = g.add_node(NodeKind::Router);
        let s0 = g.add_node(NodeKind::EdgeServer);
        let s1 = g.add_node(NodeKind::EdgeServer);
        g.add_link(i0, r, 1.0, 1000.0).unwrap();
        g.add_link(i1, r, 3.0, 1000.0).unwrap();
        g.add_link(r, s0, 2.0, 1000.0).unwrap();
        g.add_link(r, s1, 4.0, 1000.0).unwrap();
        Topology::new(g).unwrap()
    }

    #[test]
    fn roles_are_derived_from_kinds() {
        let t = star();
        assert_eq!(t.num_iot(), 2);
        assert_eq!(t.num_servers(), 2);
        assert_eq!(t.iot_nodes()[0].index(), 0);
        assert_eq!(t.server_nodes()[0].index(), 3);
    }

    #[test]
    fn missing_servers_is_an_error() {
        let mut g = Graph::new();
        g.add_node(NodeKind::IotDevice);
        assert_eq!(
            Topology::new(g).unwrap_err(),
            TopologyError::MissingRole { role: "edge server" }
        );
    }

    #[test]
    fn missing_iot_is_an_error() {
        let mut g = Graph::new();
        g.add_node(NodeKind::EdgeServer);
        assert_eq!(
            Topology::new(g).unwrap_err(),
            TopologyError::MissingRole { role: "IoT device" }
        );
    }

    #[test]
    fn delay_matrix_contains_path_delays() {
        let t = star();
        // Zero-size messages and no per-hop overhead: delay == latency sum.
        let m = t.delay_matrix(&DelayModel::new(0.0, 0.0));
        assert_eq!(m.get(0, 0), 3.0); // i0 -> r -> s0 : 1 + 2
        assert_eq!(m.get(0, 1), 5.0); // i0 -> r -> s1 : 1 + 4
        assert_eq!(m.get(1, 0), 5.0); // i1 -> r -> s0 : 3 + 2
        assert_eq!(m.get(1, 1), 7.0);
    }

    #[test]
    fn delay_matrix_includes_transmission_and_overhead() {
        let t = star();
        // 100 kbit over 1000 Mbps = 0.1 ms per link; overhead 0.2 per hop.
        let m = t.delay_matrix(&DelayModel::new(100.0, 0.2));
        // i0 -> s0 crosses 2 links: 3.0 + 2*0.1 + 2*0.2 = 3.6
        assert!((m.get(0, 0) - 3.6).abs() < 1e-12);
    }

    #[test]
    fn reachability_validation() {
        let t = star();
        assert!(t.validate_reachability(&DelayModel::default()).is_ok());

        let mut g = Graph::new();
        g.add_node(NodeKind::IotDevice);
        g.add_node(NodeKind::EdgeServer);
        // no link between them
        let t = Topology::new(g).unwrap();
        assert_eq!(
            t.validate_reachability(&DelayModel::default()).unwrap_err(),
            TopologyError::Disconnected
        );
    }

    #[test]
    fn failing_a_link_increases_or_breaks_delay() {
        let t = star();
        // Fail the i0—r access link (link 0): i0 can no longer reach
        // anything.
        let failed = t.with_failed_link(crate::LinkId(0));
        assert_eq!(
            failed.validate_reachability(&DelayModel::default()).unwrap_err(),
            TopologyError::Disconnected
        );
        // Roles unchanged.
        assert_eq!(failed.num_iot(), t.num_iot());
        assert_eq!(failed.num_servers(), t.num_servers());
    }

    #[test]
    fn failing_the_router_disconnects_everyone() {
        let t = star();
        let router = t.graph().nodes_of_kind(NodeKind::Router)[0];
        let failed = t.with_failed_node(router);
        let dm = failed.delay_matrix(&DelayModel::default());
        assert!(dm.iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn parallel_delay_matrix_equals_serial_reference() {
        let t = star();
        let model = DelayModel::new(100.0, 0.2);
        let serial = t.delay_matrix_serial(&model);
        for threads in [1, 2, 3, 16] {
            assert_eq!(t.delay_matrix_with_threads(&model, threads), serial, "t={threads}");
        }
        assert_eq!(t.delay_matrix(&model), serial);
    }

    #[test]
    fn delay_matrix_maps_role_indices_to_node_ids() {
        let t = star();
        let m = t.delay_matrix(&DelayModel::default());
        assert_eq!(m.iot_node(1), t.iot_nodes()[1]);
        assert_eq!(m.server_node(1), t.server_nodes()[1]);
    }
}
