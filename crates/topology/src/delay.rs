use serde::{Deserialize, Serialize};

use crate::{Link, NodeId};

/// How the one-way delay of a network link is computed for a message.
///
/// Each traversed link contributes `latency_ms + message_kbits /
/// bandwidth_mbps` milliseconds (1 Mbit/s transmits exactly 1 kbit per
/// millisecond), plus a fixed per-hop forwarding overhead. The model is
/// deliberately simple — queueing delay is the business of the `tacc-sim`
/// discrete-event simulator, not of the static cost matrix.
///
/// # Example
///
/// ```
/// use tacc_topology::DelayModel;
///
/// let model = DelayModel::new(80.0, 0.1); // 10 KB messages, 0.1 ms per hop
/// assert_eq!(model.message_kbits(), 80.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayModel {
    message_kbits: f64,
    per_hop_overhead_ms: f64,
}

impl DelayModel {
    /// Creates a delay model for messages of `message_kbits` kilobits with a
    /// fixed `per_hop_overhead_ms` forwarding overhead per traversed link.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative or not finite.
    pub fn new(message_kbits: f64, per_hop_overhead_ms: f64) -> Self {
        assert!(
            message_kbits.is_finite() && message_kbits >= 0.0,
            "message size must be finite and non-negative, got {message_kbits}"
        );
        assert!(
            per_hop_overhead_ms.is_finite() && per_hop_overhead_ms >= 0.0,
            "per-hop overhead must be finite and non-negative, got {per_hop_overhead_ms}"
        );
        DelayModel { message_kbits, per_hop_overhead_ms }
    }

    /// Message size used for the transmission-delay term, in kilobits.
    pub fn message_kbits(&self) -> f64 {
        self.message_kbits
    }

    /// Fixed forwarding overhead added per traversed link, in milliseconds.
    pub fn per_hop_overhead_ms(&self) -> f64 {
        self.per_hop_overhead_ms
    }

    /// One-way delay contributed by a single link, in milliseconds.
    pub fn link_delay_ms(&self, link: &Link) -> f64 {
        link.latency_ms() + self.message_kbits / link.bandwidth_mbps() + self.per_hop_overhead_ms
    }
}

impl Default for DelayModel {
    /// The default models a 40 kbit (5 KB) sensor message with 0.05 ms of
    /// forwarding overhead per hop — representative of periodic IoT
    /// telemetry.
    fn default() -> Self {
        DelayModel::new(40.0, 0.05)
    }
}

/// The IoT-device × edge-server communication-delay matrix `d(i, j)`.
///
/// Row `i` holds the shortest-path delay from IoT device `i` to every edge
/// server, in milliseconds. Indices are *role-local*: they refer to the
/// positions inside [`crate::Topology::iot_nodes`] /
/// [`crate::Topology::server_nodes`], not to raw graph [`NodeId`]s — the
/// translation back is available via [`DelayMatrix::iot_node`] and
/// [`DelayMatrix::server_node`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayMatrix {
    num_iot: usize,
    num_servers: usize,
    /// Row-major `num_iot × num_servers` delays in milliseconds.
    data: Vec<f64>,
    iot_nodes: Vec<NodeId>,
    server_nodes: Vec<NodeId>,
}

impl DelayMatrix {
    /// Assembles a delay matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != iot_nodes.len() * server_nodes.len()`.
    pub(crate) fn from_parts(
        data: Vec<f64>,
        iot_nodes: Vec<NodeId>,
        server_nodes: Vec<NodeId>,
    ) -> Self {
        assert_eq!(data.len(), iot_nodes.len() * server_nodes.len());
        DelayMatrix {
            num_iot: iot_nodes.len(),
            num_servers: server_nodes.len(),
            data,
            iot_nodes,
            server_nodes,
        }
    }

    /// Builds a delay matrix directly from a dense row-major delay table,
    /// with synthetic node ids. Useful for tests and for GAP instances that
    /// do not originate from a topology.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, ragged, or contains a negative or NaN
    /// delay (`f64::INFINITY` is allowed and marks an unreachable pair).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "delay matrix needs at least one row");
        let m = rows[0].len();
        assert!(m > 0, "delay matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * m);
        for row in &rows {
            assert_eq!(row.len(), m, "ragged delay matrix");
            for &d in row {
                assert!(d >= 0.0, "delay must be non-negative, got {d}");
                data.push(d);
            }
        }
        let n = rows.len();
        DelayMatrix {
            num_iot: n,
            num_servers: m,
            data,
            iot_nodes: (0..n as u32).map(NodeId).collect(),
            server_nodes: (n as u32..(n + m) as u32).map(NodeId).collect(),
        }
    }

    /// Builds a delay matrix from a dense row-major delay table plus the
    /// graph [`NodeId`]s each row (IoT device) and column (edge server)
    /// refers to, validating like [`DelayMatrix::from_rows`]. This is how
    /// matrices maintained *outside* this crate (e.g. incrementally by an
    /// online runtime) stay comparable with topology-derived ones.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, ragged, or contains a negative or NaN
    /// delay, or if the node lists disagree with the table's shape.
    pub fn from_rows_with_nodes(
        rows: Vec<Vec<f64>>,
        iot_nodes: Vec<NodeId>,
        server_nodes: Vec<NodeId>,
    ) -> Self {
        let mut matrix = DelayMatrix::from_rows(rows);
        assert_eq!(matrix.num_iot, iot_nodes.len(), "one node id per row");
        assert_eq!(matrix.num_servers, server_nodes.len(), "one node id per column");
        matrix.iot_nodes = iot_nodes;
        matrix.server_nodes = server_nodes;
        matrix
    }

    /// Number of IoT devices (rows).
    pub fn num_iot(&self) -> usize {
        self.num_iot
    }

    /// Number of edge servers (columns).
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Delay from IoT device `iot` to edge server `server`, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, iot: usize, server: usize) -> f64 {
        assert!(iot < self.num_iot, "iot index {iot} out of range ({})", self.num_iot);
        assert!(
            server < self.num_servers,
            "server index {server} out of range ({})",
            self.num_servers
        );
        self.data[iot * self.num_servers + server]
    }

    /// The delays from one IoT device to every server.
    ///
    /// # Panics
    ///
    /// Panics if `iot` is out of range.
    pub fn row(&self, iot: usize) -> &[f64] {
        assert!(iot < self.num_iot, "iot index {iot} out of range ({})", self.num_iot);
        &self.data[iot * self.num_servers..(iot + 1) * self.num_servers]
    }

    /// Iterates over all delays in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.data.iter().copied()
    }

    /// The server index with minimum delay for IoT device `iot`, together
    /// with that delay. Ties break toward the lower server index.
    ///
    /// # Panics
    ///
    /// Panics if `iot` is out of range.
    pub fn nearest_server(&self, iot: usize) -> (usize, f64) {
        let row = self.row(iot);
        let mut best = 0usize;
        for (j, &d) in row.iter().enumerate() {
            if d < row[best] {
                best = j;
            }
        }
        (best, row[best])
    }

    /// Graph node id behind IoT row `iot`.
    ///
    /// # Panics
    ///
    /// Panics if `iot` is out of range.
    pub fn iot_node(&self, iot: usize) -> NodeId {
        self.iot_nodes[iot]
    }

    /// Graph node id behind server column `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn server_node(&self, server: usize) -> NodeId {
        self.server_nodes[server]
    }

    /// Overwrites one entry — the incremental-maintenance hook used by
    /// the online runtime when a server's shortest-path tree changes.
    /// `f64::INFINITY` marks the pair unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `delay_ms` is negative
    /// or NaN.
    pub fn set(&mut self, iot: usize, server: usize, delay_ms: f64) {
        assert!(iot < self.num_iot, "iot index {iot} out of range ({})", self.num_iot);
        assert!(
            server < self.num_servers,
            "server index {server} out of range ({})",
            self.num_servers
        );
        assert!(delay_ms >= 0.0, "delay must be non-negative, got {delay_ms}");
        self.data[iot * self.num_servers + server] = delay_ms;
    }

    /// `true` when every entry is finite, i.e. every IoT device can reach
    /// every edge server.
    pub fn is_fully_reachable(&self) -> bool {
        self.data.iter().all(|d| d.is_finite())
    }

    /// Whether `iot` can reach any *usable* server at finite delay, where
    /// `usable` filters the columns (e.g. to the servers a runtime still
    /// considers alive). An `iot` for which this is `false` is partitioned
    /// away from the surviving cluster.
    pub fn any_finite_in_row(&self, iot: usize, usable: impl Fn(usize) -> bool) -> bool {
        self.row(iot).iter().enumerate().any(|(j, d)| usable(j) && d.is_finite())
    }

    /// Mean of all entries; `NaN` for an empty matrix.
    pub fn mean_delay(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, NodeKind};

    #[test]
    fn any_finite_in_row_respects_the_usable_filter() {
        let m = DelayMatrix::from_rows(vec![
            vec![1.0, f64::INFINITY],
            vec![f64::INFINITY, f64::INFINITY],
        ]);
        assert!(m.any_finite_in_row(0, |_| true));
        assert!(!m.any_finite_in_row(0, |j| j == 1), "only unreachable column usable");
        assert!(!m.any_finite_in_row(1, |_| true), "row of infinities is partitioned");
    }

    #[test]
    fn link_delay_composes_latency_transmission_overhead() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        g.add_link(a, b, 2.0, 10.0).unwrap();
        let link = g.link(crate::LinkId(0));
        let model = DelayModel::new(40.0, 0.5);
        // 2.0 latency + 40 kbit / 10 Mbps = 4 ms + 0.5 overhead
        assert!((model.link_delay_ms(link) - 6.5).abs() < 1e-12);
    }

    #[test]
    fn zero_size_message_has_no_transmission_delay() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        g.add_link(a, b, 3.0, 1.0).unwrap();
        let model = DelayModel::new(0.0, 0.0);
        assert_eq!(model.link_delay_ms(g.link(crate::LinkId(0))), 3.0);
    }

    #[test]
    #[should_panic(expected = "message size")]
    fn negative_message_size_panics() {
        let _ = DelayModel::new(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "per-hop overhead")]
    fn nan_overhead_panics() {
        let _ = DelayModel::new(1.0, f64::NAN);
    }

    #[test]
    fn default_model_is_sane() {
        let m = DelayModel::default();
        assert!(m.message_kbits() > 0.0);
        assert!(m.per_hop_overhead_ms() >= 0.0);
    }

    #[test]
    fn matrix_from_rows_indexing() {
        let m = DelayMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 0.5]]);
        assert_eq!(m.num_iot(), 3);
        assert_eq!(m.num_servers(), 2);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 1), 0.5);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn nearest_server_breaks_ties_low() {
        let m = DelayMatrix::from_rows(vec![vec![2.0, 1.0, 1.0]]);
        assert_eq!(m.nearest_server(0), (1, 1.0));
    }

    #[test]
    fn mean_delay_and_reachability() {
        let m = DelayMatrix::from_rows(vec![vec![1.0, 3.0]]);
        assert_eq!(m.mean_delay(), 2.0);
        assert!(m.is_fully_reachable());
        let m = DelayMatrix::from_rows(vec![vec![1.0, f64::INFINITY]]);
        assert!(!m.is_fully_reachable());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = DelayMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_delay_panics_at_construction() {
        let _ = DelayMatrix::from_rows(vec![vec![f64::NAN]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let m = DelayMatrix::from_rows(vec![vec![1.0]]);
        let _ = m.get(0, 1);
    }

    #[test]
    fn synthetic_node_ids_are_distinct() {
        let m = DelayMatrix::from_rows(vec![vec![1.0, 2.0]]);
        assert_ne!(m.iot_node(0), m.server_node(0));
        assert_ne!(m.server_node(0), m.server_node(1));
    }
}
