//! Zone partitioning and the compressed delay summary.
//!
//! A [`ZoneLayout`] groups a set of edge servers into `k` zones by
//! gateway locality (farthest-point seeding over core shortest-path
//! distances) and precomputes, per zone, the **summary** vector
//!
//! ```text
//! summary[z][c] = min over servers j in zone z of d(j, core node c)
//! ```
//!
//! over the leaf-compressed core of the topology. The summary is the
//! only device-side delay structure the router ever touches: a device's
//! distance to zone `z` is read straight from the summary (core
//! devices) or reconstituted with one addition through its gateway
//! (pruned leaves), so no flat `devices × servers` matrix is ever
//! materialized.
//!
//! # Router admissibility (and exactness)
//!
//! [`ZoneLayout::lower_bound`] is not merely an admissible lower bound
//! on `min_{j∈z} d(i, j)` — it is **bit-for-bit equal** to it:
//!
//! - a core device's exact delay column entries are the core SSSP
//!   values themselves, and the summary stores their `min`;
//! - a pruned leaf's exact entry is `d(j, gateway) ⊕ c` ([`CompressedCore`]
//!   reconstitution), and `min_j (d_j ⊕ c) = (min_j d_j) ⊕ c` because
//!   `f64` addition of a non-negative constant is monotone — both sides
//!   round the same sum of the same two values.
//!
//! The partition itself is deterministic and worker-count independent:
//! seeding is serial, and each zone's summary is a serial min-fold over
//! its member servers inside one `tacc-par` task (the `min` of a set of
//! non-NaN `f64`s does not depend on fold order).

use tacc_topology::csr::SsspScratch;
use tacc_topology::{CompressedCore, DelayModel, NodeId, Topology};

/// Marker for "no zone / no alternate" in `u32`-indexed tables.
pub const NO_ZONE: u32 = u32::MAX;

/// Knobs for [`ZoneLayout::route`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Fraction of a zone's aggregate capacity the router may fill
    /// before spilling devices to the next-nearest zone.
    pub headroom: f64,
    /// A device whose second-nearest zone is within `(1 + margin)` of
    /// its routed zone's bound is flagged a border device and re-offered
    /// to that zone during refinement.
    pub border_margin: f64,
}

impl Default for RouterConfig {
    /// Fill zones to 90 % of aggregate capacity — the slack is what
    /// lets the per-zone packer find a feasible server split — with a
    /// 25 % border margin.
    fn default() -> Self {
        RouterConfig { headroom: 0.9, border_margin: 0.25 }
    }
}

/// Where the router sent each device, plus the border-refinement
/// candidates. Produced by [`ZoneLayout::route`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneRouting {
    /// Zone index per device (parallel to the `devices` slice routed).
    pub zone_of_device: Vec<u32>,
    /// Second-nearest zone for border devices, [`NO_ZONE`] otherwise.
    pub alternate: Vec<u32>,
    /// Aggregate routed demand per zone.
    pub routed_load: Vec<f64>,
    /// Devices that did not fit their nearest zone's headroom and were
    /// spilled to the zone with the most remaining headroom.
    pub spills: usize,
}

/// A server partition plus the per-zone compressed delay summary; see
/// the module docs.
#[derive(Debug, Clone)]
pub struct ZoneLayout {
    core: CompressedCore,
    /// Slot → graph node of the server (slots index the `servers` slice
    /// the layout was built over, in the caller's order).
    server_nodes: Vec<NodeId>,
    /// Slot → per-server capacity.
    capacities: Vec<f64>,
    /// Slot → zone index.
    zone_of_server: Vec<u32>,
    /// Zone → member slots, ascending.
    zones: Vec<Vec<usize>>,
    /// Zone → aggregate member capacity (ascending-slot fold).
    zone_capacity: Vec<f64>,
    /// Zone → core-node → min distance from any member server.
    summary: Vec<Vec<f64>>,
}

impl ZoneLayout {
    /// Builds a layout over *all* servers of `topology` with link costs
    /// from `model`, using the ambient `tacc-par` worker count.
    pub fn build(
        topology: &Topology,
        model: &DelayModel,
        capacities: &[f64],
        num_zones: usize,
    ) -> ZoneLayout {
        let costs: Vec<f64> =
            topology.graph().links().map(|(_, link)| model.link_delay_ms(link)).collect();
        let servers: Vec<usize> = (0..topology.num_servers()).collect();
        Self::build_with_threads(
            topology,
            &costs,
            &servers,
            capacities,
            num_zones,
            tacc_par::worker_count(),
        )
    }

    /// [`ZoneLayout::build_with_threads`] at the ambient `tacc-par`
    /// worker count — the form the zoned Solve (`tacc_serve::zoned_solve`)
    /// uses, with the link costs in force (a daemon's drifted ones) and
    /// the servers it solves over (a daemon's alive ones).
    pub fn build_scoped(
        topology: &Topology,
        costs: &[f64],
        servers: &[usize],
        capacities: &[f64],
        num_zones: usize,
    ) -> ZoneLayout {
        Self::build_with_threads(
            topology,
            costs,
            servers,
            capacities,
            num_zones,
            tacc_par::worker_count(),
        )
    }

    /// Builds a layout over an explicit subset of servers under an
    /// explicit per-link cost array (the form the online runtime
    /// maintains; `∞` = failed link). `servers` holds indices into
    /// `topology.server_nodes()`; `capacities` is parallel to it. All
    /// layout outputs are in *slot* space — positions in `servers`.
    ///
    /// The result is bit-identical at any `threads` value.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty, `capacities` has a different
    /// length, or `costs` is not one entry per link.
    pub fn build_with_threads(
        topology: &Topology,
        costs: &[f64],
        servers: &[usize],
        capacities: &[f64],
        num_zones: usize,
        threads: usize,
    ) -> ZoneLayout {
        let _span = tacc_obs::span!("zone.partition");
        assert!(!servers.is_empty(), "zone layout needs at least one server");
        assert_eq!(servers.len(), capacities.len(), "one capacity per server");
        let core = CompressedCore::from_link_costs(topology.graph(), costs);
        let server_nodes: Vec<NodeId> =
            servers.iter().map(|&s| topology.server_nodes()[s]).collect();
        let m = server_nodes.len();
        let k = num_zones.clamp(1, m);

        // Farthest-point seeding: seed 0 is slot 0; each next seed is
        // the server farthest from every existing seed (ties → lowest
        // slot), so disconnected components attract seeds first. Seeds
        // are pinned to their own zone so no zone ends up empty.
        let server_core: Vec<usize> = server_nodes
            .iter()
            .map(|&node| core.core_index(node).expect("servers are never pruned from the core"))
            .collect();
        let mut best_d = vec![f64::INFINITY; m];
        let mut zone_of_server = vec![NO_ZONE; m];
        let mut scratch = SsspScratch::new();
        let mut seed_slot = 0usize;
        for z in 0..k {
            zone_of_server[seed_slot] = z as u32;
            best_d[seed_slot] = f64::NEG_INFINITY;
            let dist = core.sssp_into(server_nodes[seed_slot], &mut scratch);
            for s in 0..m {
                if best_d[s] == f64::NEG_INFINITY {
                    continue;
                }
                let d = dist[server_core[s]];
                if d < best_d[s] {
                    best_d[s] = d;
                    zone_of_server[s] = z as u32;
                }
            }
            if z + 1 < k {
                let mut next = None;
                let mut next_d = f64::NEG_INFINITY;
                for (s, &d) in best_d.iter().enumerate() {
                    if d > next_d {
                        next_d = d;
                        next = Some(s);
                    }
                }
                seed_slot = next.expect("k <= m leaves an unpinned server");
            }
        }
        // Servers unreachable from every seed (more components than
        // zones): round-robin so every server still has a zone.
        for (s, z) in zone_of_server.iter_mut().enumerate() {
            if *z == NO_ZONE {
                *z = (s % k) as u32;
            }
        }

        let mut zones: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (s, &z) in zone_of_server.iter().enumerate() {
            zones[z as usize].push(s);
        }
        let zone_capacity: Vec<f64> = zones
            .iter()
            .map(|members| members.iter().map(|&s| capacities[s]).sum::<f64>())
            .collect();

        // Per-zone summary: one SSSP per member server, min-folded. The
        // fold is serial within its zone task, so the result does not
        // depend on the worker count.
        let zone_ids: Vec<usize> = (0..k).collect();
        let summary: Vec<Vec<f64>> = tacc_par::par_map_with(threads, &zone_ids, |&z| {
            let mut scratch = SsspScratch::new();
            let mut acc = vec![f64::INFINITY; core.core_count()];
            for &s in &zones[z] {
                let dist = core.sssp_into(server_nodes[s], &mut scratch);
                for (a, &d) in acc.iter_mut().zip(dist.iter()) {
                    if d < *a {
                        *a = d;
                    }
                }
            }
            acc
        });

        ZoneLayout {
            core,
            server_nodes,
            capacities: capacities.to_vec(),
            zone_of_server,
            zones,
            zone_capacity,
            summary,
        }
    }

    /// Number of zones.
    pub fn num_zones(&self) -> usize {
        self.zones.len()
    }

    /// Number of servers (slots) the layout was built over.
    pub fn num_servers(&self) -> usize {
        self.server_nodes.len()
    }

    /// The zone of a server slot.
    pub fn zone_of_server(&self, slot: usize) -> usize {
        self.zone_of_server[slot] as usize
    }

    /// Member server slots of a zone, ascending.
    pub fn zone_servers(&self, zone: usize) -> &[usize] {
        &self.zones[zone]
    }

    /// Aggregate member capacity of a zone.
    pub fn zone_capacity(&self, zone: usize) -> f64 {
        self.zone_capacity[zone]
    }

    /// Per-slot capacities the layout was built with.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// The graph node of a server slot.
    pub fn server_node(&self, slot: usize) -> NodeId {
        self.server_nodes[slot]
    }

    /// The leaf-compressed core the layout runs on.
    pub fn core(&self) -> &CompressedCore {
        &self.core
    }

    /// The per-zone summary vectors (zone → core node → min distance);
    /// exposed for the admissibility proptests.
    pub fn summary(&self) -> &[Vec<f64>] {
        &self.summary
    }

    /// The device→zone delay bound `min over servers j in zone of
    /// d(device, j)` — exact, not just admissible; see the module docs.
    pub fn lower_bound(&self, device: NodeId, zone: usize) -> f64 {
        match self.core.core_index(device) {
            Some(ci) => self.summary[zone][ci],
            None => {
                let (gw, c) = self.core.gateway_of(device).expect("pruned node has a gateway");
                let gi = self.core.core_index(gw).expect("a leaf's gateway is in the core");
                self.summary[zone][gi] + c
            }
        }
    }

    /// Routes each device to its nearest zone with remaining headroom
    /// (ties → lowest zone), spilling to the zone with the most
    /// remaining headroom when nothing fits, and flags border devices
    /// whose second-nearest zone is within `border_margin`. Serial and
    /// deterministic; devices are processed in slice order.
    pub fn route(&self, devices: &[NodeId], demands: &[f64], cfg: &RouterConfig) -> ZoneRouting {
        let _span = tacc_obs::span!("zone.route");
        assert_eq!(devices.len(), demands.len(), "one demand per device");
        let k = self.num_zones();
        let mut routed_load = vec![0.0f64; k];
        let mut zone_of_device = Vec::with_capacity(devices.len());
        let mut alternate = vec![NO_ZONE; devices.len()];
        let mut spills = 0usize;
        let mut lbs = vec![0.0f64; k];
        for (i, &dev) in devices.iter().enumerate() {
            for (z, lb) in lbs.iter_mut().enumerate() {
                *lb = self.lower_bound(dev, z);
            }
            let mut best: Option<(f64, usize)> = None;
            let mut spill = (f64::NEG_INFINITY, 0usize);
            for z in 0..k {
                let remaining = self.zone_capacity[z] * cfg.headroom - routed_load[z];
                if remaining + 1e-9 >= demands[i] && best.map_or(true, |(b, _)| lbs[z] < b) {
                    best = Some((lbs[z], z));
                }
                if remaining > spill.0 {
                    spill = (remaining, z);
                }
            }
            let chosen = match best {
                Some((_, z)) => z,
                None => {
                    spills += 1;
                    spill.1
                }
            };
            routed_load[chosen] += demands[i];
            zone_of_device.push(chosen as u32);
            let mut alt: Option<(f64, usize)> = None;
            for (z, &lb) in lbs.iter().enumerate() {
                if z != chosen && alt.map_or(true, |(a, _)| lb < a) {
                    alt = Some((lb, z));
                }
            }
            if let Some((lb, z)) = alt {
                if lb <= lbs[chosen] * (1.0 + cfg.border_margin) {
                    alternate[i] = z as u32;
                }
            }
        }
        tacc_obs::counter_add("zone.router_decisions", devices.len() as u64);
        tacc_obs::counter_add("zone.router_spills", spills as u64);
        ZoneRouting { zone_of_device, alternate, routed_load, spills }
    }
}
