//! Per-zone GAP solves, budget splitting, and boundary refinement.
//!
//! [`ZoneLayout::solve`] runs the full zoned pipeline: route devices,
//! split the work budget across zones in proportion to their routed
//! device counts, solve each zone's sub-instance independently (in
//! parallel via `tacc-par`, merged in zone order), then run a serial
//! boundary-refinement pass that re-offers border devices to their
//! second-nearest zone.
//!
//! # Border-refinement contract
//!
//! Refinement only ever *improves* the solution and never breaks
//! feasibility: a device moves to its alternate zone's best server only
//! when that strictly lowers its delay (beyond `1e-12`) and the target
//! server has capacity for it (within the workspace-wide `1e-9`
//! tolerance); removing the device from its old server can only lower
//! that server's load. Moves are applied serially in device-index
//! order, so the pass is deterministic. With one zone there are no
//! border devices and the pipeline collapses to the global dense solve
//! bit-for-bit.
//!
//! # Capacity repair
//!
//! The router fills zones only to a headroom share and spills what
//! does not fit into the zone with the most room, so a zone can receive
//! more demand than its solver can pack — typically after server
//! failures shrink the cluster. When the merged, refined assignment
//! still overloads a server, a serial repair moves devices off every
//! overloaded server onto servers with room, in any zone. Each step
//! takes the move with the least delay increase: a shift when one
//! fits, else a swap with a lighter device on a server with room; ties
//! go to the lowest device, then server, index. A step never overloads
//! another server and always lowers the total overload, so the repair
//! ends, feasible whenever these moves reach a fit. Delays come from
//! one core SSSP sweep per server the repair looks at; no devices ×
//! servers matrix is built. A merge that is already feasible is not
//! touched, bit for bit.

use tacc_baselines::{DeviceOrder, Greedy, LocalSearch, Neighborhood};
use tacc_gap::{Budget, GapInstance, Solution, Solver};
use tacc_topology::csr::SsspScratch;
use tacc_topology::{DelayMatrix, NodeId};

use crate::layout::{RouterConfig, ZoneLayout, ZoneRouting, NO_ZONE};

/// Round budget [`dense_solve`] uses when the caller passes
/// [`Budget::unlimited`] — the [`LocalSearch`] default.
pub const DEFAULT_ROUNDS: u64 = 1000;

/// The reference dense solver of the zone pipeline: regret-greedy
/// construction polished by shift-neighborhood local search capped at
/// `rounds`. Used identically for every zone sub-instance and for the
/// global baseline the cross-validation tests compare against, so a
/// one-zone layout reproduces the global result bit-for-bit.
pub fn dense_solve(instance: &GapInstance, seed: u64, rounds: u64) -> Solution {
    let start = Greedy::new(DeviceOrder::RegretDescending)
        .solve(instance)
        .expect("greedy always completes");
    LocalSearch::new(seed)
        .with_neighborhood(Neighborhood::Shift)
        .with_max_rounds(rounds as usize)
        .improve(instance, start.assignment)
        .expect("local search preserves completeness")
}

/// Splits `total` work units across zones proportionally to `weights`
/// (routed device counts), largest-remainder style: every zone gets
/// `total * w / W` rounded down, and the leftover units go one each to
/// the lowest-indexed zones with non-zero weight. The result always
/// sums to exactly `total`.
pub fn split_budget(total: u64, weights: &[usize]) -> Vec<u64> {
    let w_total: u64 = weights.iter().map(|&w| w as u64).sum();
    if w_total == 0 {
        let mut out = vec![0; weights.len()];
        if let Some(first) = out.first_mut() {
            *first = total;
        }
        return out;
    }
    let mut out: Vec<u64> =
        weights.iter().map(|&w| total.saturating_mul(w as u64) / w_total).collect();
    let mut leftover = total - out.iter().sum::<u64>();
    for (z, units) in out.iter_mut().enumerate() {
        if leftover == 0 {
            break;
        }
        if weights[z] > 0 {
            *units += 1;
            leftover -= 1;
        }
    }
    out
}

/// Per-zone accounting of a [`ZonedSolution`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneStats {
    /// Zone index.
    pub zone: usize,
    /// Devices routed to the zone.
    pub devices: usize,
    /// Member servers.
    pub servers: usize,
    /// Sub-instance objective before refinement.
    pub objective: f64,
    /// Whether the sub-solve respected every member capacity.
    pub feasible: bool,
    /// Work units granted to the zone.
    pub budget: u64,
}

/// A merged zoned solve: global assignment, delays, and bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ZonedSolution {
    /// Server slot per device ([`NO_ZONE`]-valued `u32::MAX` never
    /// occurs for devices routed into a zone with servers).
    pub server_of_device: Vec<u32>,
    /// Final zone per device (after refinement moves).
    pub zone_of_device: Vec<u32>,
    /// Exact delay of each device to its assigned server.
    pub delay_of_device: Vec<f64>,
    /// Sum of per-device delays in device-index order — the same fold
    /// `Assignment::partial_delay` performs, so a one-zone layout
    /// matches the global objective bit-for-bit.
    pub objective: f64,
    /// Whether every server's final load respects its capacity.
    pub feasible: bool,
    /// Border devices actually moved by the refinement pass.
    pub refinements: usize,
    /// Per-zone accounting, in zone order.
    pub zones: Vec<ZoneStats>,
}

/// What one zone's solve hands back to the merge step.
struct ZoneResult {
    /// Per member (zone-local device order): assigned server slot.
    assignment: Vec<u32>,
    /// Per member: exact delay to the assigned server.
    delays: Vec<f64>,
    /// Per border candidate: best member server slot and its delay.
    offers: Vec<(u32, f64)>,
    stats: ZoneStats,
}

impl ZoneLayout {
    /// Full zoned pipeline with the default router and the
    /// [`dense_solve`] reference solver in every zone. The budget is
    /// interpreted as local-search rounds, split across zones with
    /// [`split_budget`]; [`Budget::unlimited`] grants every zone
    /// [`DEFAULT_ROUNDS`].
    pub fn solve(
        &self,
        devices: &[NodeId],
        demands: &[f64],
        seed: u64,
        budget: &Budget,
    ) -> ZonedSolution {
        let routing = self.route(devices, demands, &RouterConfig::default());
        let budgets = self.split_rounds(&routing, budget);
        self.solve_with(devices, demands, &routing, &budgets, |_zone, instance, rounds| {
            dense_solve(instance, seed, rounds)
        })
    }

    /// Per-zone budgets for a routing: proportional split of a limited
    /// budget, [`DEFAULT_ROUNDS`] each when unlimited.
    pub fn split_rounds(&self, routing: &ZoneRouting, budget: &Budget) -> Vec<u64> {
        let mut counts = vec![0usize; self.num_zones()];
        for &z in &routing.zone_of_device {
            counts[z as usize] += 1;
        }
        match budget.limit() {
            Some(total) => split_budget(total, &counts),
            None => vec![DEFAULT_ROUNDS; self.num_zones()],
        }
    }

    /// Zoned solve with a caller-supplied per-zone solver
    /// (`tacc_serve::zoned_solve` passes a guard-supervised one). Zones run in parallel via
    /// `tacc-par` and merge in zone order; the refinement pass and the
    /// capacity repair are serial, so the result is deterministic at
    /// any worker count as long as `solver` is.
    pub fn solve_with<F>(
        &self,
        devices: &[NodeId],
        demands: &[f64],
        routing: &ZoneRouting,
        budgets: &[u64],
        solver: F,
    ) -> ZonedSolution
    where
        F: Fn(usize, &GapInstance, u64) -> Solution + Sync,
    {
        let k = self.num_zones();
        assert_eq!(budgets.len(), k, "one budget per zone");
        assert_eq!(routing.zone_of_device.len(), devices.len(), "routing covers the devices");
        let n = devices.len();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut borders: Vec<Vec<usize>> = vec![Vec::new(); k];
        for i in 0..n {
            members[routing.zone_of_device[i] as usize].push(i);
            let alt = routing.alternate[i];
            if alt != NO_ZONE {
                borders[alt as usize].push(i);
            }
        }

        let zone_ids: Vec<usize> = (0..k).collect();
        let results: Vec<ZoneResult> = tacc_par::par_map(&zone_ids, |&z| {
            self.solve_zone(z, devices, demands, &members[z], &borders[z], budgets[z], &solver)
        });
        tacc_obs::counter_add("zone.solves", k as u64);

        let mut server_of_device = vec![u32::MAX; n];
        let mut delay_of_device = vec![f64::INFINITY; n];
        let mut zone_of_device = routing.zone_of_device.clone();
        let mut offers: Vec<(u32, f64)> = vec![(u32::MAX, f64::INFINITY); n];
        let mut zones = Vec::with_capacity(k);
        for (z, result) in results.into_iter().enumerate() {
            for (local, &i) in members[z].iter().enumerate() {
                server_of_device[i] = result.assignment[local];
                delay_of_device[i] = result.delays[local];
            }
            for (local, &i) in borders[z].iter().enumerate() {
                offers[i] = result.offers[local];
            }
            zones.push(result.stats);
        }

        // Boundary refinement: serial, device-index order; see the
        // module docs for the improve-only / feasibility-preserving
        // contract.
        let mut loads = vec![0.0f64; self.num_servers()];
        for i in 0..n {
            if server_of_device[i] != u32::MAX {
                loads[server_of_device[i] as usize] += demands[i];
            }
        }
        let mut refinements = 0usize;
        for i in 0..n {
            let (slot, offered) = offers[i];
            if slot == u32::MAX || server_of_device[i] == u32::MAX {
                continue;
            }
            let slot = slot as usize;
            if offered + 1e-12 < delay_of_device[i]
                && loads[slot] + demands[i] <= self.capacities()[slot] + 1e-9
            {
                loads[server_of_device[i] as usize] -= demands[i];
                loads[slot] += demands[i];
                server_of_device[i] = slot as u32;
                delay_of_device[i] = offered;
                zone_of_device[i] = self.zone_of_server(slot) as u32;
                refinements += 1;
            }
        }
        tacc_obs::counter_add("zone.border_refinements", refinements as u64);
        let repairs = self.repair_overloads(
            devices,
            demands,
            &mut loads,
            &mut server_of_device,
            &mut delay_of_device,
            &mut zone_of_device,
        );
        if repairs > 0 {
            tacc_obs::counter_add("zone.capacity_repairs", repairs as u64);
        }

        let objective: f64 = delay_of_device.iter().sum();
        let feasible = server_of_device.iter().all(|&j| j != u32::MAX)
            && loads.iter().zip(self.capacities()).all(|(&l, &c)| l - c <= 1e-9);
        ZonedSolution {
            server_of_device,
            zone_of_device,
            delay_of_device,
            objective,
            feasible,
            refinements,
            zones,
        }
    }

    /// The capacity repair (see the module docs): moves devices off
    /// overloaded servers until every server fits or no shift or swap
    /// lowers the overload. Returns the number of moves made.
    fn repair_overloads(
        &self,
        devices: &[NodeId],
        demands: &[f64],
        loads: &mut [f64],
        server_of_device: &mut [u32],
        delay_of_device: &mut [f64],
        zone_of_device: &mut [u32],
    ) -> usize {
        let caps = self.capacities();
        let overloaded =
            |loads: &[f64], j: u32| j != u32::MAX && loads[j as usize] - caps[j as usize] > 1e-9;
        let fits = |loads: &[f64], j: usize, extra: f64| loads[j] + extra <= caps[j] + 1e-9;
        let mut sweeps = Sweeps::new(self);
        let mut moves = 0usize;
        while server_of_device.iter().any(|&j| overloaded(loads, j)) {
            // Least delay increase first; `<` keeps the lowest indices
            // on ties.
            let mut shift: Option<(f64, usize, usize)> = None;
            for (i, &s) in server_of_device.iter().enumerate() {
                if !overloaded(loads, s) {
                    continue;
                }
                for t in 0..self.num_servers() {
                    if t == s as usize || !fits(loads, t, demands[i]) {
                        continue;
                    }
                    let d = sweeps.delay(t, devices[i]);
                    let increase = d - delay_of_device[i];
                    if d.is_finite() && shift.map_or(true, |(b, _, _)| increase < b) {
                        shift = Some((increase, i, t));
                    }
                }
            }
            let step = if let Some((_, i, t)) = shift {
                vec![(i, t)]
            } else {
                let mut swap: Option<(f64, usize, usize)> = None;
                for (i, &s) in server_of_device.iter().enumerate() {
                    if !overloaded(loads, s) {
                        continue;
                    }
                    for (k, &t) in server_of_device.iter().enumerate() {
                        if t == u32::MAX
                            || t == s
                            || demands[k] >= demands[i]
                            || !fits(loads, t as usize, demands[i] - demands[k])
                        {
                            continue;
                        }
                        let di = sweeps.delay(t as usize, devices[i]);
                        let dk = sweeps.delay(s as usize, devices[k]);
                        let increase = (di + dk) - (delay_of_device[i] + delay_of_device[k]);
                        if di.is_finite()
                            && dk.is_finite()
                            && swap.map_or(true, |(b, _, _)| increase < b)
                        {
                            swap = Some((increase, i, k));
                        }
                    }
                }
                let Some((_, i, k)) = swap else { break };
                vec![(i, server_of_device[k] as usize), (k, server_of_device[i] as usize)]
            };
            for (i, t) in step {
                let s = server_of_device[i] as usize;
                loads[s] -= demands[i];
                loads[t] += demands[i];
                server_of_device[i] = t as u32;
                delay_of_device[i] = sweeps.delay(t, devices[i]);
                zone_of_device[i] = self.zone_of_server(t) as u32;
                moves += 1;
            }
        }
        moves
    }

    /// Solves one zone: per member server an SSSP on the shared core
    /// yields the exact delay column (bit-identical to the flat-matrix
    /// kernel), the zone's sub-instance goes to `solver`, and border
    /// candidates get their best-server offer from the same sweeps.
    #[allow(clippy::too_many_arguments)]
    fn solve_zone<F>(
        &self,
        zone: usize,
        devices: &[NodeId],
        demands: &[f64],
        members: &[usize],
        borders: &[usize],
        budget: u64,
        solver: &F,
    ) -> ZoneResult
    where
        F: Fn(usize, &GapInstance, u64) -> Solution,
    {
        let _span = tacc_obs::span!("zone.solve");
        let slots = self.zone_servers(zone);
        let mut scratch = SsspScratch::new();
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(slots.len());
        let mut offers: Vec<(u32, f64)> = vec![(u32::MAX, f64::INFINITY); borders.len()];
        for &slot in slots {
            let dist = self.core().sssp_into(self.server_node(slot), &mut scratch);
            columns.push(members.iter().map(|&i| self.core().distance(dist, devices[i])).collect());
            for (b, &i) in borders.iter().enumerate() {
                let d = self.core().distance(dist, devices[i]);
                if d < offers[b].1 {
                    offers[b] = (slot as u32, d);
                }
            }
        }
        if members.is_empty() {
            return ZoneResult {
                assignment: Vec::new(),
                delays: Vec::new(),
                offers,
                stats: ZoneStats {
                    zone,
                    devices: 0,
                    servers: slots.len(),
                    objective: 0.0,
                    feasible: true,
                    budget,
                },
            };
        }
        let rows: Vec<Vec<f64>> =
            (0..members.len()).map(|r| columns.iter().map(|col| col[r]).collect()).collect();
        let instance = GapInstance::builder(DelayMatrix::from_rows(rows))
            .device_demands(members.iter().map(|&i| demands[i]).collect())
            .capacities(slots.iter().map(|&s| self.capacities()[s]).collect())
            .build()
            .expect("zone sub-instance is valid");
        let solution = solver(zone, &instance, budget);
        let assignment: Vec<u32> = (0..members.len())
            .map(|i| solution.assignment.server_of(i).map_or(u32::MAX, |j| slots[j] as u32))
            .collect();
        let delays: Vec<f64> = (0..members.len())
            .map(|i| {
                solution.assignment.server_of(i).map_or(f64::INFINITY, |j| instance.delay(i, j))
            })
            .collect();
        ZoneResult {
            assignment,
            delays,
            offers,
            stats: ZoneStats {
                zone,
                devices: members.len(),
                servers: slots.len(),
                objective: solution.objective,
                feasible: solution.feasible,
                budget,
            },
        }
    }
}

/// Core SSSP sweeps from server slots, run on first use and kept for
/// the rest of a capacity repair.
struct Sweeps<'a> {
    layout: &'a ZoneLayout,
    dist: Vec<Option<Vec<f64>>>,
    scratch: SsspScratch,
}

impl<'a> Sweeps<'a> {
    fn new(layout: &'a ZoneLayout) -> Self {
        Sweeps { layout, dist: vec![None; layout.num_servers()], scratch: SsspScratch::new() }
    }

    /// The exact delay between `device` and the server at `slot` — the
    /// same value the zone solve reads from its delay column.
    fn delay(&mut self, slot: usize, device: NodeId) -> f64 {
        let (core, scratch) = (self.layout.core(), &mut self.scratch);
        let server = self.layout.server_node(slot);
        let dist = self.dist[slot].get_or_insert_with(|| core.sssp_into(server, scratch).to_vec());
        core.distance(dist, device)
    }
}
