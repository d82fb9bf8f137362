//! The correctness gate, run outside the timed phase.
//!
//! An in-process `Runtime` replays an epoch's events under the same
//! `RuntimeConfig`. The epoch's final snapshot, fetched from the
//! promoted standby, must equal the replay's byte for byte, which also
//! proves no acknowledged push was lost or applied twice across the
//! failover. Every `Stats` checkpoint must match the replay at its
//! cursor, and every `Solution` is re-scored against the replayed state
//! at its cursor.

use std::collections::BTreeMap;

use tacc_runtime::Runtime;

use crate::drive::{Answer, Checkpoint, Observed};
use crate::workload::Inputs;

/// Replays epoch `epoch`'s inputs and checks everything the client was
/// told in that epoch.
pub fn check(inputs: &Inputs, obs: &Observed, epoch: usize) -> Result<(), String> {
    let mut by_cursor: BTreeMap<u64, (Vec<&Answer>, Vec<&Checkpoint>)> = BTreeMap::new();
    for answer in &obs.answers[epoch] {
        by_cursor.entry(answer.cursor).or_default().0.push(answer);
    }
    for checkpoint in &obs.checkpoints[epoch] {
        by_cursor.entry(checkpoint.cursor).or_default().1.push(checkpoint);
    }

    let mut runtime = Runtime::from_trace(&inputs.shell, inputs.config.clone())
        .map_err(|e| format!("gate: building the replay runtime: {e}"))?;
    for (&cursor, (answers, checkpoints)) in &by_cursor {
        while runtime.cursor() < cursor {
            let index = runtime.cursor() as usize;
            runtime
                .step(index, &inputs.trace.events[index])
                .map_err(|e| format!("gate: replaying event {index}: {e}"))?;
        }
        for checkpoint in checkpoints {
            let want = Checkpoint {
                cursor,
                total_delay_ms: runtime.cluster().total_delay(),
                active_devices: runtime.cluster().active_count(),
            };
            if **checkpoint != want {
                return Err(format!("gate: Stats {checkpoint:?} but the replay has {want:?}"));
            }
        }
        for answer in answers {
            rescore(&runtime, answer)?;
        }
    }
    while (runtime.cursor() as usize) < inputs.trace.events.len() {
        let index = runtime.cursor() as usize;
        runtime
            .step(index, &inputs.trace.events[index])
            .map_err(|e| format!("gate: replaying event {index}: {e}"))?;
    }
    let expected = runtime.snapshot().to_json();
    let snapshot = &obs.final_snapshots[epoch];
    if *snapshot != expected {
        return Err(format!(
            "gate: epoch {epoch}'s final snapshot ({} bytes) differs from the replay ({} bytes)",
            snapshot.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// A solution must place every active device exactly once on an alive
/// server, keep every server within capacity, and report the summed
/// delay of its assignment as its objective.
fn rescore(runtime: &Runtime, answer: &Answer) -> Result<(), String> {
    let cluster = runtime.cluster();
    let instance = cluster.instance();
    let at = answer.cursor;
    let mut placed = vec![false; instance.num_devices()];
    let mut load = vec![0.0f64; instance.num_servers()];
    let mut objective = 0.0f64;
    for &(device, server) in &answer.assignment {
        if device >= placed.len() || server >= load.len() {
            return Err(format!("gate: solve at event {at} names ({device}, {server})"));
        }
        if placed[device] || !cluster.is_active(device) {
            return Err(format!("gate: solve at event {at} places device {device} wrongly"));
        }
        if runtime.maintainer().is_failed(server) {
            return Err(format!("gate: solve at event {at} uses failed server {server}"));
        }
        placed[device] = true;
        load[server] += instance.demand(device, server);
        objective += instance.delay(device, server);
    }
    if answer.assignment.len() != cluster.active_count() {
        return Err(format!(
            "gate: solve at event {at} placed {} of {} active devices",
            answer.assignment.len(),
            cluster.active_count()
        ));
    }
    for (server, &l) in load.iter().enumerate() {
        let capacity = instance.capacity(server);
        if l > capacity * (1.0 + 1e-9) + 1e-9 {
            let alive = (0..load.len()).filter(|&j| !runtime.maintainer().is_failed(j)).count();
            let mut own = vec![0.0f64; load.len()];
            for d in (0..instance.num_devices()).filter(|&d| cluster.is_active(d)) {
                if let Some(j) = cluster.server_of(d) {
                    own[j] += instance.demand(d, j);
                }
            }
            let own_fits = own.iter().enumerate().all(|(j, &o)| o <= instance.capacity(j) + 1e-9);
            return Err(format!(
                "gate: solve at event {at} (flagged feasible: {}) loads server {server} to \
                 {l:.3} > capacity {capacity:.3}; {alive} of {} servers alive, {} devices \
                 active, the runtime's own assignment fits: {own_fits}",
                answer.feasible,
                load.len(),
                cluster.active_count()
            ));
        }
    }
    if !answer.feasible {
        return Err(format!("gate: the solve at event {at} reported an infeasible answer"));
    }
    let tolerance = 1e-9 * objective.abs().max(1.0);
    if (objective - answer.objective).abs() > tolerance {
        return Err(format!(
            "gate: solve at event {at} reports objective {} but its assignment sums to {objective}",
            answer.objective
        ));
    }
    Ok(())
}
