//! Per-job resource estimation: the space–time and channel-pressure
//! footprint of one compilation, computed from artifacts every compile
//! already produces (the chip's capability description, the encoded
//! schedule, and the router's effort counters).
//!
//! The estimate is deliberately integer-only (utilizations are reported
//! in parts-per-million) so it is bit-stable across platforms and can be
//! hashed, diffed, and carried through the daemon protocol verbatim.
//! [`ResourceEstimate::compute`] is deterministic: two runs that produce
//! the same schedule and router counters produce the same estimate.

use ecmas_chip::Chip;
use ecmas_route::RouterStats;

use crate::diag::object;

/// Deterministic per-stage cost model in abstract work units.
///
/// These are *work* proxies, not wall times: they depend only on the
/// job (circuit, chip, config), never on the machine. They are reported
/// and summed by the daemon's `stats`; nothing ranks or admits jobs by
/// them (`ecmasc --fleet` ranks chips by physical qubits, and load
/// shedding sums `CompileRequest::estimated_cost`).
///
/// * `profile` — CNOT gates examined by Para-Finding.
/// * `map` — placement restarts × live tile slots searched.
/// * `schedule` — router cells expanded + path cells committed +
///   cells recolored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCost {
    /// Profiling work units (CNOT gates examined).
    pub profile: u64,
    /// Mapping work units (restarts × live slots).
    pub map: u64,
    /// Scheduling work units (router cell traffic).
    pub schedule: u64,
}

/// The space–time and channel-pressure footprint of one compiled job.
///
/// Attached to every [`CompileReport`](crate::session::CompileReport)
/// and serialized in its JSON (`"resources"` object); the daemon
/// aggregates these per-job estimates in its `stats` line.
///
/// Channel utilizations divide committed path cells by the chip's
/// routable channel cells. Paths also traverse their endpoint tiles, so
/// a fully saturated chip can nominally exceed 1 000 000 ppm; the figure
/// is a pressure proxy for comparing jobs and chips, not an occupancy
/// percentage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Logical qubits the job maps onto tiles.
    pub logical_qubits: usize,
    /// Non-defective tile slots on the target chip.
    pub live_tiles: usize,
    /// Absolute physical qubits of the target at its code distance.
    pub physical_qubits: u64,
    /// Clock cycles Δ of the schedule.
    pub cycles: u64,
    /// Space–time volume: logical qubits × cycles.
    pub space_time_volume: u64,
    /// Routable channel cells on the chip (free routing-grid cells;
    /// disabled channels and dead tiles contribute none).
    pub channel_cells: u64,
    /// Mean channel utilization in parts-per-million: committed path
    /// cells / (channel cells × cycles).
    pub channel_mean_utilization_ppm: u64,
    /// Peak single-cycle channel utilization in parts-per-million:
    /// the busiest cycle's committed path cells / channel cells.
    pub channel_peak_utilization_ppm: u64,
    /// Per-stage deterministic work units.
    pub stage_cost: StageCost,
}

impl ResourceEstimate {
    /// Computes the estimate for one job from artifacts the pipeline
    /// already has. Deterministic and integer-only.
    #[must_use]
    pub fn compute(
        chip: &Chip,
        logical_qubits: usize,
        cnot_gates: usize,
        placement_restarts: usize,
        cycles: u64,
        router: &RouterStats,
    ) -> Self {
        let live_tiles = chip.live_tiles();
        let channel_cells = chip.channel_cells() as u64;
        let ppm = |cells: u64, denom: u64| {
            if denom == 0 {
                0
            } else {
                u64::try_from(u128::from(cells) * 1_000_000 / u128::from(denom)).unwrap_or(u64::MAX)
            }
        };
        ResourceEstimate {
            logical_qubits,
            live_tiles,
            physical_qubits: chip.physical_qubits(),
            cycles,
            space_time_volume: logical_qubits as u64 * cycles,
            channel_cells,
            channel_mean_utilization_ppm: ppm(
                router.path_cells,
                channel_cells.saturating_mul(cycles),
            ),
            channel_peak_utilization_ppm: ppm(router.peak_cycle_path_cells, channel_cells),
            stage_cost: StageCost {
                profile: cnot_gates as u64,
                map: placement_restarts as u64 * live_tiles as u64,
                schedule: router.cells_expanded + router.path_cells + router.recolor_cells,
            },
        }
    }

    /// Serializes the estimate as a self-contained JSON object (no
    /// external serializer in this workspace — see `vendor/README.md`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let cost = &self.stage_cost;
        object()
            .field("logical_qubits", self.logical_qubits)
            .field("live_tiles", self.live_tiles)
            .field("physical_qubits", self.physical_qubits)
            .field("cycles", self.cycles)
            .field("space_time_volume", self.space_time_volume)
            .field("channel_cells", self.channel_cells)
            .field("channel_mean_utilization_ppm", self.channel_mean_utilization_ppm)
            .field("channel_peak_utilization_ppm", self.channel_peak_utilization_ppm)
            .field(
                "stage_cost",
                object()
                    .field("profile", cost.profile)
                    .field("map", cost.map)
                    .field("schedule", cost.schedule),
            )
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::CodeModel;

    #[test]
    fn estimate_arithmetic_is_exact() {
        let chip = Chip::uniform(CodeModel::LatticeSurgery, 2, 2, 1, 3).unwrap();
        let channel_cells = chip.grid().free_cells() as u64;
        let stats = RouterStats {
            path_cells: 2 * channel_cells,
            peak_cycle_path_cells: channel_cells,
            cells_expanded: 7,
            recolor_cells: 5,
            ..RouterStats::default()
        };
        let est = ResourceEstimate::compute(&chip, 3, 11, 4, 8, &stats);
        assert_eq!(est.logical_qubits, 3);
        assert_eq!(est.live_tiles, 4);
        assert_eq!(est.physical_qubits, chip.physical_qubits());
        assert_eq!(est.cycles, 8);
        assert_eq!(est.space_time_volume, 24);
        assert_eq!(est.channel_cells, channel_cells);
        // path_cells = 2 * channel_cells over 8 cycles -> 2/8 of capacity.
        assert_eq!(est.channel_mean_utilization_ppm, 250_000);
        // Busiest cycle filled every channel cell.
        assert_eq!(est.channel_peak_utilization_ppm, 1_000_000);
        assert_eq!(
            est.stage_cost,
            StageCost { profile: 11, map: 16, schedule: 7 + 2 * channel_cells + 5 }
        );
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 1, 2, 1, 3).unwrap();
        let est = ResourceEstimate::compute(&chip, 0, 0, 0, 0, &RouterStats::default());
        assert_eq!(est.channel_mean_utilization_ppm, 0);
        assert_eq!(est.channel_peak_utilization_ppm, 0);
        assert_eq!(est.space_time_volume, 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let est = ResourceEstimate::default();
        let json = est.to_json();
        for key in [
            "logical_qubits",
            "live_tiles",
            "physical_qubits",
            "cycles",
            "space_time_volume",
            "channel_cells",
            "channel_mean_utilization_ppm",
            "channel_peak_utilization_ppm",
            "stage_cost",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key} in {json}");
        }
    }
}
