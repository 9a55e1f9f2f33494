//! Quickstart: build a circuit and walk the staged compilation session —
//! profile, map, schedule — inspecting each stage's artifact and the
//! final structured report, for both surface-code models.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ecmas::{validate_encoded, Ecmas};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::Circuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy circuit: GHZ preparation followed by a round of long-range
    // entangling gates.
    let mut circuit = Circuit::with_name(6, "quickstart");
    circuit.h(0);
    for i in 0..5 {
        circuit.cnot(i, i + 1);
    }
    circuit.cnot(0, 5);
    circuit.cnot(1, 4);
    println!(
        "circuit `{}`: {} qubits, {} CNOTs, depth α = {}",
        circuit.name(),
        circuit.qubits(),
        circuit.cnot_count(),
        circuit.depth()
    );

    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        // The paper's minimum viable chip: ⌈√n⌉ × ⌈√n⌉ tiles, bandwidth 1.
        let chip = Chip::min_viable(model, circuit.qubits(), 3)?;

        // Stage 1 — profile: the execution scheme and ĝPM are visible
        // before anything is placed.
        let profiled = Ecmas::default().session(&circuit, &chip)?;
        println!(
            "\n{} model: ĝPM = {} vs chip capacity {} ⇒ {} resources",
            model.label(),
            profiled.gpm(),
            chip.communication_capacity(),
            if profiled.resources_sufficient() { "sufficient" } else { "limited" },
        );

        // Stage 2 — map: the qubit → tile assignment (and, for double
        // defect, the initial cut types) can be inspected here; the
        // `EcmasConfig` strategies choose them.
        let mapped = profiled.map()?;
        println!("qubit → tile slot: {:?}", mapped.mapping());
        if let Some(cuts) = mapped.cuts() {
            println!("initial cut types: {cuts:?}");
        }

        // Stage 3 — schedule (auto picks limited vs ReSu as the paper's
        // Fig. 9 does) and read the outcome + report.
        let outcome = mapped.schedule_auto()?.into_outcome();
        validate_encoded(&circuit, &outcome.encoded)?;
        let report = &outcome.report;
        println!(
            "algorithm {} ⇒ Δ = {} cycles on a {}×{} tile array ({} physical qubits at d=3)",
            report.algorithm.label(),
            report.cycles,
            chip.tile_rows(),
            chip.tile_cols(),
            chip.physical_qubits(),
        );
        println!(
            "report: profile {:.2?}, map {:.2?} ({} restarts), schedule {:.2?}; \
             router found {} paths with {} conflicts",
            report.timings.profile,
            report.timings.map,
            report.placement_restarts,
            report.timings.schedule,
            report.router.paths_found,
            report.router.conflicts,
        );
        println!("routing grid:\n{}", chip.grid().ascii());
    }
    Ok(())
}
