//! Content-addressed cache keys over the platform-stable hash.
//!
//! A [`CompileKey`] is 128 bits: two independent FNV-1a passes (standard
//! and alternative offset basis — see `ecmas_core::stable`) over the same
//! explicitly spelled-out byte stream. A single 64-bit FNV is weak enough
//! that a busy long-lived daemon could plausibly collide; two independent
//! passes push the birthday bound far past any realistic workload, with
//! no new dependency.
//!
//! Three key spaces share the type, separated by a leading kind tag so a
//! profile key can never alias a full-result key:
//!
//! * **full** — (circuit, chip, complete [`EcmasConfig`], schedule mode):
//!   addresses a finished `CompileOutcome`.
//! * **profile** — (circuit only): profiling never reads the chip or
//!   config, so one profile artifact serves every chip and config.
//! * **map** — (circuit, chip, mapping-relevant config knobs): a map
//!   artifact is valid across schedule-only config changes
//!   (`order`, `cut_policy`) but pinned to `location` and `cut_init`.
//!
//! Chip identity includes the defect mask (`ecmas_core::stable`'s
//! `write_chip`), so chips differing only in dead tiles or disabled
//! channels never share an entry — while a masked chip with zero
//! defects keys identically to the equivalent uniform chip.

use ecmas_chip::Chip;
use ecmas_circuit::Circuit;
use ecmas_core::compiler::EcmasConfig;
use ecmas_core::stable::{
    write_chip, write_circuit, write_config, write_mapping_config, StableHasher, FNV_ALT_BASIS,
};

/// A 128-bit content-addressed cache key (two independent FNV-1a passes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompileKey(u64, u64);

impl CompileKey {
    /// The two halves, for logging/debugging.
    #[must_use]
    pub fn parts(self) -> (u64, u64) {
        (self.0, self.1)
    }
}

#[cfg(test)]
pub(crate) fn test_key(a: u64, b: u64) -> CompileKey {
    CompileKey(a, b)
}

const KIND_FULL: u8 = 0;
const KIND_PROFILE: u8 = 1;
const KIND_MAP: u8 = 2;

fn derive(write: impl Fn(&mut StableHasher)) -> CompileKey {
    let mut a = StableHasher::new();
    let mut b = StableHasher::with_basis(FNV_ALT_BASIS);
    write(&mut a);
    write(&mut b);
    CompileKey(a.finish(), b.finish())
}

/// The key of a finished compile result. `mode` is the schedule-mode
/// label (`"auto"` / `"limited"` / `"resu"`) — it lives in the serve
/// layer, so it crosses this boundary as its stable string.
#[must_use]
pub fn full_key(circuit: &Circuit, chip: &Chip, config: &EcmasConfig, mode: &str) -> CompileKey {
    derive(|h| {
        h.write_u8(KIND_FULL);
        write_circuit(h, circuit);
        write_chip(h, chip);
        write_config(h, config);
        h.write_str(mode);
    })
}

/// The key of a cached profile artifact: the circuit alone.
#[must_use]
pub fn profile_key(circuit: &Circuit) -> CompileKey {
    derive(|h| {
        h.write_u8(KIND_PROFILE);
        write_circuit(h, circuit);
    })
}

/// The key of a cached map artifact: circuit, chip, and the
/// mapping-relevant config knobs only.
#[must_use]
pub fn map_key(circuit: &Circuit, chip: &Chip, config: &EcmasConfig) -> CompileKey {
    derive(|h| {
        h.write_u8(KIND_MAP);
        write_circuit(h, circuit);
        write_chip(h, chip);
        write_mapping_config(h, config);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::CodeModel;
    use ecmas_core::engine::{CutPolicy, GateOrder};

    fn circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        c.cnot(1, 2);
        c
    }

    #[test]
    fn key_spaces_do_not_alias() {
        let c = circuit();
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let cfg = EcmasConfig::default();
        let full = full_key(&c, &chip, &cfg, "auto");
        let profile = profile_key(&c);
        let map = map_key(&c, &chip, &cfg);
        assert_ne!(full, profile);
        assert_ne!(full, map);
        assert_ne!(profile, map);
    }

    #[test]
    fn full_key_sees_every_input() {
        let c = circuit();
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let cfg = EcmasConfig::default();
        let base = full_key(&c, &chip, &cfg, "auto");

        let mut c2 = circuit();
        c2.cnot(0, 3);
        assert_ne!(base, full_key(&c2, &chip, &cfg, "auto"));

        let wide = Chip::four_x(CodeModel::LatticeSurgery, 4, 3).unwrap();
        assert_ne!(base, full_key(&c, &wide, &cfg, "auto"));

        let cfg2 = EcmasConfig { order: GateOrder::CircuitOrder, ..cfg };
        assert_ne!(base, full_key(&c, &chip, &cfg2, "auto"));

        assert_ne!(base, full_key(&c, &chip, &cfg, "limited"));
    }

    #[test]
    fn map_key_ignores_schedule_only_knobs() {
        let c = circuit();
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 4, 3).unwrap();
        let cfg = EcmasConfig::default();
        let sched_only = EcmasConfig {
            order: GateOrder::CircuitOrder,
            cut_policy: CutPolicy::NeverModify,
            ..cfg
        };
        assert_eq!(map_key(&c, &chip, &cfg), map_key(&c, &chip, &sched_only));
        assert_ne!(
            full_key(&c, &chip, &cfg, "limited"),
            full_key(&c, &chip, &sched_only, "limited")
        );
    }

    #[test]
    fn defect_masks_separate_keys_and_empty_masks_do_not() {
        let c = circuit();
        let uniform = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3).unwrap();
        let cfg = EcmasConfig::default();
        let base = full_key(&c, &uniform, &cfg, "auto");

        // A defect-free masked chip is the same hardware: same key.
        let masked_clean = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[])
            .unwrap();
        assert_eq!(base, full_key(&c, &masked_clean, &cfg, "auto"));
        assert_eq!(map_key(&c, &uniform, &cfg), map_key(&c, &masked_clean, &cfg));

        // Distinct defect masks are distinct hardware: distinct keys.
        let dead_a = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[(2, 2)])
            .unwrap();
        let dead_b = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[(2, 1)])
            .unwrap();
        let ka = full_key(&c, &dead_a, &cfg, "auto");
        let kb = full_key(&c, &dead_b, &cfg, "auto");
        assert_ne!(base, ka);
        assert_ne!(base, kb);
        assert_ne!(ka, kb);
        assert_ne!(map_key(&c, &dead_a, &cfg), map_key(&c, &dead_b, &cfg));
    }

    #[test]
    fn keys_are_deterministic_across_constructions() {
        let c = circuit();
        let chip = Chip::congested(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let cfg = EcmasConfig::default();
        assert_eq!(full_key(&c, &chip, &cfg, "auto"), full_key(&c, &chip, &cfg, "auto"));
    }
}
