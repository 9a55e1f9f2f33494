//! Content-addressed cache keys over the platform-stable hash.
//!
//! A [`CompileKey`] is 128 bits: two independent FNV-1a passes (standard
//! and alternative offset basis — see `ecmas_core::stable`) over the same
//! explicitly spelled-out byte stream. A single 64-bit FNV is weak enough
//! that a busy long-lived daemon could plausibly collide; two independent
//! passes push the birthday bound far past any realistic workload, with
//! no new dependency.
//!
//! A key addresses a finished `CompileOutcome` by (circuit, chip,
//! complete [`EcmasConfig`], schedule mode). The stream opens with a
//! constant kind byte; it distinguishes nothing, but dropping it would
//! change the value of every key.
//!
//! Chip identity includes the defect mask (`ecmas_core::stable`'s
//! `write_chip`), so chips differing only in dead tiles or disabled
//! channels never share an entry — while a masked chip with zero
//! defects keys identically to the equivalent uniform chip.

use ecmas_chip::Chip;
use ecmas_circuit::Circuit;
use ecmas_core::compiler::EcmasConfig;
use ecmas_core::stable::{write_chip, write_circuit, write_config, StableHasher, FNV_ALT_BASIS};

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

/// The key of a finished compile result. `mode` is the scheduler label
/// as a stable string. The service's one built-in pipeline passes the
/// default config and `"auto"`; the pinned values in the tests also
/// cover other labels and configs.
#[must_use]
pub fn full_key(circuit: &Circuit, chip: &Chip, config: &EcmasConfig, mode: &str) -> CompileKey {
    let write = |h: &mut StableHasher| {
        h.write_u8(KIND_FULL);
        write_circuit(h, circuit);
        write_chip(h, chip);
        write_config(h, config);
        h.write_str(mode);
    };
    let mut a = StableHasher::new();
    let mut b = StableHasher::with_basis(FNV_ALT_BASIS);
    write(&mut a);
    write(&mut b);
    CompileKey(a.finish(), b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::CodeModel;
    use ecmas_core::cut::CutInitStrategy;
    use ecmas_core::engine::{CutPolicy, GateOrder};
    use ecmas_core::mapping::LocationStrategy;

    fn circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        c.cnot(1, 2);
        c
    }

    /// Full keys computed before the profile and map key spaces were
    /// deleted: the same inputs must keep addressing the same entries.
    #[test]
    fn full_key_values_are_pinned() {
        let c = circuit();
        let ls = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let dd = Chip::min_viable(CodeModel::DoubleDefect, 4, 3)
            .unwrap()
            .with_defects(&[(0, 0)])
            .unwrap();
        let base = EcmasConfig::default();
        let alt = EcmasConfig {
            location: LocationStrategy::Partitioner { seed: 7 },
            cut_init: CutInitStrategy::MaxCut { seed: 9 },
            order: GateOrder::CircuitOrder,
            cut_policy: CutPolicy::NeverModify,
        };
        let pins = [
            (&ls, &base, "auto", (0x6643_12d6_0fd2_4f60, 0x1cd1_0f64_43a1_10c9)),
            (&dd, &base, "limited", (0xe8c3_6471_7f65_7e2e, 0xc303_1e82_f288_7e5d)),
            (&ls, &alt, "resu", (0x9c2b_9e07_9aed_97c4, 0xfa97_96b4_c7e7_6135)),
            (&dd, &alt, "auto", (0x9909_4826_58ae_5872, 0xb020_4d26_8102_a19b)),
        ];
        for (chip, cfg, mode, want) in pins {
            assert_eq!(full_key(&c, chip, cfg, mode).parts(), want, "{mode} {cfg:?}");
        }
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

        for knob in [
            EcmasConfig { location: LocationStrategy::Trivial, ..cfg },
            EcmasConfig { cut_init: CutInitStrategy::AllSame, ..cfg },
            EcmasConfig { order: GateOrder::CircuitOrder, ..cfg },
            EcmasConfig { cut_policy: CutPolicy::NeverModify, ..cfg },
        ] {
            assert_ne!(base, full_key(&c, &chip, &knob, "auto"), "{knob:?}");
        }

        assert_ne!(base, full_key(&c, &chip, &cfg, "limited"));
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
    }

    #[test]
    fn keys_are_deterministic_across_constructions() {
        let c = circuit();
        let chip = Chip::congested(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let cfg = EcmasConfig::default();
        assert_eq!(full_key(&c, &chip, &cfg, "auto"), full_key(&c, &chip, &cfg, "auto"));
    }
}
