//! Content-addressed cache keys over the platform-stable hash.
//!
//! A [`CompileKey`] is 128 bits: two independent FNV-1a passes (standard
//! and alternative offset basis — see `ecmas_core::stable`) over the same
//! explicitly spelled-out byte stream. A single 64-bit FNV is weak enough
//! that a busy long-lived daemon could plausibly collide; two independent
//! passes push the birthday bound far past any realistic workload, with
//! no new dependency.
//!
//! A key addresses a finished `CompileOutcome` by (circuit, chip): the
//! service runs one built-in pipeline (`Ecmas::default()` with
//! `schedule_auto`), so nothing else can change the result.
//!
//! Chip identity includes the defect mask (`ecmas_core::stable`'s
//! `write_chip`), so chips differing only in dead tiles or disabled
//! channels never share an entry — while a masked chip with zero
//! defects keys identically to the equivalent uniform chip.

use ecmas_chip::Chip;
use ecmas_circuit::Circuit;
use ecmas_core::stable::{write_chip, write_circuit, StableHasher, FNV_ALT_BASIS};

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

/// The key of the built-in pipeline's result for `circuit` on `chip`.
#[must_use]
pub fn full_key(circuit: &Circuit, chip: &Chip) -> CompileKey {
    let write = |h: &mut StableHasher| {
        write_circuit(h, circuit);
        write_chip(h, chip);
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

    fn circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        c.cnot(1, 2);
        c
    }

    /// Keys must agree across daemon restarts, machines and toolchains.
    #[test]
    fn full_key_values_are_pinned() {
        let c = circuit();
        let ls = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let dd = Chip::min_viable(CodeModel::DoubleDefect, 4, 3)
            .unwrap()
            .with_defects(&[(0, 0)])
            .unwrap();
        assert_eq!(full_key(&c, &ls).parts(), (0xc793_ee71_6e3c_3c54, 0xadbe_08f4_7512_23ab));
        assert_eq!(full_key(&c, &dd).parts(), (0x0f66_507f_ace4_9a80, 0x39a8_bcf1_eefd_c053));
    }

    #[test]
    fn full_key_sees_every_input() {
        let c = circuit();
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let base = full_key(&c, &chip);

        let mut c2 = circuit();
        c2.cnot(0, 3);
        assert_ne!(base, full_key(&c2, &chip));

        let wide = Chip::four_x(CodeModel::LatticeSurgery, 4, 3).unwrap();
        assert_ne!(base, full_key(&c, &wide));
    }

    #[test]
    fn defect_masks_separate_keys_and_empty_masks_do_not() {
        let c = circuit();
        let uniform = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3).unwrap();
        let base = full_key(&c, &uniform);

        // A defect-free masked chip is the same hardware: same key.
        let masked_clean = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[])
            .unwrap();
        assert_eq!(base, full_key(&c, &masked_clean));

        // Distinct defect masks are distinct hardware: distinct keys.
        let dead_a = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[(2, 2)])
            .unwrap();
        let dead_b = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[(2, 1)])
            .unwrap();
        let ka = full_key(&c, &dead_a);
        let kb = full_key(&c, &dead_b);
        assert_ne!(base, ka);
        assert_ne!(base, kb);
        assert_ne!(ka, kb);
    }

    #[test]
    fn keys_are_deterministic_across_constructions() {
        let c = circuit();
        let chip = Chip::congested(CodeModel::LatticeSurgery, 4, 3).unwrap();
        assert_eq!(full_key(&c, &chip), full_key(&c, &chip));
    }
}
