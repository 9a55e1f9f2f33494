//! Platform-stable content hashing for cache keys and schedule pins.
//!
//! Everything here is FNV-1a over an explicitly spelled-out byte stream:
//! no `DefaultHasher` (whose output may change between Rust releases), no
//! pointer- or layout-dependent input, every multi-byte value mixed in
//! little-endian order. The same routine therefore produces the same hash
//! on every platform and toolchain — the property both consumers need:
//!
//! * `tests/schedule_pins.rs` pins complete event schedules as
//!   [`fingerprint_encoded`] values that must survive compiler rework;
//! * `ecmas-cache` derives content-addressed compile-cache keys from
//!   circuits and chips via the `write_*` helpers, and those keys must
//!   agree across daemon restarts and machines.
//!
//! The hash is *not* cryptographic. Cache keys mitigate collisions by
//! combining two independent passes (different offset bases) into a
//! 128-bit key; the pins are compared against exact expected values, so
//! collision resistance is irrelevant there.

use ecmas_chip::Chip;
use ecmas_circuit::Circuit;

use crate::encoded::{EncodedCircuit, EventKind};

/// The standard FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// An alternative offset basis (the standard one with its halves swapped)
/// for a second, independent pass over the same bytes — two passes give a
/// 128-bit key without a second hash function.
pub const FNV_ALT_BASIS: u64 = 0x8422_2325_cbf2_9ce4;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher over an explicit byte stream.
///
/// # Example
///
/// ```
/// use ecmas::stable::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write_u64(42);
/// h.write_bytes(b"ecmas");
/// let a = h.finish();
/// // Deterministic: the same stream always hashes the same.
/// let mut h2 = StableHasher::new();
/// h2.write_u64(42);
/// h2.write_bytes(b"ecmas");
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A hasher seeded with the standard FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::with_basis(FNV_OFFSET_BASIS)
    }

    /// A hasher seeded with an arbitrary basis (see [`FNV_ALT_BASIS`]).
    #[must_use]
    pub fn with_basis(basis: u64) -> Self {
        StableHasher { state: basis }
    }

    /// Mixes raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes one byte.
    pub fn write_u8(&mut self, value: u8) {
        self.write_bytes(&[value]);
    }

    /// Mixes a `u32` as 4 little-endian bytes.
    pub fn write_u32(&mut self, value: u32) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Mixes a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Mixes a `usize` widened to `u64` (stable across pointer widths).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Mixes a bool as one byte.
    pub fn write_bool(&mut self, value: bool) {
        self.write_u8(u8::from(value));
    }

    /// Mixes a string as its length followed by its UTF-8 bytes.
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        self.write_bytes(value.as_bytes());
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a fingerprint of a complete event schedule: gate ids, start
/// cycles, event kinds, every path cell, and the cycle count.
///
/// This is the exact byte stream `tests/schedule_pins.rs` has pinned
/// since PR 3 — changing it invalidates every recorded pin, so any
/// adjustment must be a conscious re-pin recorded in EXPERIMENTS.md.
#[must_use]
pub fn fingerprint_encoded(enc: &EncodedCircuit) -> u64 {
    let mut h = StableHasher::new();
    for event in enc.events() {
        h.write_u64(event.gate.map_or(u64::MAX, |g| g as u64));
        h.write_u64(event.start);
        let (tag, qubit) = match &event.kind {
            EventKind::Braid { .. } => (1, 0),
            EventKind::DirectSameCut { .. } => (2, 0),
            EventKind::LatticeCnot { .. } => (3, 0),
            EventKind::CutModification { qubit } => (4, *qubit as u64),
        };
        h.write_u64(tag);
        h.write_u64(qubit);
        if let Some(path) = event.kind.path() {
            for &cell in path.cells() {
                h.write_usize(cell);
            }
        }
    }
    h.write_u64(enc.cycles());
    h.finish()
}

/// Mixes everything about a circuit that the compiler's *output* can
/// depend on: the qubit count and the CNOT stream.
///
/// Deliberately excluded: the circuit's display name (two stress jobs
/// with different names but identical gates must collide) and
/// single-qubit gates (the scheduler only places CNOTs; singles never
/// change the mapping, the schedule, or the report).
pub fn write_circuit(h: &mut StableHasher, circuit: &Circuit) {
    h.write_usize(circuit.qubits());
    h.write_usize(circuit.cnot_gates().len());
    for gate in circuit.cnot_gates() {
        h.write_usize(gate.control);
        h.write_usize(gate.target);
    }
}

/// Mixes a chip's full compile-relevant identity: code model, tile-array
/// shape, code distance, every per-channel bandwidth, and the defect
/// mask (count + ascending dead-slot indices — a defect-free chip mixes
/// a bare 0, so a masked chip with no defects hashes identically to the
/// equivalent uniform chip).
pub fn write_chip(h: &mut StableHasher, chip: &Chip) {
    h.write_str(chip.model().label());
    h.write_usize(chip.tile_rows());
    h.write_usize(chip.tile_cols());
    h.write_u32(chip.code_distance());
    h.write_usize(chip.h_bandwidths().len());
    for &b in chip.h_bandwidths() {
        h.write_u32(b);
    }
    h.write_usize(chip.v_bandwidths().len());
    for &b in chip.v_bandwidths() {
        h.write_u32(b);
    }
    h.write_usize(chip.defect_count());
    for slot in chip.defect_slots() {
        h.write_usize(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::CodeModel;

    #[test]
    fn empty_hash_is_the_offset_basis() {
        assert_eq!(StableHasher::new().finish(), FNV_OFFSET_BASIS);
    }

    #[test]
    fn known_fnv1a_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c — the published test vector.
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn bases_give_independent_streams() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::with_basis(FNV_ALT_BASIS);
        a.write_u64(7);
        b.write_u64(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn circuit_hash_ignores_name_and_singles() {
        let mut a = Circuit::with_name(4, "alpha");
        a.cnot(0, 1);
        a.h(2);
        a.cnot(2, 3);
        let mut b = Circuit::with_name(4, "beta");
        b.cnot(0, 1);
        b.cnot(2, 3);
        b.t(0);
        let hash = |c: &Circuit| {
            let mut h = StableHasher::new();
            write_circuit(&mut h, c);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b), "name and single gates are not compile inputs");

        let mut c = Circuit::with_name(4, "alpha");
        c.cnot(1, 0);
        c.cnot(2, 3);
        assert_ne!(hash(&a), hash(&c), "control/target orientation is");
    }

    #[test]
    fn chip_hash_separates_models_and_bandwidths() {
        let dd = Chip::uniform(CodeModel::DoubleDefect, 3, 3, 1, 3).unwrap();
        let ls = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3).unwrap();
        let wide = Chip::uniform(CodeModel::DoubleDefect, 3, 3, 2, 3).unwrap();
        let hash = |chip: &Chip| {
            let mut h = StableHasher::new();
            write_chip(&mut h, chip);
            h.finish()
        };
        assert_ne!(hash(&dd), hash(&ls));
        assert_ne!(hash(&dd), hash(&wide));
    }
}
