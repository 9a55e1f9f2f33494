//! ASCII rendering of encoded circuits: per-cycle chip occupancy maps and
//! a compact event timeline. Debugging aid used by the examples.

use std::fmt::Write as _;

use ecmas_chip::Cell;

use crate::encoded::{EncodedCircuit, EventKind};

/// Renders the chip occupancy at one clock cycle: `#` mapped tiles, `.`
/// free channel cells, `*` cells held by a path, `o` path endpoints, `M`
/// tiles undergoing cut modification.
///
/// # Example
///
/// ```
/// use ecmas::{viz, Ecmas};
/// use ecmas_chip::{Chip, CodeModel};
/// use ecmas_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.cnot(0, 1);
/// let chip = Chip::min_viable(CodeModel::LatticeSurgery, 2, 3)?;
/// let enc = Ecmas::default().compile(&c, &chip)?;
/// let frame = viz::render_cycle(&enc, 0);
/// assert!(frame.contains('o') && frame.contains('*'));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn render_cycle(enc: &EncodedCircuit, cycle: u64) -> String {
    let grid = enc.chip().grid();
    let mut glyph: Vec<char> = (0..grid.len())
        .map(|idx| match grid.cell(idx) {
            Cell::Free => '.',
            Cell::Tile(slot) => {
                if enc.mapping().contains(&slot) {
                    '#'
                } else {
                    '.'
                }
            }
        })
        .collect();
    for event in enc.events() {
        let busy = cycle >= event.start && cycle < event.start + event.kind.path_hold().max(1);
        match &event.kind {
            EventKind::CutModification { qubit } => {
                if cycle >= event.start && cycle < event.end() {
                    let cell = grid.tile_cell(enc.mapping()[*qubit]);
                    glyph[cell] = 'M';
                }
            }
            kind => {
                if !busy {
                    continue;
                }
                if let Some(path) = kind.path() {
                    for &cell in path.interior() {
                        glyph[cell] = '*';
                    }
                    let cells = path.cells();
                    glyph[cells[0]] = 'o';
                    glyph[cells[cells.len() - 1]] = 'o';
                }
            }
        }
    }
    let mut out = String::with_capacity(grid.len() + grid.rows());
    for r in 0..grid.rows() {
        for c in 0..grid.cols() {
            out.push(glyph[grid.index(r, c)]);
        }
        out.push('\n');
    }
    out
}

/// Renders the first `max_cycles` cycles as stacked frames with headers.
#[must_use]
pub fn render_timeline(enc: &EncodedCircuit, max_cycles: u64) -> String {
    let mut out = String::new();
    let last = enc.cycles().min(max_cycles);
    for cycle in 0..last {
        let _ = writeln!(out, "-- cycle {cycle} --");
        out.push_str(&render_cycle(enc, cycle));
    }
    if enc.cycles() > last {
        let _ = writeln!(out, "… {} more cycles", enc.cycles() - last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Ecmas;
    use ecmas_chip::{Chip, CodeModel};
    use ecmas_circuit::Circuit;

    fn compiled() -> (Circuit, EncodedCircuit) {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        c.cnot(1, 2);
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let enc = Ecmas::default().compile(&c, &chip).unwrap();
        (c, enc)
    }

    #[test]
    fn render_shows_tiles_and_paths() {
        let (_, enc) = compiled();
        let frame = render_cycle(&enc, 0);
        assert_eq!(frame.matches('#').count() + frame.matches('o').count(), 4);
        assert!(frame.contains('*'), "active paths render as *");
        assert_eq!(frame.lines().count(), enc.chip().grid().rows());
    }

    #[test]
    fn idle_cycle_shows_no_activity() {
        let (_, enc) = compiled();
        let frame = render_cycle(&enc, enc.cycles() + 5);
        assert!(!frame.contains('*'));
        assert!(!frame.contains('o'));
        assert_eq!(frame.matches('#').count(), 4);
    }

    #[test]
    fn timeline_caps_frames() {
        let (_, enc) = compiled();
        let t = render_timeline(&enc, 1);
        assert!(t.contains("-- cycle 0 --"));
        assert!(!t.contains("-- cycle 1 --"));
        assert!(t.contains("more cycles"));
    }

    #[test]
    fn modification_renders_as_m() {
        let mut c = Circuit::new(2);
        for _ in 0..3 {
            c.cnot(0, 1); // same pair thrice: adaptive policy flips a tile
        }
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 2, 3).unwrap();
        let enc = crate::compiler::Ecmas::new(crate::compiler::EcmasConfig {
            cut_init: crate::cut::CutInitStrategy::AllSame,
            ..Default::default()
        })
        .compile(&c, &chip)
        .unwrap();
        assert!(enc.modification_count() > 0, "flip expected for a repeated pair");
        let frame = render_cycle(&enc, 0);
        assert!(frame.contains('M'), "modification glyph expected:\n{frame}");
    }
}
