#!/usr/bin/env python3
"""Counts production lines of Rust in the workspace.

A production line is a line of `crates/*/src/**.rs` or `src/**.rs` that
holds code: not blank, not only a comment (`//`, `///`, `//!` or a
`/* ... */` block), and not inside an item marked `#[cfg(test)]` (a test
module, a test-only helper), attribute line included. Doc comments do
not count; string literals do, whatever they contain.

Prints one `<lines>  <path>` row per file with at least one production
line, then the total. Simplicity changes report this total before and
after. Informational only: the exit status is 0 unless a path is missing.

    python3 scripts/prod_lines.py [REPO_ROOT]
"""

from __future__ import annotations

import sys
from pathlib import Path

SPECS = ["crates/*/src", "src"]


def ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def code_lines(text: str):
    """Yields `(code, opens, closes)` per line: the line's code with
    comments removed and string contents blanked, plus its brace counts
    outside strings, chars and comments."""
    block = 0  # nesting depth of /* */ comments
    raw_hashes = None  # inside a raw string: its count of `#`s
    in_str = False
    for line in text.splitlines():
        code, opens, closes = [], 0, 0
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            if block:
                if line.startswith("*/", i):
                    block, i = block - 1, i + 2
                elif line.startswith("/*", i):
                    block, i = block + 1, i + 2
                else:
                    i += 1
                continue
            if raw_hashes is not None:
                end = '"' + "#" * raw_hashes
                if line.startswith(end, i):
                    raw_hashes, i = None, i + len(end)
                    code.append('"')
                else:
                    i += 1
                continue
            if in_str:
                if c == "\\":
                    i += 2
                elif c == '"':
                    in_str, i = False, i + 1
                    code.append('"')
                else:
                    i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                block, i = 1, i + 2
                continue
            # `r"`, `r#"` or `br"` opens a raw string; `for"` does not.
            before = line[:i].removesuffix("b")
            if c == "r" and not (before and ident_char(before[-1])):
                j = i + 1
                while j < n and line[j] == "#":
                    j += 1
                if j < n and line[j] == '"':
                    raw_hashes, i = j - i - 1, j + 1
                    code.append('r"')
                    continue
            if c == '"':
                in_str, i = True, i + 1
                code.append('"')
                continue
            if c == "'":
                # A char literal ('x', '\n', '\u{..}') or a lifetime ('a).
                if i + 2 < n and line[i + 1] == "\\":
                    close = line.find("'", i + 2)
                    i = close + 1 if close != -1 else n
                    code.append("' '")
                    continue
                if i + 2 < n and line[i + 2] == "'":
                    i += 3
                    code.append("' '")
                    continue
            if c == "{":
                opens += 1
            elif c == "}":
                closes += 1
            code.append(c)
            i += 1
        # A line that ends inside a string still holds code.
        text_of_line = "".join(code)
        if (in_str or raw_hashes is not None) and not text_of_line.strip():
            text_of_line = '"'
        yield text_of_line, opens, closes


def production_lines(path: Path) -> int:
    count = 0
    depth = 0
    skip_depth = None  # brace depth at which a #[cfg(test)] item started
    skip_entered = False  # the skipped item has opened its body
    for code, opens, closes in code_lines(path.read_text()):
        stripped = code.strip()
        if skip_depth is None and stripped.startswith("#[cfg(test)]"):
            skip_depth, skip_entered = depth, False
        if skip_depth is not None:
            depth += opens - closes
            if depth > skip_depth:
                skip_entered = True
            elif skip_entered or (stripped.endswith(";") and depth == skip_depth):
                skip_depth = None
            continue
        depth += opens - closes
        if stripped:
            count += 1
    return count


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    rows = []
    for spec in SPECS:
        dirs = sorted(root.glob(spec))
        if not dirs:
            print(f"prod_lines: no {spec} under {root}", file=sys.stderr)
            return 1
        for d in dirs:
            for path in sorted(d.rglob("*.rs")):
                lines = production_lines(path)
                if lines:
                    rows.append((lines, path.relative_to(root).as_posix()))
    for lines, rel in rows:
        print(f"{lines:6}  {rel}")
    print(f"{sum(lines for lines, _ in rows):6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
