#!/usr/bin/env python3
"""Source lint gate for hazards the Rust toolchain cannot express.

Two bans, each guarding an invariant that broke (or nearly broke) once:

1. Nondeterministic inputs in cache-key paths. The compile cache is
   content-addressed: keys must be identical across platforms, runs, and
   Rust releases, so `DefaultHasher` (hash output unstable between
   releases) and `SystemTime::now` (wall clock in a pure key) are banned
   in every file that participates in key derivation.

2. Bare `.unwrap()` in code that untrusted `ecmasd` input reaches: the
   daemon's protocol code, which reads NDJSON from stdin, and the QASM
   front end, which parses a submit line's `"qasm"` source. Malformed
   input must get an `{"op":"error",...}` line; a panic kills every
   queued job. Unwraps inside a file's `mod tests` block are fine (tests
   should panic).

Vetted exceptions go in ALLOWLIST as (path-suffix, line-substring)
pairs; a line matching an entry is skipped. Keep each entry justified
with a comment.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Files (or directories of files) that participate in cache-key
# derivation and therefore must stay deterministic.
CACHE_KEY_PATHS = [
    "crates/cache/src",
    "crates/core/src/stable.rs",
]
CACHE_KEY_BANS = ["DefaultHasher", "SystemTime::now"]

# Files (or directories of files) that untrusted `ecmasd` input reaches.
UNTRUSTED_INPUT_PATHS = [
    "crates/serve/src/daemon.rs",
    "crates/circuit/src/qasm",
]

# (path-suffix, line-substring): lines matching both are exempt.
ALLOWLIST: list[tuple[str, str]] = []


def allowed(path: Path, line: str) -> bool:
    rel = path.relative_to(REPO).as_posix()
    return any(rel.endswith(suffix) and needle in line for suffix, needle in ALLOWLIST)


def is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith(("//", "//!", "///"))


def rust_files(spec: str) -> list[Path]:
    root = REPO / spec
    if root.is_file():
        return [root]
    return sorted(root.rglob("*.rs"))


def check_cache_key_paths() -> list[str]:
    problems = []
    for spec in CACHE_KEY_PATHS:
        for path in rust_files(spec):
            rel = path.relative_to(REPO).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if is_comment(line) or allowed(path, line):
                    continue
                for banned in CACHE_KEY_BANS:
                    if banned in line:
                        problems.append(
                            f"{rel}:{lineno}: `{banned}` in a cache-key path "
                            f"(keys must be deterministic): {line.strip()}"
                        )
    return problems


def check_untrusted_input_unwraps() -> list[str]:
    problems = []
    for spec in UNTRUSTED_INPUT_PATHS:
        for path in rust_files(spec):
            rel = path.relative_to(REPO).as_posix()
            in_tests = False
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if line.startswith("mod tests"):
                    in_tests = True  # module blocks start at column 0; tests run to EOF
                if in_tests or is_comment(line) or allowed(path, line):
                    continue
                if ".unwrap()" in line:
                    problems.append(
                        f"{rel}:{lineno}: bare `.unwrap()` in code untrusted input reaches "
                        f"(return an error instead): {line.strip()}"
                    )
    return problems


def main() -> int:
    problems = check_cache_key_paths() + check_untrusted_input_unwraps()
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"lint_sources: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print("lint_sources: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
