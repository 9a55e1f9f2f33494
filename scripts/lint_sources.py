#!/usr/bin/env python3
"""Source lint gate for hazards the Rust toolchain cannot express.

Three bans, each guarding an invariant that broke (or nearly broke) once:

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

3. Hand-built JSON object templates (`{{\"` in a format string, or a
   `"{\"` literal) in production Rust under `crates/*/src` and `src/`.
   Reports and `ecmasd` lines once assembled their JSON by hand in five
   files, each with its own braces, commas and escapes; every object is
   now built through the one writer, `ecmas_core::diag::object`, whose
   file is the only exemption. Templates inside a file's `mod tests`
   block are fine (tests write request lines by hand).

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

# Production Rust that must build JSON objects through the writer, and
# the writer's own file.
JSON_PATHS = ["crates/*/src", "src"]
JSON_WRITER = "crates/core/src/diag.rs"
JSON_TEMPLATES = ['{{\\"', '"{\\"']

# (path-suffix, line-substring): lines matching both are exempt.
ALLOWLIST: list[tuple[str, str]] = []


def allowed(path: Path, line: str) -> bool:
    rel = path.relative_to(REPO).as_posix()
    return any(rel.endswith(suffix) and needle in line for suffix, needle in ALLOWLIST)


def is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith(("//", "//!", "///"))


def rust_files(spec: str) -> list[Path]:
    files = []
    for root in sorted(REPO.glob(spec)):
        files += [root] if root.is_file() else sorted(root.rglob("*.rs"))
    return files


def production_lines(path: Path):
    """(lineno, line) for every line before the file's `mod tests` block."""
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("mod tests"):
            return  # module blocks start at column 0; tests run to EOF
        yield lineno, line


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
            for lineno, line in production_lines(path):
                if is_comment(line) or allowed(path, line):
                    continue
                if ".unwrap()" in line:
                    problems.append(
                        f"{rel}:{lineno}: bare `.unwrap()` in code untrusted input reaches "
                        f"(return an error instead): {line.strip()}"
                    )
    return problems


def check_json_templates() -> list[str]:
    problems = []
    for spec in JSON_PATHS:
        for path in rust_files(spec):
            rel = path.relative_to(REPO).as_posix()
            if rel == JSON_WRITER:
                continue
            for lineno, line in production_lines(path):
                if is_comment(line) or allowed(path, line):
                    continue
                if any(template in line for template in JSON_TEMPLATES):
                    problems.append(
                        f"{rel}:{lineno}: hand-built JSON object template "
                        f"(build it with `ecmas_core::diag::object`): {line.strip()}"
                    )
    return problems


def main() -> int:
    problems = (
        check_cache_key_paths() + check_untrusted_input_unwraps() + check_json_templates()
    )
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"lint_sources: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print("lint_sources: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
