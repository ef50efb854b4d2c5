#!/usr/bin/env python3
"""Repo-invariant linter: structural rules the compiler cannot check.

The build system and source tree carry a handful of load-bearing
conventions (DESIGN.md §11). Each is easy to break in a way that compiles
clean and passes every test on the machine that broke it:

  avx2-isolation      -mavx2 may be applied to exactly one translation
                      unit, src/xml/simd_scan_avx2.cc. Any other TU built
                      with it would emit AVX2 instructions outside the
                      cpuid-dispatch guard and SIGILL on baseline x86-64.
  ctest-timeout       every ctest target declares a TIMEOUT, so a wedged
                      test kills its own slot instead of hanging CI.
  relaxed-confinement std::memory_order_relaxed is confined to src/obs/
                      (the lock-free metrics core, designed for it) and to
                      files carrying an explicit `// lint: relaxed-ok(...)`
                      waiver naming why the relaxed ordering is sound.
  iostream-free-headers  src/ headers must not include <iostream>: it
                      injects a static initializer into every includer.
  reset-ok            generation-stamped pools in src/twigm/ (slots_,
                      free_list_, recordings_, per-node stacks —
                      DESIGN.md §12) must never be .clear()ed: document
                      reset is a generation bump, and a clear() both
                      reintroduces a per-document O(n) walk and discards
                      the pooled capacity the zero-alloc contract depends
                      on. Lines that intentionally drop state carry a
                      `// lint: reset-ok(<why>)` waiver.

Run `tools/lint_invariants.py --root <repo>`; exit 0 when clean, 1 with
one `rule: path: message` line per violation. tests/tools/ has fixtures.
"""

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# CMake statement parsing (shared by the two build-system rules)
# ---------------------------------------------------------------------------


def strip_cmake_comments(text):
    """Removes `# ...` comments (CMake has no block comments we use)."""
    return re.sub(r"#[^\n]*", "", text)


def cmake_statements(text):
    """Yields (command_lower, argstring) for each `command(...)` statement.

    Statements are recovered by paren balancing so multi-line calls (the
    normal case for add_test / set_source_files_properties) come back as
    one unit.
    """
    text = strip_cmake_comments(text)
    for match in re.finditer(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(", text):
        depth = 1
        pos = match.end()
        while pos < len(text) and depth:
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
            pos += 1
        yield match.group(1).lower(), text[match.end() : pos - 1]


def expand_cmake_vars(argstring, variables):
    """Single-level ${VAR} expansion from set() definitions already seen."""
    return re.sub(
        r"\$\{([A-Za-z0-9_]+)\}",
        lambda m: variables.get(m.group(1), m.group(0)),
        argstring,
    )


def _generated(path):
    """True for build trees and VCS internals — not checked-in sources."""
    return any(
        part.startswith("build") or part in (".git", "CMakeFiles")
        for part in path.parts
    )


def cmake_files(root):
    for path in sorted(root.rglob("CMakeLists.txt")):
        if not _generated(path.relative_to(root)):
            yield path
    for path in sorted(root.rglob("*.cmake")):
        if not _generated(path.relative_to(root)):
            yield path


# ---------------------------------------------------------------------------
# Rules. Each returns a list of (rule, path, message) tuples.
# ---------------------------------------------------------------------------

AVX2_TU = "simd_scan_avx2.cc"


def check_avx2_isolation(root):
    """-mavx2 only in the probe and the dedicated TU's per-file property."""
    violations = []
    for path in cmake_files(root):
        for command, args in cmake_statements(path.read_text()):
            if "-mavx2" not in args:
                continue
            if command == "check_cxx_compiler_flag":
                continue  # the capability probe, compiles nothing we ship
            if command == "set_source_files_properties" and AVX2_TU in args:
                continue
            violations.append(
                (
                    "avx2-isolation",
                    path,
                    f"-mavx2 outside the per-file property of {AVX2_TU} "
                    f"(in {command}()); AVX2 code must stay behind the "
                    "cpuid dispatch boundary",
                )
            )
    return violations


def check_ctest_timeout(root):
    """Every add_test / gtest_discover_tests declares a TIMEOUT."""
    violations = []
    for path in cmake_files(root):
        variables = {}
        pending = {}  # test name -> first statement missing a timeout
        covered = set()
        for command, args in cmake_statements(path.read_text()):
            if command == "set":
                parts = args.split()
                if parts:
                    variables[parts[0]] = " ".join(parts[1:])
            elif command == "add_test":
                expanded = expand_cmake_vars(args, variables)
                name_match = re.search(r"\bNAME\s+(\S+)", expanded)
                name = name_match.group(1) if name_match else expanded.split()[0]
                pending.setdefault(name, path)
            elif command == "set_tests_properties":
                expanded = expand_cmake_vars(args, variables)
                if re.search(r"\bTIMEOUT\b", expanded):
                    covered.update(expanded.split())
            elif command == "gtest_discover_tests":
                expanded = expand_cmake_vars(args, variables)
                if not re.search(r"\bTIMEOUT\b", expanded):
                    violations.append(
                        (
                            "ctest-timeout",
                            path,
                            "gtest_discover_tests() without TIMEOUT in its "
                            "PROPERTIES; a hung test would stall CI",
                        )
                    )
        for name, stmt_path in pending.items():
            if name not in covered:
                violations.append(
                    (
                        "ctest-timeout",
                        stmt_path,
                        f"add_test(NAME {name}) has no "
                        "set_tests_properties(... TIMEOUT ...)",
                    )
                )
    return violations


RELAXED_WAIVER = re.compile(r"//\s*lint:\s*relaxed-ok\([^)\n]+\)")


def check_relaxed_confinement(root):
    """memory_order_relaxed only in src/obs/ or explicitly waived files."""
    violations = []
    src = root / "src"
    if not src.is_dir():
        return violations
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        text = path.read_text()
        if "memory_order_relaxed" not in text:
            continue
        rel = path.relative_to(root)
        if rel.parts[:2] == ("src", "obs"):
            continue
        if RELAXED_WAIVER.search(text):
            continue
        violations.append(
            (
                "relaxed-confinement",
                path,
                "memory_order_relaxed outside src/obs/ without a "
                "`// lint: relaxed-ok(<why it is sound>)` waiver",
            )
        )
    return violations


IOSTREAM_INCLUDE = re.compile(r"^\s*#\s*include\s*<iostream>", re.MULTILINE)


def check_iostream_free_headers(root):
    """src/ headers must not include <iostream>."""
    violations = []
    src = root / "src"
    if not src.is_dir():
        return violations
    for path in sorted(src.rglob("*.h")):
        if IOSTREAM_INCLUDE.search(path.read_text()):
            violations.append(
                (
                    "iostream-free-headers",
                    path,
                    "#include <iostream> in a src/ header drags a static "
                    "initializer into every includer",
                )
            )
    return violations


RESET_WAIVER = re.compile(r"//\s*lint:\s*reset-ok\([^)\n]+\)")
# The generation-stamped pools of DESIGN.md §12. `stack` covers the
# MachineNode per-node entry stacks (`node.stack`), whose live prefix is
# tracked by stack_size/stack_gen rather than the vector's own size.
STAMPED_CLEAR = re.compile(
    r"\b(?:slots_|free_list_|recordings_|stack)\s*\.\s*clear\s*\("
)


def check_reset_ok(root):
    """Generation-stamped containers in src/twigm/ are never clear()ed."""
    violations = []
    twigm = root / "src" / "twigm"
    if not twigm.is_dir():
        return violations
    for path in sorted(twigm.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = STAMPED_CLEAR.search(line)
            if match is None or RESET_WAIVER.search(line):
                continue
            violations.append(
                (
                    "reset-ok",
                    path,
                    f"line {lineno}: .clear() on generation-stamped "
                    f"container `{match.group(0).split('.')[0].strip()}`; "
                    "reset is a generation bump (DESIGN.md §12) — add a "
                    "`// lint: reset-ok(<why>)` waiver if the state drop "
                    "is intentional",
                )
            )
    return violations


RULES = [
    check_avx2_isolation,
    check_ctest_timeout,
    check_relaxed_confinement,
    check_iostream_free_headers,
    check_reset_ok,
]


def run(root):
    violations = []
    for rule in RULES:
        violations.extend(rule(root))
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root to lint (default: this checkout)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    violations = run(root)
    for rule, path, message in violations:
        try:
            shown = path.relative_to(root)
        except ValueError:
            shown = path
        print(f"{rule}: {shown}: {message}")
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
