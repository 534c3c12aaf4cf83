#!/usr/bin/env python3
"""Enforce the src/ include DAG (docs/architecture.md).

Layers, lowest first:

    common -> obs -> net / storage -> consistency -> location -> core -> kfs / obj

Each layer may include itself and the layers listed for it below; any
other `#include "layer/..."` is a back-edge (e.g. consistency including
core — the CmHost bridge exists precisely so protocols never see Node)
and fails the build. Parses quoted includes only: system/third-party
headers in angle brackets are not layering edges.

Also enforces the src/core file size cap: node.cc was split into
one-subsystem TUs (ops / queries / handlers / migrate / failover /
telemetry / meta) and no src/core/*.cc or *.h may regress past
MAX_CORE_FILE_LINES lines — growth belongs in a new focused file, not
back into a god file or its header.

Exit status: 0 when the DAG holds and the cap is respected, 1 otherwise.
"""

import re
import sys
from pathlib import Path

# Hard ceiling for any single source file or header under src/core/.
MAX_CORE_FILE_LINES = 740

# layer -> layers it may include (itself is always allowed).
ALLOWED = {
    "common": set(),
    "obs": {"common"},
    "net": {"common", "obs"},
    "storage": {"common", "obs"},
    "consistency": {"common", "obs", "net", "storage"},
    # The location subsystem (resolver / region directory / hints / address
    # map) sits under core: it sees protocols (region descriptors carry a
    # ProtocolId) but never the Node — the Resolver::Host bridge keeps that
    # edge out.
    "location": {"common", "obs", "net", "storage", "consistency"},
    "core": {"common", "obs", "net", "storage", "consistency", "location"},
    # The application layers sit on top of core but must stay independent
    # of each other.
    "kfs": {"common", "obs", "net", "storage", "consistency", "location",
            "core"},
    "obj": {"common", "obs", "net", "storage", "consistency", "location",
            "core"},
}

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"/]+)/[^"]+"')


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    violations = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        layer = path.relative_to(src).parts[0]
        if layer not in ALLOWED:
            violations.append(f"{path}: unknown layer '{layer}'")
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            if target == layer or target in ALLOWED[layer]:
                continue
            rel = path.relative_to(src.parent)
            violations.append(
                f"{rel}:{lineno}: layer '{layer}' may not include "
                f"'{target}/' ({line.strip()})"
            )
    core = src / "core"
    for path in sorted([*core.glob("*.cc"), *core.glob("*.h")]):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        if lines > MAX_CORE_FILE_LINES:
            violations.append(
                f"{path.relative_to(src.parent)}: {lines} lines exceeds the "
                f"{MAX_CORE_FILE_LINES}-line src/core file cap — split a "
                f"subsystem into its own file"
            )
    if violations:
        print("include-DAG violations:")
        for v in violations:
            print(f"  {v}")
        return 1
    print(
        f"layering OK ({len(ALLOWED)} layers, no back-edges; "
        f"src/core files within {MAX_CORE_FILE_LINES} lines)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
