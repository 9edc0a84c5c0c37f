"""Record each check-corpus unit's findings count into ``golden.json``.

Usage: ``python3 perfbench/record.py`` from the repository root.  Runs
``repro check --format sarif`` on every unit of ``check-k0`` and
``check-k1`` and refuses to record a corpus in which any output fails
``validate_sarif`` or misses a seeded bug marker.  Re-record only when a
change to the analysis is meant to change its findings, and say so.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402
from repro import cli  # noqa: E402


def main() -> int:
    golden = {}
    for workload in ("check-k0", "check-k1"):
        counts = {}
        with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as workdir:
            for inp in corpus.write_inputs(workload, workdir):
                with open(os.devnull, "w", encoding="utf-8") as err:
                    with contextlib.redirect_stderr(err):
                        cli.main(inp.argv)
                count, missed = oracle.check_sarif(inp.path, inp.output)
                if missed:
                    print(f"{workload}/{inp.name}: missed {missed}", file=sys.stderr)
                    return 1
                counts[inp.name] = count
        golden[workload] = counts
        print(f"{workload}: {len(counts)} units, {sum(counts.values())} findings")
    with open(oracle.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
