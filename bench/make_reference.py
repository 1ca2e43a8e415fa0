"""Regenerate reference_digests.json from the program as it stands.

    python3 bench/make_reference.py

Runs one cycle of every workload for seeds 0-9, unwrapped, and stores each
item's output digest. A later change to the program must reproduce
them: the timed runs count any item whose digest differs as failed.
Refuses to store a digest for an output that fails its own check.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCE, ROOT, call, evaluate, workdir

SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    table: dict[str, dict[str, dict[str, str]]] = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            with workdir() as tmp:
                digests = {}
                for item in workload.build(seed, tmp):
                    digest, problems = evaluate(item, call(item), None, None)
                    if problems:
                        print(f"error: {name} seed {seed} {item.key}: "
                              f"{'; '.join(problems)}", file=sys.stderr)
                        return 1
                    digests[item.key] = digest
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} items", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
