"""Write perfbench/pins.json from the package under src/: for each
workload and pinned seed, the hash of every input's output and the
tallies over the pass.

    python3 perfbench/pin.py

Run it from the root of a checkout, and only in a change that means to
alter outputs: the benchmark counts every item whose output differs
from its pin as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

#: The default seed 0 and the next nine, so that runs on small seeds
#: compare every output with the package's output at the pinning commit.
SEEDS = tuple(range(10))


def main() -> int:
    pins: dict = {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in SEEDS:
            digests, kept = [], []
            for inp in wl.make_inputs(seed, wl.count):
                digest, failed, part = wl.outcome(wl.run_item(inp))
                if failed:
                    print(f"error: {name} seed {seed} fails", file=sys.stderr)
                    return 1
                digests.append(digest)
                kept.append(part)
            pins.setdefault(name, {})[str(seed)] = {
                "items": digests,
                "summary": wl.summary(kept),
            }
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
