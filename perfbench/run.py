"""Benchmark of the flagsub package: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite-full --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from
``src/`` and nowhere else.  Workloads, metric names and units are read
from ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics.  Set-up (importing
flagsub, generating one pass of inputs from the seed, one untimed
warm-up item) is repeated SETUP_REPEATS times and its median reported.
Then one client runs items back to back in a closed loop on one thread
until their summed time reaches ``--seconds``; every pass over the
inputs gets freshly generated objects, so no item sees another item's
cached state.  Times are scaled to a nominal machine speed measured by
a reference loop (see ``reference``).

``--trace 1`` measures the per-layer metrics on one fixed pass of the
seed's inputs, so that every count is exact and repeatable for a seed.
It generates the inputs again through benchmark code, then runs each
input's item untraced and replays it through benchmark code that puts
a span around each call into the package.

Both modes check every output: no exception, no theorem-tier failure,
the same output as the first pass on later passes, the same output as
the pins in ``perfbench/pins.json`` where the seed is pinned, and the
workload's cross-check.  The traced run also checks that the replay
gives the same outputs as the package.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (and, when traced, its
spans) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5

#: Seed of the warm-up item's input.  It is the same for every run, so
#: that set-up does the same warm-up work whatever the workload seed.
WARM_UP_SEED = 1002

#: The reference loop: pure-Python integer arithmetic that runs before
#: every timed item and around every set-up, to measure how fast the
#: machine is at that moment.
REF_LOOPS = 20_000
#: The reference loop's time at the usual speed of the machine the
#: baseline comes from (2-vCPU Xeon at 2.1 GHz, Python 3.11).  Reported
#: times are scaled to this speed.
REF_NOMINAL_S = 0.00125
#: Reference runs on each side of an item that judge the machine's speed
#: for that item.
REF_WINDOW = 5


def reference() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i & 7
    return perf_counter() - t0


def at_nominal_speed(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by REF_NOMINAL_S over the median reference time
    in the window around it."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1]
        out.append(t * REF_NOMINAL_S / statistics.median(near))
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(name: str, seed: int):
    """Import flagsub afresh, generate one pass of inputs and run one
    warm-up item.  Returns the seconds taken, the workloads module and
    the workload's inputs."""
    for mod in list(sys.modules):
        if mod in ("flagsub", "workloads") or mod.startswith("flagsub."):
            del sys.modules[mod]
    t0 = perf_counter()
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(seed, wl.count)
    wl.run_item(wl.make_inputs(WARM_UP_SEED, 1)[0])
    return perf_counter() - t0, workloads, inputs


class Gate:
    """Checks each item's output and counts failures."""

    def __init__(self, wl, seed: int, pins: dict):
        self.wl = wl
        pinned = pins.get(wl.name, {}).get(str(seed))
        self.pinned = pinned if pinned and len(pinned["items"]) == wl.count else None
        # what the workload keeps of each input's output, and its hash,
        # from the first time the input ran
        self.first: list = [None] * wl.count
        self.digests: list[str | None] = [None] * wl.count
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, k: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"item {k}: {why}")

    def check(self, k: int, out) -> None:
        """Record the output of the item on input ``k``."""
        self.attempted += 1
        digest, bad, kept = self.wl.outcome(out)
        if self.digests[k] is None:
            self.first[k], self.digests[k] = kept, digest
        if bad:
            self.fail(k, "theorem-tier failure, or an output the inputs rule out")
        elif self.pinned and digest != self.pinned["items"][k]:
            self.fail(k, "output differs from the pinned output")
        elif digest != self.digests[k]:
            self.fail(k, "output differs from the same input's earlier output")

    def error(self, k: int, exc: Exception) -> None:
        self.attempted += 1
        self.fail(k, f"{type(exc).__name__}: {exc}")

    def pass_checks(self, seed: int) -> bool:
        """Tallies against the pins, and the workload's cross-check, over
        the first pass or as much of it as ran."""
        done = list(itertools.takewhile(lambda o: o is not None, self.first))
        ok = True
        if self.pinned and len(done) == self.wl.count:
            tallies = json.loads(json.dumps(self.wl.summary(done)))
            if tallies != self.pinned["summary"]:
                self.problems.append("pass tallies differ from the pinned tallies")
                ok = False
        if self.wl.cross_check and done:
            path = OUT / f"cross-check-{self.wl.name}-s{seed}.json"
            if not self.wl.cross_check(seed, done, path):
                self.problems.append("command-line cross-check disagrees")
                ok = False
        return ok


def run_one(wl, inp, k: int, gate: Gate) -> float:
    """Time one item, then check its output; returns the item's seconds."""
    t0 = perf_counter()
    try:
        out = wl.run_item(inp)
    except Exception as exc:  # a raising item is a failed item; the run goes on
        dt = perf_counter() - t0
        gate.error(k, exc)
        return dt
    dt = perf_counter() - t0
    gate.check(k, out)
    return dt


def measure(name: str, seed: int, seconds: float, pins: dict):
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        before = [reference() for _ in range(REF_WINDOW)]
        dt, workloads, inputs = set_up(name, seed)
        after = [reference() for _ in range(REF_WINDOW)]
        setups_raw.append(dt)
        setups.append(dt * REF_NOMINAL_S / statistics.median(before + after))
    wl = workloads.WORKLOADS[name]
    gate = Gate(wl, seed, pins)
    # Passes over the inputs run until the summed item time reaches
    # `seconds`, and at least one pass completes.  The reference loop
    # runs before every item: a shared machine's speed drifts by up to
    # half in spells of seconds to minutes, and scaling each item's time
    # by the speed measured around it removes most of that drift.
    times: list[float] = []
    refs: list[float] = []
    busy = 0.0
    while busy < seconds or len(times) < wl.count:
        k = len(times) % wl.count
        if times and k == 0:
            inputs = wl.make_inputs(seed, wl.count)
        refs.append(reference())
        dt = run_one(wl, inputs[k], k, gate)
        times.append(dt)
        busy += dt
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = gate.pass_checks(seed)

    def summary(ts: list[float]) -> dict:
        """Metrics over the mean time of each input's items."""
        per_input: list[list[float]] = [[] for _ in range(wl.count)]
        for i, t in enumerate(ts):
            per_input[i % wl.count].append(t)
        ms = sorted(1000 * statistics.fmean(v) for v in per_input)
        return {
            "items_per_s": 1000 * wl.count / sum(ms),
            "item_ms.p50": statistics.median(ms),
            "item_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        }

    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_mb}
    metrics.update(summary(at_nominal_speed(times, refs)))
    info = {
        "setup_s_each": setups,
        "items": len(times),
        "passes": len(times) / wl.count,
        "inputs_per_pass": wl.count,
        "ref_s_median": statistics.median(refs),
        "wall_clock": {"setup_s": statistics.median(setups_raw), **summary(times)},
        "setup_wall_s_each": setups_raw,
        "item_s_each": times,
        "ref_s_each": refs,
    }
    return gate, ok, metrics, info, None


def measure_traced(name: str, seed: int, pins: dict):
    from spans import Tracer, aggregate

    _, workloads, inputs = set_up(name, seed)
    wl = workloads.WORKLOADS[name]
    gate = Gate(wl, seed, pins)
    tr = Tracer()
    tr.item = "setup"
    with tr.span("setup"):
        replayed = wl.replay_inputs(tr, seed, wl.count)
    ok = replayed == inputs
    if not ok:
        gate.problems.append("replayed generators differ from the package's")
    # Each input runs untraced and then replayed, one after the other, so
    # that a slow spell of the machine lands on both sides of the overhead.
    untraced = 0.0
    for k, (inp, again) in enumerate(zip(inputs, replayed)):
        untraced += run_one(wl, inp, k, gate)
        tr.item = k
        try:
            with tr.span("item"):
                out = wl.replay_item(tr, again)
        except Exception as exc:  # a raising item is a failed item; the run goes on
            gate.error(k, exc)
            continue
        if gate.digests[k] is None:
            gate.fail(k, "replayed, but the untraced item failed")
        else:
            gate.check(k, out)
    ok = gate.pass_checks(seed) and ok

    layers, wall, leaf = aggregate(tr.spans)
    item_wall = layers["item"].busy_s
    metrics = {
        "trace.coverage": leaf / wall,
        "trace.overhead_frac": item_wall / untraced - 1,
    }
    metrics.update(tr.counts)
    for lname, layer in layers.items():
        metrics[f"{lname}.calls"] = layer.calls
        metrics[f"{lname}.busy_s"] = layer.busy_s
        metrics[f"{lname}.self_s"] = layer.self_s
        metrics[f"{lname}.share"] = layer.busy_s / wall
        metrics[f"{lname}.faces_in"] = layer.faces_in
    info = {
        "items": len(replayed),
        "traced_wall_s": wall,
        "traced_item_wall_s": item_wall,
        "untraced_item_wall_s": untraced,
        "spans": len(tr.spans),
    }
    table = sorted(layers.items(), key=lambda kv: -kv[1].self_s)
    return gate, ok, metrics, info, (tr, table, wall)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flagsub" / "__init__.py").is_file():
        print(f"error: no flagsub package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }

    if args.trace:
        gate, ok, computed, info, traced = measure_traced(
            args.workload, args.seed, pins
        )
        wanted = spec["per_layer"]
    else:
        gate, ok, computed, info, traced = measure(
            args.workload, args.seed, args.seconds, pins
        )
        wanted = spec["end_to_end"]
    import flagsub

    if Path(flagsub.__file__).resolve().parent != SRC / "flagsub":
        print(f"error: flagsub was imported from {flagsub.__file__}", file=sys.stderr)
        return 2
    record.update(info)
    record["loadavg_after"] = os.getloadavg()
    record["attempted"] = gate.attempted
    record["failed"] = gate.failed
    record["problems"] = gate.problems

    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    dump = {"record": record, "computed": computed}
    if traced:
        tr, table, wall = traced
        dump["spans"] = tr.to_json()
        print(
            f"{'layer':52} {'calls':>7} {'busy_s':>9} {'self_s':>9}"
            f" {'share':>6} {'faces_in':>9}"
        )
        for lname, layer in table:
            print(
                f"{lname:52} {layer.calls:7d} {layer.busy_s:9.4f} {layer.self_s:9.4f}"
                f" {layer.busy_s / wall:6.3f} {layer.faces_in:9d}"
            )
    (OUT / f"{stem}.json").write_text(json.dumps(dump))
    brief = {k: v for k, v in record.items() if not k.endswith("_each")}
    print("record: " + json.dumps(brief))
    for problem in gate.problems:
        print("problem: " + problem)

    metrics = {
        m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": ok and gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
