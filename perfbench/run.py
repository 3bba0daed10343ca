"""Layered swizzlesim benchmark: end-to-end host time, or per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload transpose_pair --seed 1 --seconds 25 --trace 0

Workloads are ``transpose_pair``, ``softmax_search`` and ``stencil_sweep``
(see README.md). A run repeats whole rounds of its workload, starting
another only while it is expected to end within ``--seconds``, then checks
every output outside the timed rounds and prints one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are wall_s, mtouches_per_s, setup_s and peak_rss_mb; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics, writing the spans under ``.perfbench_out/``.

Times are reference seconds (see speed.py): host seconds rescaled by an
in-process speed probe, because this class of shared host drifts between
speeds up to 2x apart. ``--seed`` draws only the random bijection the oracle
checks; the timed inputs are the same for every seed. ``--selftest`` runs
the oracle comparison on the reduced stencil instances, including the
check that a report with one hit moved to a miss is rejected, and exits.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: before numpy and swizzlesim load

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread: a run must not use more than one core

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("transpose_pair", "softmax_search", "stencil_sweep")
SETUP_PROBES = 4  # extra fresh processes that only set up; setup_s is the median
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_probe(workload: str) -> float:
    """setup_s of a fresh process that sets up the workload and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe exited {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def timed_round(workload, inputs, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        result = workload.run(inputs)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return start, end, result


def measure(workload, inputs, seconds: float, tracer=None):
    """Rounds of the workload for about ``seconds``: [(traced, start, end, result)].

    A round starts only while it is expected to end within ``seconds``;
    the first always runs. With a tracer, each step is an untraced round
    followed by a traced one. Every round after the first gets fresh
    inputs, built untimed.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        for traced in ((False, True) if tracer is not None else (False,)):
            if rounds:
                inputs = workload.prepare()
            rounds.append((traced, *timed_round(workload, inputs, tracer if traced else None)))
        now = time.perf_counter()
        if (now - start) + (now - step) > seconds:
            return rounds


def fingerprint(result):
    from swizzlesim import report_to_dict

    return [(label, report_to_dict(r)) for label, r in result.reports()]


def check_rounds(workload, rounds, seed: int) -> None:
    """Every output check; raises checks.CheckFailed on the first failure."""
    import checks
    from swizzlesim import generate_trace, launch_grid
    from workloads import ARCH

    specs = workload.specs()
    censuses = {
        label: checks.line_census(generate_trace(spec), ARCH.l2_line_bytes)
        for label, spec in specs.items()
    }
    first = fingerprint(rounds[0][-1])
    for *_, result in rounds:
        for label, report in result.reports():
            checks.check_report(report, censuses[label])
        for _, baseline, swizzled in result.pairs:
            checks.check_gain(baseline, swizzled)
        if result.search is not None:
            search, entries = result.search
            checks.check_search(search, entries, launch_grid(specs["softmax"]), ARCH)
        checks.require(fingerprint(result) == first,
                       "a round's reports differ from the first round's")
    checks.check_against_oracle(workload.name, seed)


def workgroups_per_round(workload) -> int:
    from swizzlesim import generate_trace

    # softmax's trace is simulated many times per round but generated once
    return sum(
        sum(len(members) for members in generate_trace(spec).wave_pids)
        for spec in workload.specs().values()
    )


def history_counts(result) -> dict:
    counts = {"candidates": 0, "invalid": 0, "duplicates": 0}
    if result.search is not None:
        seen = set()
        for entry in result.search[1]:
            counts["candidates"] += 1
            counts["invalid"] += entry.report is None
            if entry.pattern is not None:
                counts["duplicates"] += entry.pattern["expr"] in seen
                seen.add(entry.pattern["expr"])
    return counts


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    args = parse_args(argv)
    if not (SRC / "swizzlesim" / "__init__.py").is_file():
        print(f"error: no swizzlesim sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    import checks
    import tracing
    from workloads import WORKLOADS

    if args.selftest:
        probe.stop()
        n = checks.check_against_oracle("stencil_sweep", args.seed)
        print(f"self-test passed: {n} reduced reports match the oracle, "
              "and a report with one hit moved to a miss is rejected")
        return 0

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare()
    setup_s = probe.reference_seconds(_T0, time.perf_counter())
    if args.setup_probe:
        probe.stop()
        print(repr(setup_s))
        return 0

    # spans are host time: the probe would land inside whichever span is open
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        probe.stop()
    rounds = measure(workload, inputs, args.seconds, tracer)
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(r.attempted for *_, r in rounds)
    failed = sum(r.failed for *_, r in rounds)
    correct = True
    try:
        check_rounds(workload, rounds, args.seed)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if tracer is not None:
        counts_match = all(
            fingerprint(rounds[i][-1]) == fingerprint(rounds[i + 1][-1])
            for i in range(0, len(rounds), 2)
        )
        if not counts_match:
            print("check failed: traced counts differ from untraced", file=sys.stderr)
            correct = False
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json")
        metrics = tracing.per_layer_metrics(
            tracer,
            traced_walls=[end - start for traced, start, end, _ in rounds if traced],
            untraced_walls=[end - start for traced, start, end, _ in rounds if not traced],
            workgroups=workgroups_per_round(workload),
            history=history_counts(rounds[0][-1]),
        )
    else:
        walls = [probe.reference_seconds(start, end) for _, start, end, _ in rounds]
        host = [end - start for _, start, end, _ in rounds]
        print(f"rounds: host s {host}, reference s {walls}, "
              f"probe median ms {[1e3 * probe.median_probe_s(s, e) for _, s, e, _ in rounds]}",
              file=sys.stderr)
        touches = [sum(r.accesses for _, r in res.reports()) for *_, res in rounds]
        setups = [setup_s] + [setup_probe(workload.name) for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "mtouches_per_s": {
                "value": median(t / w / 1e6 for t, w in zip(touches, walls)), "unit": "M/s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
