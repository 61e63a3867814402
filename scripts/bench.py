#!/usr/bin/env python3
"""Time one level of each bench case and write bench/BENCH_<label>.json.

Each case runs one refinement level through `run_level` in a fresh
interpreter, so the peak resident memory it reports (`ru_maxrss`) is that
level's own.  The record of a case holds the level's stage seconds
(`StudyRow.stages`), its unknowns, residual and solver diagnostics, the peak
memory, the peak memory at the end of each stage (`stage_rss_mb`) and the
git revision of the wgmixed checkout that was imported.  The stage peaks
are read from outside the package: a trace function sees each return of the
`lap(stage)` closure by which `run_level` ends a stage.

    PYTHONPATH=src python scripts/bench.py --label after
    PYTHONPATH=<other checkout>/src python scripts/bench.py --label before
    PYTHONPATH=src python scripts/bench.py --case ring-original-j1-n384

    python scripts/bench.py --compare bench/BENCH_before.json bench/BENCH_after.json

`--case` runs one case in this process and prints its record.  A checkout
whose `StudyRow` has no `diagnostics` gives an empty `diagnostics` record.
`--compare` reads two records and prints, for each case in both, every
stage's seconds before and after and their ratio (an older record's `rhs`
stage counted into its `project`), then the peak memory at
the end of each stage (rows `rss@<stage>`, in MB; `-` where a record has
none), then the solver diagnostics `n_condensed`, `condensed_nnz` (the
factored matrix's nnz), `lu_fill` and `residual_unrefined` before and after;
it writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent

# name -> (domain, scheme, degree, n, split rule)
CASES = {
    "disk-original-j1-n256": ("disk", "original", 1, 256, "none"),
    "disk-modified-j2-n128-split": ("disk", "modified", 2, 128, "modified"),
    "ring-original-j1-n384": ("ring", "original", 1, 384, "none"),
    "square-original-j2-n32": ("square", "original", 2, 32, "none"),
    "disk-modified-j4-n72-split": ("disk", "modified", 4, 72, "modified"),
    "disk-original-j2-n64-split": ("disk", "original", 2, 64, "original"),
    "disk-original-j3-n128-split": ("disk", "original", 3, 128, "original"),
}


def git_revision(path: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(path), "describe", "--always", "--dirty"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage_tracer(run_level, peaks: dict):
    """A `sys.settrace` function that puts the peak memory into `peaks[stage]` as
    each `lap(stage)` call of `run_level` returns; None if `run_level` has no `lap`."""
    lap = next((c for c in run_level.__code__.co_consts
                if getattr(c, "co_name", None) == "lap"), None)
    if lap is None:
        return None

    def on_return(frame, event, arg):
        if event == "return":
            peaks[frame.f_locals["stage"]] = peak_rss_mb()
        return on_return

    return lambda frame, event, arg: on_return if frame.f_code is lap else None


def run_case(name: str) -> dict:
    import wgmixed
    from wgmixed.convergence import StudyConfig, run_level

    domain, scheme, degree, n, split_rule = CASES[name]
    config = StudyConfig(domain, scheme, degree, (n,), split_rule=split_rule)
    peaks, previous = {}, sys.gettrace()
    sys.settrace(stage_tracer(run_level, peaks))
    t0 = time.perf_counter()
    try:
        row, _ = run_level(config, n)
    finally:
        wall = time.perf_counter() - t0
        sys.settrace(previous)
    return {
        "case": name,
        "domain": domain, "scheme": scheme, "degree": degree, "n": n,
        "split_rule": split_rule, "split": row.split,
        "dofs": row.dofs,
        "residual": row.residual,
        "level_s": wall,
        "stages": row.stages,
        "diagnostics": getattr(row, "diagnostics", {}),
        "peak_rss_mb": peak_rss_mb(),
        "stage_rss_mb": peaks,
        "revision": git_revision(Path(wgmixed.__file__).resolve().parent),
    }


# the solver diagnostics `--compare` shows side by side; n_condensed and
# condensed_nnz are the size and nnz of the factored matrix: the multiplier
# system H, or in records before it the bordered trace-pressure system
# (condensed_nnz is absent from older records still)
SOLVER_DIAGNOSTICS = ("n_condensed", "condensed_nnz", "lu_fill", "residual_unrefined")


def _diagnostic(value) -> str:
    if value is None:
        return "-"
    return f"{value:d}" if isinstance(value, int) else f"{value:.3g}"


def stage_seconds(record) -> dict:
    """The record's stage seconds and its level time (`level`).

    Records from before the right-hand side and the exact projections shared
    one pass time the right-hand side as a stage of its own, `rhs`, which
    ran just before `project`; it is added to `project` here.
    """
    stages = dict(record["stages"], level=record["level_s"])
    if "rhs" in stages:
        stages["project"] = stages.pop("rhs") + stages.get("project", 0.0)
    return stages


def compare(before_path, after_path) -> None:
    """Print each case's stage seconds in two bench records, with after/before ratios,
    then its peak memory at the end of each stage and its solver diagnostics,
    before and after."""
    before, after = (json.loads(Path(p).read_text(encoding="utf-8"))
                     for p in (before_path, after_path))
    old = {record["case"]: record for record in before["cases"]}
    print(f"{'case':30s} {'stage':10s} {'before s':>10s} {'after s':>10s} {'ratio':>7s}")
    for record in after["cases"]:
        prev = old.get(record["case"])
        if prev is None:
            print(f"{record['case']:30s} (not in {before_path})")
            continue
        seconds_before, seconds_after = stage_seconds(prev), stage_seconds(record)
        for stage, t1 in seconds_after.items():
            if stage not in seconds_before:
                continue
            t0 = seconds_before[stage]
            ratio = f"{t1 / t0:7.3f}" if t0 > 0 else "    inf"
            print(f"{record['case']:30s} {stage:10s} {t0:10.4f} {t1:10.4f} {ratio}")
        rss_before, rss_after = (r.get("stage_rss_mb", {}) for r in (prev, record))
        for stage in record["stages"]:
            m0, m1 = (f"{m[stage]:.1f}" if stage in m else "-" for m in (rss_before, rss_after))
            print(f"{record['case']:30s} {'rss@' + stage:10s} {m0:>10s} {m1:>10s}")
        for key in SOLVER_DIAGNOSTICS:
            d0, d1 = (r.get("diagnostics", {}).get(key) for r in (prev, record))
            print(f"{record['case']:30s} {key:18s} {_diagnostic(d0):>10s} {_diagnostic(d1):>10s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="local")
    parser.add_argument("--case", choices=list(CASES))
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.case:
        print(json.dumps(run_case(args.case)))
        return 0

    records = []
    for name in CASES:
        proc = subprocess.run([sys.executable, __file__, "--case", name],
                              stdout=subprocess.PIPE, text=True, check=True)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:30s} dofs={record['dofs']:>8d} level={record['level_s']:7.2f} s "
              f"solve={record['stages']['solve']:7.2f} s rss={record['peak_rss_mb']:7.1f} MB")
        records.append(record)
    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    bench = {"label": args.label, "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
             "cases": records}
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
