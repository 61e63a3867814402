#!/usr/bin/env python3
"""Time one level of each bench case and write bench/BENCH_<label>.json.

Each case runs one refinement level through `run_level` in a fresh
interpreter, so the peak resident memory it reports (`ru_maxrss`) is that
level's own.  A record runs every case `RUNS` times, the cases taking turns,
so that a slow spell of the machine falls on all of them.  With `--parent
DIR` one invocation makes two records, of `DIR/src` (`BENCH_parent-<label>`)
and of this checkout's `src` (`BENCH_<label>`), each run's interpreter
given its side's `PYTHONPATH`: every round runs each case once on either
side, back to back, and the side that runs first alternates by round, so a
drift of the machine falls on both records.  The record of a case holds the
medians over its runs of the level's stage seconds (`stages`, from
`StudyRow.stages`) and of its level seconds (`level_s`), with their first
and third quartiles beside them (`quartiles`, per stage and `level`);
the medians of the peak memory and of the peak memory at the end of each
stage (`stage_rss_mb`); and, from its last run, its unknowns, residual and
solver diagnostics and the git revision of the wgmixed checkout that was
imported.  The stage peaks are read from outside the package: a trace
function sees each return of the `lap(stage)` closure by which `run_level`
ends a stage.

    python scripts/bench.py --label after --parent <other checkout>
    PYTHONPATH=src python scripts/bench.py --label after
    PYTHONPATH=src python scripts/bench.py --case ring-original-j1-n384

    python scripts/bench.py --compare bench/BENCH_before.json bench/BENCH_after.json

`--case` runs one case once in this process and prints its record.  A
checkout whose `StudyRow` has no `diagnostics` gives an empty `diagnostics`
record.  `--compare` reads two records and prints, for each case in both,
every stage's median seconds before and after and their ratio (an older
record's `rhs` stage counted into its `project`), with `~` after a ratio
whose quartile ranges in the two records overlap, a change within the
run-to-run spread (records of one run per case, with no quartiles, are never
marked); then the median peak memory at the end of each stage (rows
`rss@<stage>`, in MB; `-` where a record has none), then the solver
diagnostics `n_condensed`, `condensed_nnz` (the factored matrix's nnz),
`lu_fill` and `residual_unrefined` before and after; it writes nothing.
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
RUNS = 5   # runs of each case per record

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


def summarize(runs: list) -> dict:
    """One case's record from the records of its runs: medians and quartiles of the
    seconds, medians of the peak memories, everything else from the last run."""
    seconds = {stage: [r["stages"][stage] for r in runs] for stage in runs[-1]["stages"]}
    seconds["level"] = [r["level_s"] for r in runs]
    q1, median, q3 = numpy.percentile(list(seconds.values()), [25, 50, 75], axis=1).tolist()
    stages = dict(zip(seconds, median))
    return dict(runs[-1], runs=len(runs), level_s=stages.pop("level"), stages=stages,
                quartiles={stage: [a, b] for stage, a, b in zip(seconds, q1, q3)},
                peak_rss_mb=float(numpy.median([r["peak_rss_mb"] for r in runs])),
                stage_rss_mb={stage: float(numpy.median([r["stage_rss_mb"][stage] for r in runs]))
                              for stage in runs[-1]["stage_rss_mb"]})


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


def overlap(before, after) -> bool:
    """Whether two quartile ranges [q1, q3] overlap; False where a record has none."""
    return before is not None and after is not None and \
        before[0] <= after[1] and after[0] <= before[1]


def compare(before_path, after_path) -> None:
    """Print each case's median stage seconds in two bench records, with after/before
    ratios marked `~` where the quartile ranges overlap, then its peak memory at the
    end of each stage and its solver diagnostics, before and after."""
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
            spread = " ~" if overlap(prev.get("quartiles", {}).get(stage),
                                     record.get("quartiles", {}).get(stage)) else ""
            print(f"{record['case']:30s} {stage:10s} {t0:10.4f} {t1:10.4f} {ratio}{spread}")
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
    parser.add_argument("--parent", metavar="DIR",
                        help="also record DIR/src, alternating with this checkout's src")
    parser.add_argument("--case", choices=list(CASES))
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.case:
        print(json.dumps(run_case(args.case)))
        return 0

    sides = {args.label: None}   # label -> the environment of its runs; None: this process's
    if args.parent:
        sources = ((f"parent-{args.label}", Path(args.parent).resolve() / "src"),
                   (args.label, ROOT / "src"))
        sides = {label: dict(os.environ, PYTHONPATH=str(src)) for label, src in sources}
    runs = {label: {name: [] for name in CASES} for label in sides}
    for k in range(RUNS):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for name in CASES:
            for label in order:
                proc = subprocess.run([sys.executable, __file__, "--case", name],
                                      stdout=subprocess.PIPE, text=True, check=True,
                                      env=sides[label])
                record = json.loads(proc.stdout.strip().splitlines()[-1])
                print(f"{k + 1}/{RUNS} {label} {name:30s} dofs={record['dofs']:>8d} "
                      f"level={record['level_s']:7.2f} s "
                      f"solve={record['stages']['solve']:7.2f} s "
                      f"rss={record['peak_rss_mb']:7.1f} MB")
                runs[label][name].append(record)
    for label, cases in runs.items():
        out = ROOT / "bench" / f"BENCH_{label}.json"
        out.parent.mkdir(exist_ok=True)
        bench = {"label": label, "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__,
                 "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
                 "cases": [summarize(case_runs) for case_runs in cases.values()]}
        out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
        print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
