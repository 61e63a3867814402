#!/usr/bin/env python3
"""Study benchmark: times wgmixed's convergence-study engine on three disk studies.

Each run repeats whole rounds of one workload's study (`run_convergence_study`
over all its levels, one level after another) for about `--seconds` seconds,
checks every table against the properties in `checks.py`, and prints one JSON
object as its last line of output.

    python3 studybench/run.py --workload disk-j1-original --seed 1 --seconds 30 --trace 0
    python3 studybench/run.py --workload all --seconds 30

`--trace 0` reports the end-to-end metrics: the median study wall time, the
median set-up time of fresh processes that import wgmixed, and the peak
resident memory of this process.  `--trace 1` runs the same rounds with the
spans of `layers.py` installed and reports each module's self time and
counts; it writes the first round's spans to `studybench/out/`.
`--workload all` runs every workload untraced and traced, each in a fresh
process, and prints every metric with its unit.  The inputs come from the
program's deterministic mesh generators: `--seed` is recorded, and no seed
enters them.  Run from anywhere; the program is imported from `src/` next
to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5

sys.path.insert(0, str(HERE))
from checks import WORKLOADS, check_table, mesh_unknowns  # noqa: E402

# spans whose self time is a per-layer metric, named "<span>_s"
LAYER_SPANS = (
    "mesh.generate", "mesh.validate",
    "quadrature.polygon_rule", "quadrature.polygon_centroid",
    "quadrature.polygon_area", "quadrature.edge_rule",
    "basis.cell_basis", "basis.project_cell", "basis.project_edge", "basis.cell_diameter",
    "assembly.system", "assembly.rhs", "assembly.vh_matrix",
    "solver.solve", "solver.factor",
    "convergence.level", "convergence.project_exact", "convergence.error_norms",
    "solutions.eval",
)


def metric(value, unit):
    return {"value": value, "unit": unit}


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing wgmixed, start to exit."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wgmixed"], env=program_env(),
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_program():
    if not (SRC / "wgmixed" / "__init__.py").is_file():
        sys.exit(f"studybench: no wgmixed source under {SRC}")
    sys.path.insert(0, str(SRC))
    import wgmixed
    if Path(wgmixed.__file__).resolve().parent != SRC / "wgmixed":
        sys.exit(f"studybench: wgmixed imported from {wgmixed.__file__}, not {SRC}")
    from wgmixed import convergence, mesh
    return convergence, mesh


def run_rounds(seconds: float, one_round) -> int:
    """Whole rounds until the next one would end past `seconds`; at least one."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return len(durations)


def study_round(convergence, config, tables, times, failures):
    """One timed call of the study; a raised error counts the round's levels as failed."""
    t0 = time.perf_counter()
    try:
        table = convergence.run_convergence_study(config)
    except Exception:  # noqa: BLE001 - the run goes on and counts the failure
        traceback.print_exc()
        failures.append(len(config.levels))
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    tables.append(table)
    times.append(dt)
    return dt


def check_tables(workload, mesh_mod, tables) -> list:
    if not tables:
        return []
    expected = [mesh_unknowns(mesh_mod.generate_disk_mesh(r.n, r.split), workload.degree)
                for r in tables[0].rows]
    problems = []
    for i, table in enumerate(tables):
        problems.extend(f"round {i + 1}: {p}" for p in check_table(workload, table, expected))
    return problems


def layer_metrics(rounds: list, study_times: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced rounds: median self times, first-round counts."""
    problems = []
    first = rounds[0]
    for i, r in enumerate(rounds[1:], start=2):
        if r["calls"] != first["calls"] or r["counts"] != first["counts"]:
            problems.append(f"round {i}: call counts differ from round 1")
    med = {span: statistics.median(r["self_s"].get(span, 0.0) for r in rounds)
           for span in LAYER_SPANS}
    traced = statistics.median(study_times)
    calls, counts = first["calls"], first["counts"]
    cells = counts["cells"]
    levels = calls["convergence.level"]
    out = {"trace.study_s": metric(traced, "s")}
    out.update({f"{span}_s": metric(med[span], "s") for span in LAYER_SPANS})
    out.update({
        "mesh.cells": metric(cells, "count"),
        "mesh.generate_per_level": metric(calls["mesh.generate"] / levels, "count"),
        "quadrature.polygon_rule_per_cell":
            metric(calls["quadrature.polygon_rule"] / cells, "count"),
        "basis.cell_basis_per_cell": metric(calls["basis.cell_basis"] / cells, "count"),
        "basis.project_cell_per_cell": metric(calls["basis.project_cell"] / cells, "count"),
        "assembly.matrix_nnz": metric(counts["matrix_nnz"], "count"),
        "solver.lu_fill": metric(counts["lu_fill"], "count"),
        "solver.share_pct":
            metric(100.0 * (med["solver.solve"] + med["solver.factor"]) / traced, "%"),
        "mesh.share_pct":
            metric(100.0 * (med["mesh.generate"] + med["mesh.validate"]) / traced, "%"),
    })
    return out, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    convergence, mesh_mod = import_program()
    setup_s = None if trace else measure_setup()
    # threads=1 overrides WG_THREADS: the levels run one after another
    config = convergence.StudyConfig("disk", workload.scheme, workload.degree, workload.levels,
                                     split_rule=workload.split_rule, threads=1)
    tables, times, failures = [], [], []
    OUT.mkdir(exist_ok=True)

    if trace:
        import layers
        tracer = layers.Tracer()
        rounds = []

        def one_round():
            tracer.reset(keep_spans=not rounds)
            n_tables = len(tables)
            dt = study_round(convergence, config, tables, times, failures)
            if len(tables) > n_tables:
                rounds.append({"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
                               "counts": dict(tracer.counts)})
            return dt

        patched = layers.install(tracer)
        try:
            n_rounds = run_rounds(seconds, one_round)
        finally:
            layers.uninstall(patched)
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
        metrics, problems = layer_metrics(rounds, times) if rounds else ({}, [])
    else:
        n_rounds = run_rounds(
            seconds, lambda: study_round(convergence, config, tables, times, failures))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {}
        if times:
            metrics["study_s"] = metric(statistics.median(times), "s")
        metrics["setup_s"] = metric(setup_s, "s")
        metrics["peak_rss_mb"] = metric(peak_mb, "MB")
        problems = []

    problems += check_tables(workload, mesh_mod, tables)
    for p in problems:
        print(f"studybench: {name}: {p}", file=sys.stderr)
    result = {
        "correct": not problems and not failures,
        "attempted": n_rounds * len(workload.levels),
        "failed": sum(failures),
        "metrics": metrics,
    }
    with open(OUT / f"result-{name}-trace{int(trace)}-seed{seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, workload=name, seed=seed, round_s=times), fh, indent=1)
    return result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}")
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"studybench: {name} --trace {trace} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"   trace={trace} correct={result['correct']} "
                  f"levels attempted={result['attempted']} failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"   {key:36s} {m['value']:>16.6g} {m['unit']}")
                merged["metrics"][f"{name}/{key}"] = m
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
