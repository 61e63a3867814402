"""Command-line front end for convergence studies.

Example:

    wgmixed --domain disk --scheme modified --degree 2 \
            --levels 16,32,64,128 --split-rule modified --out disk_mod.csv

Exit codes: 0 on success, 1 on solver failure or exhausted memory, 2 on bad
arguments (an output path whose directory is missing or not writable among
them, caught before any level runs).
"""

from __future__ import annotations

import argparse
import os
import sys

from .convergence import DOMAINS, SCHEMES, StudyConfig, run_convergence_study
from .mesh import MeshError
from .solver import SingularSystemError, SolverFailure

DEFAULT_LEVELS = {
    "square": (4, 8, 16, 32),
    "disk": (16, 32, 64, 128),
    "ring": (16, 32, 64, 128),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgmixed",
        description="Weak Galerkin mixed-FEM convergence studies on square/disk/ring domains.",
    )
    parser.add_argument("--domain", choices=DOMAINS, required=True)
    parser.add_argument("--scheme", choices=SCHEMES, default="original")
    parser.add_argument("--degree", type=int, default=1, metavar="J",
                        help="polynomial degree j of the P_j-P_j-P_{j-1} scheme")
    parser.add_argument("--levels", type=str, default=None, metavar="N1,N2,...",
                        help="boundary resolutions per level (default per domain)")
    parser.add_argument("--split-rule", dest="split_rule", default="none",
                        metavar="{none|original|modified|fixed:<k>}",
                        help="boundary-edge subdivision law (disk/ring only)")
    parser.add_argument("--rho", type=float, default=1.0,
                        help="stabilization parameter (default 1)")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="CSV output path, '-' for stdout (default)")
    parser.add_argument("--mesh-out", dest="mesh_out", default=None, metavar="BASE",
                        help="write each level's mesh to BASE.n<N>.json")
    parser.add_argument("--quadrature-order", dest="quadrature_order", type=int,
                        default=None,
                        help="override the exactness of the assembly's edge rules "
                             "(default 2j+2; the cell rules are fixed)")
    return parser


def _parse_levels(text: str) -> tuple:
    try:
        levels = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"bad --levels value '{text}'") from None
    if not levels:
        raise ValueError("--levels is empty")
    return levels


def _mesh_path(base: str, n: int) -> str:
    return f"{base}.n{n}.json"


def _check_writable(path: str, flag: str) -> None:
    """Reject an output path whose directory is missing or not writable, or that is a directory."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValueError(f"{flag} directory '{folder}' does not exist")
    if not os.access(folder, os.W_OK):
        raise ValueError(f"{flag} directory '{folder}' is not writable")
    if os.path.isdir(path):
        raise ValueError(f"{flag} path '{path}' is a directory")


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)

    try:
        levels = (DEFAULT_LEVELS[args.domain] if args.levels is None
                  else _parse_levels(args.levels))
        config = StudyConfig(
            domain=args.domain,
            scheme=args.scheme,
            degree=args.degree,
            levels=levels,
            split_rule=args.split_rule,
            rho=args.rho,
            quadrature_order=args.quadrature_order,
        )
        if args.out != "-":
            _check_writable(args.out, "--out")
        if args.mesh_out:
            _check_writable(_mesh_path(args.mesh_out, levels[0]), "--mesh-out")
        table = run_convergence_study(config)
    except (SolverFailure, SingularSystemError) as exc:
        print(f"wgmixed: solver failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"wgmixed: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 1
    except (ValueError, MeshError) as exc:
        print(f"wgmixed: {exc}", file=sys.stderr)
        return 2

    if args.out == "-":
        sys.stdout.write(table.to_csv())
    else:
        table.write_csv(args.out)
        print(f"wrote {args.out}: slope_u={table.slope_u:.3f} slope_p={table.slope_p:.3f}")

    if args.mesh_out:
        from .convergence import generate_domain_mesh
        from .mesh import write_mesh
        for row in table.rows:
            mesh = generate_domain_mesh(args.domain, row.n, row.split)
            path = _mesh_path(args.mesh_out, row.n)
            write_mesh(mesh, path)
            print(f"wrote {path}")
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
