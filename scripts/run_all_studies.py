#!/usr/bin/env python3
"""Run the full set of convergence studies, write one CSV per study and check each claim.

Reproduces the rate experiments for both schemes on all three domains:
the plain scheme loses accuracy on curved boundaries (order 1/2 once the
geometric error dominates), the boundary-corrected scheme recovers order
min(j, 3/2) without boundary subdivision, and either boundary-subdivision
law restores the optimal order j.

`CLAIMS` is the one table of these claims; the acceptance suite reads it too.
Each study prints one line, and `<outdir>/claims.txt` holds the same lines:
the levels the study ran, the fitted slopes, the claimed rate and band of
the fitted `err_u_Vh` slope, the pairwise slopes, the split counts and the
verdict (PASS, FAIL, or - for the claim that has no band).  With `--quick`
the levels are all but the claim's finest, so a FAIL there is a verdict on
those levels, not on the claim.

Usage:
    python scripts/run_all_studies.py [--outdir results] [--quick]
"""

import argparse
import dataclasses
import pathlib
import sys
from typing import NamedTuple

from wgmixed.convergence import StudyConfig, run_convergence_study


class Claim(NamedTuple):
    """A study and the rate the paper claims for its fitted `err_u_Vh` slope."""

    name: str              # the stem of the study's CSV
    config: StudyConfig
    rate: float
    band: float | None     # half-width about `rate`; None: asserted by the two-term law
    splits: tuple | int | None = None  # the counts at each level, or the least at every level


CLAIMS = (
    # order j in the stabilized flux norm on a polygon-exact domain
    Claim("square_original_j1", StudyConfig("square", "original", 1, (4, 8, 16, 32)), 1.0, 0.2),
    Claim("square_original_j2", StudyConfig("square", "original", 2, (4, 8, 16, 32)), 2.0, 0.2),
    # the plain scheme on an unsplit curved boundary: h^(1/2)
    Claim("disk_original_j1", StudyConfig("disk", "original", 1, (32, 64, 128, 256)), 0.5, None),
    Claim("disk_original_j2", StudyConfig("disk", "original", 2, (16, 32, 64, 128)), 0.5, 0.2),
    # the boundary correction alone: order min(j, 3/2)
    Claim("disk_modified_j1", StudyConfig("disk", "modified", 1, (16, 32, 64, 128)), 1.0, 0.2),
    Claim("disk_modified_j2", StudyConfig("disk", "modified", 2, (16, 32, 64, 128)), 1.5, 0.25),
    # either subdivision law: the optimal order j
    Claim("disk_original_j2_split", StudyConfig("disk", "original", 2, (16, 32, 64, 128),
                                                split_rule="original"), 2.0, 0.25, (3, 7, 17, 46)),
    Claim("disk_modified_j2_split", StudyConfig("disk", "modified", 2, (16, 32, 64, 128),
                                                split_rule="modified"), 2.0, 0.25, 2),
    # the non-convex annulus, as the disk
    Claim("ring_original_j1", StudyConfig("ring", "original", 1, (48, 96, 192, 384)), 0.5, 0.2),
    Claim("ring_original_j2", StudyConfig("ring", "original", 2, (16, 32, 64, 128)), 0.5, 0.2),
    Claim("ring_modified_j1", StudyConfig("ring", "modified", 1, (16, 32, 64, 128)), 1.0, 0.2),
    # the same three rates at degrees 3 and 4
    Claim("disk_original_j3", StudyConfig("disk", "original", 3, (16, 32, 64, 128)), 0.5, 0.2),
    Claim("disk_original_j4", StudyConfig("disk", "original", 4, (16, 32, 64, 128)), 0.5, 0.2),
    Claim("disk_modified_j3", StudyConfig("disk", "modified", 3, (16, 32, 64, 128)), 1.5, 0.25),
    Claim("disk_modified_j4", StudyConfig("disk", "modified", 4, (16, 32, 64, 128)), 1.5, 0.25),
    Claim("disk_modified_j3_split", StudyConfig("disk", "modified", 3, (16, 32, 64, 128),
                                                split_rule="modified"), 3.0, 0.25, (2, 3, 5, 7)),
    Claim("disk_modified_j4_split", StudyConfig("disk", "modified", 4, (16, 32, 64, 128),
                                                split_rule="modified"), 4.0, 0.25, (3, 5, 11, 25)),
    Claim("ring_original_j3", StudyConfig("ring", "original", 3, (16, 32, 64, 128)), 0.5, 0.2),
    Claim("ring_modified_j3", StudyConfig("ring", "modified", 3, (16, 32, 64, 128)), 1.5, 0.25),
)

QUICK = tuple(claim._replace(config=dataclasses.replace(
    claim.config, levels=claim.config.levels[:-1])) for claim in CLAIMS)


def verdict(claim: Claim, table) -> str:
    """PASS when the table's fitted `err_u_Vh` slope is in the claim's band and
    its split counts hold the pins, FAIL when not, - when the claim has no band.

    Pinned counts are compared level by level over the table's levels, which
    are the claim's or, with `--quick`, their first ones.
    """
    if claim.band is None:
        return "-"
    splits = [row.split for row in table.rows]
    if isinstance(claim.splits, int):
        pinned = min(splits) >= claim.splits
    else:
        pinned = claim.splits is None or splits == list(claim.splits[:len(splits)])
    ok = pinned and abs(table.slope_u - claim.rate) <= claim.band
    return "PASS" if ok else "FAIL"


def claim_line(claim: Claim, table) -> str:
    """The study's line of `claims.txt`: the levels it was judged on first, its verdict last."""
    band = "-" if claim.band is None else f"{claim.band:g}"
    levels = ",".join(str(row.n) for row in table.rows)
    pairwise = ",".join(f"{s:.3f}" for s in table.pairwise_u)
    splits = ",".join(str(row.split) for row in table.rows)
    return (f"{claim.name:24s} levels={levels} "
            f"slope_u={table.slope_u:6.3f} slope_p={table.slope_p:6.3f} "
            f"rate={claim.rate:g} band={band} pairwise={pairwise} splits={splits} "
            f"-> {verdict(claim, table)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--quick", action="store_true",
                        help="drop the finest level of every study")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    for claim in (QUICK if args.quick else CLAIMS):
        table = run_convergence_study(claim.config)
        table.write_csv(outdir / f"{claim.name}.csv")
        lines.append(claim_line(claim, table))
        print(lines[-1])
    (outdir / "claims.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
