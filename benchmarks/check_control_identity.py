"""Bit-identity harness for the control-plane refactor.

Enumerates every simulation cell used by the paper-figure benches
(``bench_fig06``–``bench_fig10`` share the §5 grid) and the nine
ablation benches, runs them serially, and hashes each cell's full
:class:`~repro.bench.experiments.RunMetrics` (scalars bit-exact via
``float.hex``, footprint timelines via raw array bytes, probe extras
included). The default ARU stack must produce the *same hash for every
cell* before and after any refactor of the feedback-control plumbing.

Usage::

    PYTHONPATH=src python benchmarks/check_control_identity.py \
        --save baseline.json          # capture
    PYTHONPATH=src python benchmarks/check_control_identity.py \
        --check baseline.json         # verify (exit 1 on any drift)

The grid cells come from :func:`~repro.bench.grid_specs`, the ablation
cells from each bench module's ``CELLS``, so a cell is declared once.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

import bench_abl_backpressure
import bench_abl_dgc_ce
import bench_abl_filters
import bench_abl_gc
import bench_abl_gc_lag
import bench_abl_headroom
import bench_abl_load_adaptivity
import bench_abl_noise
import bench_abl_operators
from repro.bench import CellSpec, SweepRunner, grid_specs, metrics_fingerprint
from repro.bench.experiments import DEFAULT_SEEDS

#: The ablation benches whose cells are checked, in run order.
ABLATIONS = (bench_abl_operators, bench_abl_filters, bench_abl_noise,
             bench_abl_gc, bench_abl_gc_lag, bench_abl_dgc_ce,
             bench_abl_backpressure, bench_abl_headroom,
             bench_abl_load_adaptivity)


def all_cells() -> List[Tuple[str, CellSpec]]:
    """Every checked cell with its key: the §5 grid shared by
    bench_fig06–bench_fig10, then the ablations'."""
    cells = [(f"grid/{spec.config}/{spec.label}/s{spec.seed}", spec)
             for spec in grid_specs(seeds=DEFAULT_SEEDS, horizon=120.0)]
    for bench in ABLATIONS:
        cells.extend(bench.CELLS.items())
    return cells


def compute_hashes(workers: int = 1) -> Dict[str, str]:
    cells = all_cells()
    runner = SweepRunner(workers=workers)
    results = runner.run_metrics([spec for _key, spec in cells])
    return {key: metrics_fingerprint(result)
            for (key, _spec), result in zip(cells, results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", metavar="PATH",
                      help="capture the current hashes to PATH")
    mode.add_argument("--check", metavar="PATH",
                      help="compare current hashes against PATH")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    hashes = compute_hashes(workers=args.workers)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(hashes, fh, indent=1, sort_keys=True)
        print(f"saved {len(hashes)} cell hashes to {args.save}")
        return 0

    with open(args.check) as fh:
        baseline = json.load(fh)
    drifted = sorted(key for key in baseline
                     if hashes.get(key) != baseline[key])
    missing = sorted(set(baseline) - set(hashes))
    extra = sorted(set(hashes) - set(baseline))
    if drifted or missing:
        for key in drifted:
            print(f"DRIFT  {key}")
        for key in missing:
            print(f"MISSING {key}")
        print(f"{len(drifted)} drifted, {len(missing)} missing "
              f"of {len(baseline)} baseline cells")
        return 1
    print(f"bit-identical: {len(baseline)} cells match"
          + (f" ({len(extra)} new cells not in baseline)" if extra else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
