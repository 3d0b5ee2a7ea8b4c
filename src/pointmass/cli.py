"""Scenario-driven command line front end.

Subcommands:

* ``predict <scenario.json> [--out DIR]`` runs the configured number of
  prediction steps and prints a JSON summary (final moments, per-step
  pre-renormalization mass and wall clock); with ``--out`` the final
  densities are also dumped in the ASCII grid format.
* ``bench <scenario.json> --repeats K [--sweep N1,N2,...]`` times one
  prediction step per predictor (median over K runs after one warm-up)
  and prints a CSV table; sweep mode reruns the scenario at several
  per-axis counts and reports fitted log-log slopes on stderr.
* ``compare <scenario.json>`` runs both predictors side by side and
  prints a JSON report of per-step weight and moment differences,
  failing (exit 1) if they exceed the oracle threshold.

``bench`` and ``compare`` write their tables to stdout only; redirect it
to keep a file.

A scenario file is a JSON object.  :class:`Scenario` turns each field
once into the library object that owns it: the grid, the dynamics model
with its noise density, the initial density and the predictor functions.
Those constructors validate the values; the parser checks only what no
library object knows (field names, which fields each kind requires or
forbids, shapes against the grid dimension, positive grid steps, a
nonnegative step count, odd counts for the discrete efficient predictor
(the continuous one takes any count) and the ``inflation_coverage``
rules).  ``predict`` and ``compare`` step the
densities through :func:`pointmass.propagate`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from . import _validate, predict_cd, predict_dd
from .grid import LatticeGrid, PointMassDensity, save_pmd
from .models import (
    ContinuousDynamicsModel,
    DiscreteDynamicsModel,
    GaussianDensity,
    LaplaceDensity,
)
from .propagation import propagate

__all__ = ["Scenario", "run_predict", "run_bench", "run_compare", "main"]

#: Oracle-agreement thresholds for ``compare`` (relative max norm).
COMPARE_THRESHOLDS = {"dd": 1e-10, "cd": 1e-8}

CSV_COLUMNS = ["predictor", "n_x", "counts", "N", "median_s", "ratio"]

_FIELDS = {
    "kind", "grid", "initial", "steps", "predictor", "F", "noise",
    "A", "Q", "sampling_period", "substeps", "inflation_coverage",
}
_REQUIRED = {"dd": ("F", "noise"), "cd": ("A", "Q")}
_FORBIDDEN = {"dd": ("A", "Q", "substeps"), "cd": ("F", "noise")}


def _object(data: dict[str, Any], key: str) -> dict[str, Any]:
    value = data.get(key)
    if not isinstance(value, dict):
        raise ValueError(f"scenario must contain a '{key}' object")
    return value


def _array(value: Any, shape: tuple[int, ...], name: str) -> NDArray[np.float64]:
    """``value`` as a float array of ``shape``; the error names the field."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape:
        raise ValueError(f"scenario field '{name}' must be numbers of shape {shape}")
    return arr


def _noise(noise: dict[str, Any], n: int) -> GaussianDensity | LaplaceDensity:
    kind = noise.get("type")
    if kind == "gaussian":
        return GaussianDensity(
            _array(noise.get("covariance"), (n, n), "noise.covariance")
        )
    if kind == "laplace":
        return LaplaceDensity(_array(noise.get("scales"), (n,), "noise.scales"))
    raise ValueError("noise.type must be 'gaussian' or 'laplace'")


def _initial(initial: dict[str, Any], n: int) -> GaussianDensity | None:
    kind = initial.get("type")
    if kind == "gaussian":
        return GaussianDensity(
            _array(initial.get("covariance"), (n, n), "initial.covariance"),
            mean=_array(initial.get("mean"), (n,), "initial.mean"),
        )
    if kind == "uniform":
        return None
    raise ValueError("initial.type must be 'gaussian' or 'uniform'")


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: the library objects its JSON fields describe.

    ``initial`` is the density sampled on the grid to start from, or
    ``None`` for a uniform start.  ``predictors`` maps each selected
    predictor's name (``standard``, ``efficient``) to its step function.
    """

    kind: str
    grid: LatticeGrid
    model: DiscreteDynamicsModel | ContinuousDynamicsModel
    initial: GaussianDensity | None
    steps: int
    predictors: dict[str, Callable[..., PointMassDensity]]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Scenario:
        if not isinstance(data, dict):
            raise ValueError("a scenario must be a JSON object")
        unknown = set(data) - _FIELDS
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        kind = data.get("kind")
        if kind not in ("dd", "cd"):
            raise ValueError(f"scenario kind must be 'dd' or 'cd', got {kind!r}")
        predictor = data.get("predictor")
        if predictor not in ("standard", "efficient", "both"):
            raise ValueError(
                "scenario predictor must be 'standard', 'efficient' or 'both', "
                f"got {predictor!r}"
            )
        missing = [k for k in _REQUIRED[kind] if data.get(k) is None]
        if missing:
            raise ValueError(f"{kind} scenarios require {missing}")
        extra = [k for k in _FORBIDDEN[kind] if data.get(k) is not None]
        if extra:
            raise ValueError(f"{kind} scenarios must not set {extra}")

        grid_data = _object(data, "grid")
        counts = grid_data.get("counts", [])
        if not isinstance(counts, list):
            raise ValueError("scenario field 'grid.counts' must be a list")
        n = len(counts)
        grid_steps = _array(grid_data.get("steps"), (n,), "grid.steps")
        if (grid_steps <= 0).any():
            raise ValueError("grid steps must be positive")
        grid = LatticeGrid.axis_aligned(
            counts, grid_steps, _array(grid_data.get("center"), (n,), "grid.center")
        )
        if kind == "dd" and predictor != "standard":
            _validate.odd_counts(grid.counts, "the discrete efficient predictor")
        steps = data.get("steps", 0)
        if not _validate.is_count(steps, 0):
            raise ValueError("steps must be a nonnegative integer")

        model: DiscreteDynamicsModel | ContinuousDynamicsModel
        if kind == "dd":
            model = DiscreteDynamicsModel(
                _array(data["F"], (n, n), "F"), _noise(_object(data, "noise"), n)
            )
            module = predict_dd
        else:
            model = ContinuousDynamicsModel(
                _array(data["A"], (n, n), "A"),
                _array(data["Q"], (n,), "Q"),
                sampling_period=data.get("sampling_period", 1.0),
                substeps=data.get("substeps"),
            )
            module = predict_cd
        predictors = {
            "standard": module.predict_standard,
            "efficient": module.predict_efficient,
        }

        coverage = data.get("inflation_coverage")
        if coverage is not None:
            if kind != "dd" or predictor != "efficient":
                raise ValueError(
                    "inflation_coverage applies only to dd scenarios with "
                    "predictor 'efficient'"
                )
            if not _validate.is_positive_finite(coverage):
                raise ValueError(
                    "scenario field 'inflation_coverage' must be a positive "
                    "finite number"
                )
            predictors["efficient"] = functools.partial(
                predict_dd.predict_inflated, coverage=float(coverage)
            )
        if predictor != "both":
            predictors = {predictor: predictors[predictor]}

        return cls(
            kind=kind,
            grid=grid,
            model=model,
            initial=_initial(_object(data, "initial"), n),
            steps=int(steps),
            predictors=predictors,
        )

    @classmethod
    def load(cls, path: str) -> Scenario:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls.from_dict(data)

    def build_grid(self) -> LatticeGrid:
        """The scenario's grid, as ``grid``; scripts such as the benchmark's
        workloads load a scenario and build its parts through these names."""
        return self.grid

    def build_model(self) -> DiscreteDynamicsModel | ContinuousDynamicsModel:
        """The scenario's model, as ``model``."""
        return self.model

    def build_initial(self, grid: LatticeGrid) -> PointMassDensity:
        """The initial density sampled on ``grid``, at unit mass."""
        if self.initial is None:
            return PointMassDensity(grid, np.ones(grid.size)).normalized()
        return PointMassDensity.from_density(self.initial, grid)


# -- commands ------------------------------------------------------------------


def run_predict(scenario: Scenario, out_dir: str | None = None) -> dict[str, Any]:
    """Run the scenario's prediction steps and summarize the results."""
    initial = scenario.build_initial(scenario.grid)
    summary: dict[str, Any] = {
        "kind": scenario.kind,
        "steps": scenario.steps,
        "results": {},
    }
    for name, predict in scenario.predictors.items():
        pmd = initial
        masses: list[float] = []
        clocks: list[float] = []
        for step in propagate(initial, scenario.model, scenario.steps, predict):
            pmd = step.density
            masses.append(step.raw.mass)
            clocks.append(step.seconds)
        mean, cov = pmd.moments()
        entry: dict[str, Any] = {
            "final_mean": [float(v) for v in mean],
            "final_covariance": [[float(v) for v in row] for row in cov],
            "mass_before_renormalization": masses,
            "wall_clock_s": clocks,
        }
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            dump = os.path.join(out_dir, f"pmd_{name}.txt")
            save_pmd(pmd, dump)
            entry["dump"] = dump
        summary["results"][name] = entry
    return summary


def _with_counts(scenario: Scenario, per_axis: int) -> Scenario:
    """Scenario rerun at a different per-axis count, preserving the span."""
    grid = scenario.grid
    steps = np.diag(grid.basis) * (np.asarray(grid.counts) - 1) / (per_axis - 1)
    return replace(
        scenario,
        grid=LatticeGrid.axis_aligned([per_axis] * grid.dim, steps, grid.center),
    )


def run_bench(
    scenario: Scenario,
    repeats: int,
    sweep: Sequence[int] | None = None,
) -> tuple[list[dict[str, Any]], dict[str, float]]:
    """Time one prediction step per predictor; median over ``repeats``.

    Returns the CSV rows and, when sweeping, the fitted log-log slope of
    median time versus total point count per predictor.
    """
    if repeats < 3:
        raise ValueError("bench requires at least 3 repeats")
    variants = (
        [scenario] if sweep is None else [_with_counts(scenario, n) for n in sweep]
    )
    rows: list[dict[str, Any]] = []
    measured: dict[str, list[tuple[int, float]]] = {}
    for variant in variants:
        grid, model = variant.grid, variant.model
        initial = variant.build_initial(grid)
        medians: dict[str, float] = {}
        for name, predict in variant.predictors.items():
            predict(initial, model)  # warm-up
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                predict(initial, model)
                times.append(time.perf_counter() - start)
            medians[name] = statistics.median(times)
            measured.setdefault(name, []).append((grid.size, medians[name]))
        ratio = ""
        if "standard" in medians and "efficient" in medians:
            ratio = medians["standard"] / medians["efficient"]
        for name in medians:
            rows.append(
                {
                    "predictor": name,
                    "n_x": grid.dim,
                    "counts": "x".join(str(c) for c in grid.counts),
                    "N": grid.size,
                    "median_s": medians[name],
                    "ratio": ratio,
                }
            )
    slopes: dict[str, float] = {}
    if sweep is not None:
        for name, points in measured.items():
            if len(points) >= 2:
                log_n = np.log([p[0] for p in points])
                log_t = np.log([p[1] for p in points])
                slopes[name] = float(np.polyfit(log_n, log_t, 1)[0])
    return rows, slopes


def run_compare(scenario: Scenario) -> dict[str, Any]:
    """Step both predictors in lockstep and report their differences."""
    if set(scenario.predictors) != {"standard", "efficient"}:
        raise ValueError("compare requires a scenario with predictor 'both'")
    initial = scenario.build_initial(scenario.grid)
    standard, efficient = (
        propagate(initial, scenario.model, scenario.steps, scenario.predictors[name])
        for name in ("standard", "efficient")
    )
    threshold = COMPARE_THRESHOLDS[scenario.kind]

    records: list[dict[str, Any]] = []
    worst = 0.0
    for k, (std_step, eff_step) in enumerate(zip(standard, efficient), start=1):
        std, eff = std_step.density, eff_step.density
        if std.grid != eff.grid:
            raise ValueError("predictors diverged onto different grids")
        rel = float(
            np.abs(std.weights - eff.weights).max() / np.abs(std.weights).max()
        )
        mean_s, cov_s = std.moments()
        mean_e, cov_e = eff.moments()
        records.append(
            {
                "step": k,
                "max_rel_weight_diff": rel,
                "mean_abs_diff": float(np.abs(mean_s - mean_e).max()),
                "cov_frobenius_diff": float(np.linalg.norm(cov_s - cov_e)),
            }
        )
        worst = max(worst, rel)
    return {
        "kind": scenario.kind,
        "threshold": threshold,
        "steps": records,
        "max_rel_weight_diff": worst,
        "passed": worst <= threshold,
    }


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointmass",
        description="Point-mass prediction runner and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_predict = sub.add_parser("predict", help="run prediction steps")
    p_predict.add_argument("scenario")
    p_predict.add_argument("--out", default=None, help="directory for PMD dumps")

    p_bench = sub.add_parser("bench", help="time one prediction step")
    p_bench.add_argument("scenario")
    p_bench.add_argument("--repeats", type=int, required=True)
    p_bench.add_argument(
        "--sweep",
        default=None,
        help="comma-separated per-axis counts to sweep, e.g. 33,65,129",
    )

    p_compare = sub.add_parser("compare", help="run both predictors and compare")
    p_compare.add_argument("scenario")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = Scenario.load(args.scenario)
        if args.command == "predict":
            summary = run_predict(scenario, args.out)
            print(json.dumps(summary, indent=2))
            return 0
        if args.command == "bench":
            sweep = None
            if args.sweep:
                sweep = [int(tok) for tok in args.sweep.split(",") if tok]
            rows, slopes = run_bench(scenario, args.repeats, sweep)
            writer = csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
            for name, slope in sorted(slopes.items()):
                print(f"slope {name} {slope:.4f}", file=sys.stderr)
            return 0
        if args.command == "compare":
            report = run_compare(scenario)
            print(json.dumps(report, indent=2))
            return 0 if report["passed"] else 1
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
