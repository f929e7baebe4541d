"""Per-layer metrics and count-conservation checks from a traced run's spans.

Counts and self times are per operation of the traced phase. A layer's
self time sums, over its spans, the span's duration minus the union of its
children, so nested spans of one layer (``optimize`` -> ``propose_next``,
``optimal_psi_for_crb`` -> ``fisher_matrix``) are counted once and calls
into other layers are charged to those layers. The list of metrics and the
end-to-end metric each should move is in README.md.
"""

from __future__ import annotations

import numpy as np

from flexarray.bayesopt import DUPLICATE_TOL
from flexarray.errors import (OptimizationError, PatternBoundaryError, RankDeficiencyError,
                              SingularFisherError)

from tracer import LAYERS, Tracer, self_times

ERROR_TYPES = (RankDeficiencyError, SingularFisherError, PatternBoundaryError, OptimizationError)
RANK_DEFICIENT, SINGULAR, BOUNDARY = 1, 2, 3
# the sum-rate objective each strategy evaluates, one call per evaluation
SUMRATE_OBJECTIVES = {"sfp": "precoding.sector_rate_given_leakage",
                      "jfp": "precoding.jfp_sumrate",
                      "sjfp": "precoding.sjfp_sumrate"}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _propose_note(args, kwargs, result):
    """(candidate dimension, T * C kernel entries) of one acquisition."""
    data = _arg(args, kwargs, 1, "data")
    candidates = np.asarray(_arg(args, kwargs, 2, "candidates"))
    dim = candidates.shape[1] if candidates.ndim == 2 else 1
    return dim, data.size * candidates.shape[0]


def _optimize_note(args, kwargs, result):
    """(objective evaluations, proposals duplicating an earlier point)."""
    points = np.array([np.ravel(point) for point, _ in result.trace])
    dist2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    duplicate = np.tril(dist2 < DUPLICATE_TOL**2, k=-1).any(axis=1)
    return len(points), int(duplicate.sum())


def _strategy_note(args, kwargs, result):
    return _arg(args, kwargs, 1, "strategy")


def make_tracer() -> Tracer:
    return Tracer(notes={"bayesopt.propose_next": _propose_note,
                         "bayesopt.optimize": _optimize_note,
                         "harness.optimize_strategy": _strategy_note},
                  error_types=ERROR_TYPES)


class Spans:
    """Columns of a finished trace with per-span name, layer and parent layer."""

    def __init__(self, tracer: Tracer):
        cols = tracer.arrays()
        self.tracer = tracer
        self.parent = cols["parent"]
        self.status = cols["status"]
        self.start = cols["start"]
        self.end = cols["end"]
        self.duration = cols["end"] - cols["start"]
        self.self_time = self_times(cols["start"], cols["end"], cols["parent"])
        names = np.array(tracer.names + ["-"], dtype=object)
        layers = np.array(tracer.layers + ["-"], dtype=object)
        fid = cols["fid"]
        self.name = names[fid]
        self.layer = layers[fid]
        parent_fid = np.where(self.parent >= 0, fid[self.parent], len(tracer.names))
        self.parent_layer = layers[parent_fid]

    def named(self, name: str) -> np.ndarray:
        return self.name == name

    def entries(self, layer: str) -> np.ndarray:
        """Spans through which control entered ``layer`` from outside it."""
        return (self.layer == layer) & (self.parent_layer != layer)


def _mean(values: np.ndarray, scale: float) -> float:
    return float(values.mean() * scale) if values.size else 0.0


def layer_metrics(spans: Spans, n_ops: int) -> dict:
    """Per-layer metrics of the traced phase, keyed by their benchmark names."""
    per_op = 1.0 / n_ops
    metrics = {f"{layer}.self_s": float(spans.self_time[spans.layer == layer].sum() * per_op)
               for layer in LAYERS}
    notes = spans.tracer.notes

    proposals = [notes[i] for i in np.flatnonzero(spans.named("bayesopt.propose_next"))]
    propose_ms = spans.duration[spans.named("bayesopt.propose_next")] * 1e3
    dims = np.array([dim for dim, _ in proposals], dtype=int)
    optimize_runs = [notes[i] for i in np.flatnonzero(spans.named("bayesopt.optimize"))]
    evals = sum(count for count, _ in optimize_runs)
    duplicates = sum(dup for _, dup in optimize_runs)
    metrics.update({
        "bayesopt.propose_next.1d.mean_ms": _mean(propose_ms[dims == 1], 1.0),
        "bayesopt.propose_next.3d.mean_ms": _mean(propose_ms[dims == 3], 1.0),
        "bayesopt.kernel_entries": sum(entries for _, entries in proposals) * per_op,
        "bayesopt.objective_evals": evals * per_op,
        "bayesopt.duplicate_proposals": duplicates * per_op,
        "bayesopt.useful_ratio": (evals - duplicates) / evals if evals else 0.0,
    })

    objective = np.isin(spans.name, list(SUMRATE_OBJECTIVES.values()))
    rank_deficient = int(np.sum(objective & (spans.status == RANK_DEFICIENT)))
    n_objective = int(objective.sum())
    metrics.update({
        "precoding.evals": n_objective * per_op,
        "precoding.rank_deficient": rank_deficient * per_op,
        "precoding.useful_ratio": 1.0 - rank_deficient / n_objective if n_objective else 0.0,
    })
    for name in SUMRATE_OBJECTIVES.values():
        metrics[f"{name}.mean_ms"] = _mean(spans.duration[spans.named(name)], 1e3)

    sector_block = spans.named("channel.sector_block")
    metrics["channel.sector_block.calls"] = int(sector_block.sum()) * per_op
    metrics["channel.sector_block.mean_us"] = _mean(spans.duration[sector_block], 1e6)
    metrics["geometry.flex_geometry.calls"] = int(spans.named("geometry.flex_geometry").sum()) * per_op
    radiation = spans.entries("radiation")
    metrics["radiation.calls"] = int(radiation.sum()) * per_op
    metrics["radiation.boundary_errors"] = int(np.sum(radiation & (spans.status == BOUNDARY))) * per_op

    fisher = int(spans.named("estimation.fisher_matrix").sum())
    crb = spans.named("estimation.mean_angle_crb")
    metrics.update({
        "estimation.fisher_matrix.calls": fisher * per_op,
        "estimation.mean_angle_crb.mean_us": _mean(spans.duration[crb], 1e6),
        "estimation.singular": int(np.sum(crb & (spans.status == SINGULAR))) * per_op,
        "estimation.useful_ratio": int(np.sum(crb & (spans.status == 0))) / fisher if fisher else 0.0,
    })

    strategy_runs = np.flatnonzero(spans.named("harness.optimize_strategy"))
    for strategy in SUMRATE_OBJECTIVES:
        times = [spans.duration[i] for i in strategy_runs if notes[i] == strategy]
        metrics[f"harness.optimize_strategy.{strategy}.p50_s"] = float(np.median(times)) if times else 0.0
    metrics["harness.crb_redraws"] = int(np.sum(_redraws(spans))) * per_op
    return metrics


def _redraws(spans: Spans) -> np.ndarray:
    """Spans whose exception made ``experiment_crb_sweep`` redraw a whole
    draw: estimation calls made directly from the harness that raised."""
    return (spans.layer == "estimation") & (spans.parent_layer == "harness") & (spans.status != 0)


def conservation_problems(spans: Spans, op_marks: list, workload) -> list:
    """Compare per-operation call counts with their closed forms.

    ``op_marks[i]`` is the span index at which operation ``i`` started; the
    last entry closes the final operation. A mismatch means a wrapper
    missed a call site.
    """
    problems = []
    for op, (lo, hi) in enumerate(zip(op_marks, op_marks[1:])):
        window = slice(lo, hi)
        if workload.kind == "sumrate":
            for strategy, expected in workload.objective_evals().items():
                name = SUMRATE_OBJECTIVES[strategy]
                got = int(spans.named(name)[window].sum())
                if got != expected:
                    problems.append(f"op {op}: {got} {name} calls, expected {expected}")
        else:
            redraws = lo + np.flatnonzero(_redraws(spans)[window])
            # the kept draw starts after the last failed call and its subtree
            first = int(np.searchsorted(spans.start, spans.end[redraws[-1]])) if redraws.size else lo
            got = int(spans.named("estimation.fisher_matrix")[first:hi].sum())
            if got != workload.fisher_builds():
                problems.append(f"op {op}: {got} fisher_matrix builds in the kept draw, "
                                f"expected {workload.fisher_builds()}")
    return problems
