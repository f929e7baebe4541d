"""Self-tests of the benchmark's own code: span arithmetic, wrappers, the
count-conservation check and the gauge arithmetic.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from flexarray import channel, estimation, harness, precoding, radiation  # noqa: E402
from flexarray.errors import (PatternBoundaryError, RankDeficiencyError,  # noqa: E402
                              SingularFisherError)
from flexarray.estimation import FisherMatrix  # noqa: E402
from flexarray.geometry import ArrayConfig, FlexModel  # noqa: E402
from flexarray.radiation import PatternKind, PatternSpec  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times, wrapped_names  # noqa: E402

COS2 = PatternSpec(PatternKind.COSINE, kappa=2.0)


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has child [5, 6]
    got = self_times([0, 1, 4, 5], [10, 3, 8, 6], [-1, 0, 0, 2])
    np.testing.assert_allclose(got, [4, 2, 3, 1])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] cover [1, 7]; a child leaking past its parent is clipped
    got = self_times([0, 1, 3, 8], [10, 5, 7, 12], [-1, 0, 0, 0])
    np.testing.assert_allclose(got, [10 - 6 - 2, 4, 4, 4])


def test_self_time_of_nested_same_layer_spans_sums_to_layer_time():
    # optimal_psi_for_crb -> fisher_matrix, both estimation, charge the
    # estimation layer once; the wall time of the root is split exactly
    cfg = ArrayConfig(4, 4)
    paths = channel.PathSet(theta=[1.2, 1.7], phi=[0.3, -0.4], beta=[1.0, 0.5j])
    tracer = layers.make_tracer()
    with tracer.installed():
        estimation.optimal_psi_for_crb(FlexModel.BENDABLE, cfg, COS2, paths, 0.0, 1.0,
                                       (-0.5, 0.5), grid_size=5)
    spans = layers.Spans(tracer)
    root = spans.parent < 0
    assert spans.name[root].tolist() == ["estimation.optimal_psi_for_crb"]
    assert int(spans.named("estimation.fisher_matrix").sum()) == 5
    assert spans.self_time.sum() == pytest.approx(spans.duration[root].sum(), rel=1e-9)
    metrics = layers.layer_metrics(spans, n_ops=1)
    per_layer = sum(metrics[f"{layer}.self_s"] for layer in ("estimation", "geometry", "radiation",
                                                             "channel"))
    assert per_layer == pytest.approx(spans.duration[root].sum(), rel=1e-9)
    assert 0 < metrics["estimation.self_s"] < spans.duration[root].sum()


def _rank_deficient():
    return precoding.effective_gain(np.ones((2, 3)))


def _singular():
    return estimation.mean_angle_crb(FisherMatrix(np.zeros((4, 4)), sigma2=1.0, n_paths=1))


def _boundary():
    return radiation.pattern_derivatives(COS2, np.pi / 2, np.pi / 2)


@pytest.mark.parametrize("call, error, status", [
    (_rank_deficient, RankDeficiencyError, layers.RANK_DEFICIENT),
    (_singular, SingularFisherError, layers.SINGULAR),
    (_boundary, PatternBoundaryError, layers.BOUNDARY),
])
def test_wrapper_reraises_the_same_exception(call, error, status):
    with pytest.raises(error):
        call()
    tracer = layers.make_tracer()
    with tracer.installed():
        with pytest.raises(error) as raised:
            call()
    assert type(raised.value) is error
    assert tracer.status[0] == status
    assert not wrapped_names()


def test_wrapper_returns_the_same_value():
    paths = channel.PathSet(theta=[1.2, 1.7], phi=[0.3, -0.4], beta=[1.0, 0.5j])
    cfg = ArrayConfig(4, 2)
    expected = channel.flexible_channel(FlexModel.ROTATABLE, cfg, COS2, paths, 0.2)
    tracer = layers.make_tracer()
    with tracer.installed():
        got = channel.flexible_channel(FlexModel.ROTATABLE, cfg, COS2, paths, 0.2)
    np.testing.assert_array_equal(got, expected)
    assert len(tracer) > 1 and set(tracer.status) == {0}


def test_wrappers_sit_at_every_binding_and_are_removed():
    originals = (channel.sector_block, precoding.sector_block, estimation.fisher_matrix,
                 harness.fisher_matrix)
    tracer = layers.make_tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            bound = wrapped_names()
            for name in ("flexarray.channel.sector_block", "flexarray.precoding.sector_block",
                         "flexarray.estimation.fisher_matrix", "flexarray.harness.fisher_matrix",
                         "flexarray.harness.mean_angle_crb", "flexarray.channel.flex_geometry",
                         "flexarray.precoding.flex_geometry", "flexarray.estimation.flex_geometry"):
                assert name in bound
            raise KeyError("leaving the block by an exception still restores")
    assert not wrapped_names()
    assert (channel.sector_block, precoding.sector_block, estimation.fisher_matrix,
            harness.fisher_matrix) == originals


@pytest.mark.parametrize("workload, module, name", [
    (workloads.SumRate(FlexModel.ROTATABLE, PatternSpec(PatternKind.OMNI), k_users=2,
                       budget_1d=2, budget_3d=3, n_init=1), precoding, "jfp_sumrate"),
    (workloads.CrbSweep(l_values=(1, 2), grid_size=5), harness, "fisher_matrix"),
])
def test_counts_match_their_closed_forms(workload, module, name):
    tracer = layers.make_tracer()
    marks = []

    def run_op(index):
        marks.append(len(tracer))
        op = workload.build(7, index)
        assert workload.check(op, workload.run(op)) == []

    with tracer.installed():
        run_op(0)
        run_op(1)
        wrapper = getattr(module, name)
        setattr(module, name, wrapper.__wrapped__)  # a call site the wrappers miss
        try:
            run_op(2)
        finally:
            setattr(module, name, wrapper)
    marks.append(len(tracer))
    problems = layers.conservation_problems(layers.Spans(tracer), marks, workload)
    assert len(problems) == 1 and problems[0].startswith("op 2:"), problems


def test_redrawn_draw_is_counted_and_left_out_of_the_closed_form(monkeypatch):
    workload = workloads.CrbSweep(l_values=(1, 2), grid_size=5)
    draw_paths = harness._crb_regime_paths
    draws = []

    def first_draw_on_the_support_edge(rng, n_paths):
        paths = draw_paths(rng, n_paths)
        if not draws:
            paths.phi[0] = np.pi / 2  # the planar Fisher build raises PatternBoundaryError
        draws.append(paths)
        return paths

    monkeypatch.setattr(harness, "_crb_regime_paths", first_draw_on_the_support_edge)
    tracer = layers.make_tracer()
    with tracer.installed():
        op = workload.build(7, 0)
        assert workload.check(op, workload.run(op)) == []
    spans = layers.Spans(tracer)
    assert len(draws) == 2
    assert layers.layer_metrics(spans, n_ops=1)["harness.crb_redraws"] == 1
    assert int(spans.named("estimation.fisher_matrix").sum()) == workload.fisher_builds() + 1
    assert layers.conservation_problems(spans, [0, len(tracer)], workload) == []


def test_gauged_times_scale_each_interval_by_the_gauges_around_it():
    # interval i lies between gauges i and i + 1; a gauge that reads the
    # reference time leaves an interval as it was measured
    ref = run.GAUGE_REFERENCE_S
    assert run.gauged([1.0, 3.0], [ref, ref, 3.0 * ref]) == pytest.approx([1.0, 1.5])
    with pytest.raises(ValueError):
        run.gauged([1.0, 3.0], [ref, ref])
