"""Tests of the benchmark itself:

    python -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import types
from collections import defaultdict

import pytest

import check
import run
import tracing
import workloads

MODS = run.import_package()


def _runner(tmp_path, name, reference=None, seed=workloads.DEFAULT_SEED):
    wl = workloads.WORKLOADS[name]
    return run.Runner(MODS, wl, workloads.config_text(name, seed), tmp_path, reference)


def _originals():
    return {(m, a): getattr(MODS[m], a) for m, a, _n in tracing.TARGETS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_is_a_pure_function_of_the_seed(name):
    texts = [workloads.config_text(name, seed) for seed in (0, 1, 2)]
    assert texts == [workloads.config_text(name, seed) for seed in (0, 1, 2)]
    assert len(set(texts)) == 3
    for text in texts:  # the package accepts what the benchmark generates
        MODS["cli"]._validate_config(
            MODS["cli"].ExperimentConfig(**MODS["cli"].parse_config_text(text)))


def test_untraced_run_leaves_every_wrapped_attribute_untouched(tmp_path):
    before = _originals()
    runner = _runner(tmp_path, "bounds-table")
    runner.rep()
    assert all(getattr(MODS[m], a) is f for (m, a), f in before.items())
    tracer = tracing.Tracer(MODS)
    with tracer:
        assert all(getattr(MODS[m], a) is not f for (m, a), f in before.items())
        runner.rep()
    assert all(getattr(MODS[m], a) is f for (m, a), f in before.items())
    assert runner.failed == 0 and tracer.spans and not tracer.absent


def test_traced_self_times_sum_to_the_traced_wall(tmp_path, monkeypatch):
    monkeypatch.setenv(run.THREADS_ENV, "1")
    runner = _runner(tmp_path, "fig5-pdf")
    tracer = tracing.Tracer(MODS)
    with tracer:
        wall = runner.rep(tracer)
    self_total = sum(tracing.self_times(tracer.spans).values())
    assert self_total == pytest.approx(wall, rel=0.01)
    assert runner.failed == 0


def test_worker_thread_spans_hang_under_run_trials(tmp_path, monkeypatch):
    monkeypatch.setenv(run.THREADS_ENV, "2")
    runner = _runner(tmp_path, "fig4-average-loss")
    tracer = tracing.Tracer(MODS)
    with tracer:
        runner.rep(tracer)
    by_id = {s.sid: s for s in tracer.spans}
    chunks = [s for s in tracer.spans if s.name == "montecarlo._chunk_losses"]
    assert len({s.thread for s in chunks}) == 2
    assert all(by_id[s.parent].name == "montecarlo.run_trials" for s in chunks)

    def sigma_of(span):
        while span.name != "montecarlo.run_trials":
            span = by_id[span.parent]
        return span.info["sigma_o"]

    nodes, poses = defaultdict(int), defaultdict(int)
    for s in tracer.spans:
        if s.name == tracing.INTEGRAND:
            nodes[sigma_of(s)] += s.info["nodes"] * s.info["poses"]
        elif s.name == "numerics.disk_quadrature":
            poses[sigma_of(s)] += s.info["poses"]
    per_pose = {sigma: nodes[sigma] / poses[sigma] for sigma in poses}
    assert per_pose[5e-4] == per_pose[1e-3] == 2688  # polar orders 8, 16, 32
    assert 640 <= per_pose[2e-4] < 2688
    layers = tracing.layer_metrics(tracer.spans, tracer.absent,
                                   {"threads": 2, "far_field_warnings": 0})
    assert layers["numerics.nodes_per_pose"] == pytest.approx(sum(per_pose.values()) / 3)
    assert layers["montecarlo.degenerate_trials"] == 0
    assert runner.failed == 0


def test_corrupted_reference_makes_rows_fail(tmp_path):
    ref = check.load_reference("bounds-table")
    runner = _runner(tmp_path, "bounds-table", ref)
    runner.rep()
    assert runner.failed == 0
    bad = copy.deepcopy(ref)
    bad["rows"][7][3] *= 1.0 + 1e-6
    runner = _runner(tmp_path, "bounds-table", bad)
    runner.rep()
    assert runner.failed == 1 and runner.attempted == len(ref["rows"]) + 1


def test_reference_tolerances():
    ref = check.load_reference("fig5-pdf")
    assert check.compare_to_reference(ref, ref) == (len(ref["rows"]) + 1, 0)
    for mutate, failed in (
        (lambda t: t["rows"][3].__setitem__(2, t["rows"][3][2] + 1), 1),
        (lambda t: t["rows"][3].__setitem__(4, t["rows"][3][4] * (1 + 1e-9)), 0),
        (lambda t: t["meta"].__setitem__("gof_p_value", t["meta"]["gof_p_value"] * (1 + 1e-6)), 0),
        (lambda t: t["meta"].__setitem__("gof_p_value", t["meta"]["gof_p_value"] * (1 + 1e-4)), 1),
        (lambda t: t["meta"].__setitem__("degenerate_trials", 1), 1),
        (lambda t: t["rows"].pop(), len(ref["rows"]) + 1),
    ):
        table = copy.deepcopy(ref)
        mutate(table)
        assert check.compare_to_reference(table, ref)[1] == failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_invariants_hold_on_the_reference_and_catch_breaks(name):
    wl = workloads.WORKLOADS[name]
    text = workloads.config_text(name, workloads.DEFAULT_SEED)
    ref = check.load_reference(name)
    assert check.check_invariants(wl.command, ref, text) == (len(ref["rows"]) + 1, 0)
    broken = copy.deepcopy(ref)
    row = broken["rows"][0]
    if wl.command == "average-loss":
        row[4] = row[3] + 0.6  # closed form 0.6 dB off the exact mean
    elif wl.command == "pdf":
        row[2] += 1  # one sample more than the trials run
    else:
        row[4] = row[3] - 0.1  # lower bound above the exact loss
    assert check.check_invariants(wl.command, broken, text)[1] >= 1
    assert check.check_invariants(wl.command, {"rows": [], "meta": {}}, text)[1] >= 1


def test_absent_function_is_reported_as_absent():
    geoloss = types.SimpleNamespace(**vars(MODS["geoloss"]))
    del geoloss.exact_loss_batch
    tracer = tracing.Tracer({**MODS, "geoloss": geoloss})
    with tracer:
        pass
    assert tracer.absent == {"geoloss.exact_loss_batch"}
    layers = tracing.layer_metrics([], tracer.absent, {"threads": 1, "far_field_warnings": 0})
    assert layers["geoloss.exact_batch.trials_per_s"] is None
    assert layers["geoloss.exact_batch.self_s"] is None
    assert layers["geoloss.approx_batch.trials_per_s"] == 0.0


def test_benchmark_json_lists_the_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert ([(w["name"], w["why"]) for w in spec["workloads"]]
            == [(w.name, w.why) for w in workloads.WORKLOADS.values()])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {name: unit for name, (unit, _b, _r, _f) in tracing.PER_LAYER.items()}
    layers["trace.overhead_frac"] = "fraction"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert all(m["better"] == tracing.PER_LAYER[m["name"]][1]
               for m in spec["per_layer"] if m["name"] in tracing.PER_LAYER)
