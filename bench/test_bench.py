"""Toy-size checks of the benchmark harness itself (no glassdyn command runs).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap; grandchild inside
    spans = [[0, 0.0, 10.0, -1, None],
             [1, 1.0, 4.0, 0, None],
             [1, 3.0, 6.0, 0, None],
             [2, 1.5, 2.0, 1, None]]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_tracer_records_parents_and_work():
    t = tracing.Tracer()

    def inner(x):
        return x + 1

    inner_t = t.wrap("inner", inner)
    outer_t = t.wrap("outer", lambda x: inner_t(inner_t(x)), work=lambda a, r: r)
    assert outer_t(1) == 3
    names = [t.names[rec[0]] for rec in t.spans]
    assert names == ["outer", "inner", "inner"]
    assert [rec[3] for rec in t.spans] == [-1, 0, 0]
    assert t.spans[0][4] == 3
    assert all(rec[1] <= rec[2] for rec in t.spans)


def test_layer_metrics_on_a_toy_trace():
    names = ["main", "solve_dynamics", "solve_w", "Mixture.nu",
             "ConditionedField.gradient_batch", "SpinSystem.gradient_batch"]
    spans = [[0, 0.0, 10.0, -1, None],
             [1, 1.0, 5.0, 0, 4],        # a solve of 4 slices
             [2, 1.0, 1.5, 1, None],
             [3, 1.1, 1.2, 2, None],     # nu under solve_w: not a loop call
             [3, 2.0, 2.5, 1, None],
             [3, 3.0, 3.5, 1, None],
             [4, 6.0, 9.0, 0, None],
             [5, 6.5, 8.5, 6, None]]
    m = tracing.layer_metrics({"names": names, "spans": spans})
    assert m["mixture.nu_calls"] == 3
    assert m["mixture.nu_calls_per_slice"] == pytest.approx(2 / 4)
    assert m["dynamics.slices"] == 4
    assert m["dynamics.self_s"] == pytest.approx(4.0 - 0.5 - 0.5 - 0.5)
    assert m["hamiltonian.grad_calls"] == 1
    assert m["hamiltonian.mean_swap_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert set(m) <= set(run.PER_LAYER)


def test_tail_percentile_leaves_ten_samples_above():
    assert tracing.tail_percentile(5) == 100.0
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0


def test_metric_names_follow_the_grammar_and_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    names = list(e2e) + list(layer) + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in list(e2e.values()) + list(layer.values()):
        assert UNIT.fullmatch(unit), unit
    assert e2e["setup_s"] == "s"
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_workloads_use_no_option_an_open_item_removes(tmp_path):
    for wl in run.WORKLOADS.values():
        argv = run.write_inputs(wl, 1, tmp_path / wl.name)
        assert "--threads" not in argv
        assert "threads" not in wl.params


def test_command_seeds_are_reproducible_and_start_pinned():
    assert run.command_seed(7, 0) == run.PIN_SEED
    assert run.command_seed(7, 3) == run.command_seed(7, 3)
    assert run.command_seed(7, 3) != run.command_seed(8, 3)
