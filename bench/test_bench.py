"""Tests of the benchmark itself: spans, the compare rule, inputs, checks.

    python -m pytest bench -q
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
from spans import ROOT, Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# --- span self-time arithmetic -------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 4.0, 7.0, parent=0),
        Span("a.child", 1.5, 2.5, parent=1),   # counts against a, not parent
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([5.0, 1.0, 3.0, 1.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_leaf_self_time_is_its_duration():
    assert self_times([Span("x", 2.0, 2.5)]) == pytest.approx([0.5])


def test_wrapped_module_attributes_nest_and_restore():
    clock = FakeClock()
    tracer = Tracer(clock)
    mod = types.SimpleNamespace()

    def inner(x):
        clock.now += 2.0
        return x + 1

    def outer(x):
        clock.now += 1.0
        y = mod.inner(x)           # looked up at call time, like the program
        clock.now += 0.5
        return y

    mod.inner, mod.outer = inner, outer
    targets = [(mod, "outer", "m.outer", None),
               (mod, "inner", "m.inner", lambda a, k, r: {"calls": 1, "x": a[0]})]
    with tracer.patched(targets), tracer.item(0):
        clock.now += 0.25
        assert mod.outer(4) == 5
    assert mod.inner is inner and mod.outer is outer

    by_name = {s.name: s for s in tracer.spans}
    assert [s.name for s in tracer.spans] == [ROOT, "m.outer", "m.inner"]
    assert by_name["m.inner"].parent == 1 and by_name["m.outer"].parent == 0
    assert by_name["m.inner"].counts == {"calls": 1, "x": 4}
    selfs = dict(zip((s.name for s in tracer.spans), self_times(tracer.spans)))
    assert selfs == pytest.approx({ROOT: 0.25, "m.outer": 1.5, "m.inner": 2.0})
    root = by_name[ROOT]
    assert sum(selfs.values()) == pytest.approx(root.end - root.start)


def test_patched_restores_on_error():
    mod = types.SimpleNamespace(f=lambda: 1)
    original = mod.f
    with pytest.raises(RuntimeError):
        with Tracer().patched([(mod, "f", "m.f", None)]):
            raise RuntimeError
    assert mod.f is original


def test_untraced_program_is_unwrapped_after_a_traced_item():
    from layers import TARGETS
    originals = [getattr(m, a) for m, a, _, _ in TARGETS]
    with Tracer().patched(TARGETS):
        assert all(getattr(m, a) is not o
                   for (m, a, _, _), o in zip(TARGETS, originals))
    assert all(getattr(m, a) is o for (m, a, _, _), o in zip(TARGETS, originals))


def test_layer_self_times_sum_to_item_time():
    from layers import layer_metrics
    clock = FakeClock()
    tracer = Tracer(clock)
    mod = types.SimpleNamespace(f=lambda: setattr(clock, "now", clock.now + 3))
    for i in range(2):
        with tracer.patched([(mod, "f", "sim.run", None)]), tracer.item(i):
            clock.now += 1.0
            mod.f()
    metrics = layer_metrics(tracer, [0, 1])
    assert metrics["trace.item_s"] == pytest.approx(4.0)
    assert metrics["sim.run.s"] == pytest.approx(3.0)
    assert metrics["bench.item.self_s"] == pytest.approx(1.0)
    assert metrics["bench.item.self_s"] + metrics["sim.run.self_s"] == \
        pytest.approx(metrics["trace.item_s"])
    assert metrics["graphs.sample_graph.s"] == 0.0


# --- summary statistics and the compare rule -----------------------------------

def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 31)]
    value, pct = stats.tail(values)
    assert pct == 66 and sum(v > value for v in values) == 10
    assert stats.tail([float(i) for i in range(100)]) == (89.0, 90)
    assert stats.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50)


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_verdict_gain_needs_nine_of_ten_wins_and_a_move_beyond_the_iqr():
    change = [v * 0.8 for v in PARENT]
    assert stats.verdict(PARENT, change, "lower", 0.1) == "gain"
    assert stats.verdict([1 / v for v in PARENT], [1 / v for v in change],
                         "higher", 0.1) == "gain"
    # Wins every pair, but by less than the parent's own spread.
    tiny = [v - 0.001 for v in PARENT]
    assert stats.verdict(PARENT, tiny, "lower", 0.1) == "no_change"
    # A large median move that wins only 8 of 10 pairs is no gain.
    mixed = change[:8] + [2.0, 2.0]
    assert stats.verdict(PARENT, mixed, "lower", 0.5) != "gain"


def test_verdict_regression_uses_the_bound():
    assert stats.verdict(PARENT, [v * 1.3 for v in PARENT], "lower",
                         0.1) == "regression"
    assert stats.verdict(PARENT, [v * 1.05 for v in PARENT], "lower",
                         0.1) == "no_change"
    assert stats.verdict(PARENT, [v * 0.7 for v in PARENT], "higher",
                         0.1) == "regression"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert stats.verdict(noisy, list(reversed(noisy)), "lower",
                         0.1) == "unresolved"
    assert stats.verdict(noisy, list(reversed(noisy)), "lower",
                         0.5) == "no_change"


def test_verdict_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        stats.verdict([1.0, 2.0], [1.0], "lower", 0.1)


# --- workload inputs and output checks -----------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_a_function_of_the_seed(name, tmp_path):
    build = WORKLOADS[name].build
    for sub in "abc":
        (tmp_path / sub).mkdir()
    first = build(5, tmp_path / "a")
    again = build(5, tmp_path / "b")
    other = build(6, tmp_path / "c")
    assert [(i.key, i.spec) for i in first] == [(i.key, i.spec) for i in again]
    assert [i.spec for i in first] != [i.spec for i in other]
    assert len({i.key for i in first}) == len(first)


def _null_sweep_item(tmp_path):
    items = WORKLOADS["sweep_lightcone"].build(0, tmp_path)
    return next(i for i in items if ":c0:" in i.key)


def test_tampered_reference_digest_fails_the_item(tmp_path):
    item = _null_sweep_item(tmp_path)
    digest, problems = run.evaluate(item, run.call(item), None, None)
    assert problems == []
    good = run.evaluate(item, run.call(item), digest, {item.key: digest})
    assert good == (digest, [])
    tampered = "0" * len(digest)
    _, problems = run.evaluate(item, run.call(item), digest,
                               {item.key: tampered})
    assert problems == ["output differs from the reference digest"]


def test_tampered_digest_counts_in_failed(tmp_path, monkeypatch):
    item = _null_sweep_item(tmp_path)
    workload = Workload("one_null_sweep", "test", lambda seed, tmp: [item])
    monkeypatch.setattr(run, "load_reference",
                        lambda name, seed: {item.key: "0" * 64})
    monkeypatch.setattr(run, "setup_samples", lambda args: [0.5])
    args = types.SimpleNamespace(seed=0, seconds=1e-6, trace=0)
    result = run.measure(args, workload)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["metrics"]["failed_frac"] == (1.0, "ratio")


def test_failed_items_give_a_nonzero_exit(tmp_path, monkeypatch, capsys):
    item = _null_sweep_item(tmp_path)
    workload = Workload("one_null_sweep", "test", lambda seed, tmp: [item])
    monkeypatch.setitem(WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "load_reference",
                        lambda name, seed: {item.key: "0" * 64})
    monkeypatch.setattr(run, "setup_samples", lambda args: [0.5])
    assert run.main(["--workload", workload.name, "--seconds", "1e-6"]) \
        == run.EXIT_FAILED
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]


def test_a_raising_item_is_a_failure_not_a_crash(tmp_path):
    item = _null_sweep_item(tmp_path)
    broken = type(item)(key=item.key, spec=item.spec, check=item.check,
                        call=lambda: 1 / 0)
    digest, problems = run.evaluate(broken, run.call(broken), None, None)
    assert digest is None and "ZeroDivisionError" in problems[0]
