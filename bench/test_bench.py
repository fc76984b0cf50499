"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import braidgate  # noqa: E402
from braidgate import enhancement, matrix_core, yang_baxter  # noqa: E402
from tracer import OP_SPAN, Tracer, self_times  # noqa: E402
from worker import (  # noqa: E402
    CAL_REF_MS, CAL_WINDOW, TRACED, layer_metrics, percentile, speed_factors,
)
from workloads import WORKLOADS  # noqa: E402


def _fingerprint(value):
    """A comparable form of an input: generators by their state, arrays by content."""
    if isinstance(value, dict):
        return {k: _fingerprint(v) for k, v in sorted(value.items())}
    if isinstance(value, np.random.Generator):
        return repr(value.bit_generator.state)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    first = [_fingerprint(w.make_input(3, i)) for i in range(2 * w.cycle)]
    again = [_fingerprint(w.make_input(3, i)) for i in range(2 * w.cycle)]
    other = [_fingerprint(w.make_input(4, i)) for i in range(2 * w.cycle)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_percentile_reports_sample_count():
    values = list(range(1, 101))
    value, n, beyond = percentile(values, 90)
    assert n == 100
    assert value == pytest.approx(90.1)
    assert beyond == 10
    assert percentile([5.0], 50) == (5.0, 1, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_of_nested_spans():
    # op [0, 100) holds a [10, 60), which holds b [20, 30) and c [35, 55);
    # d [70, 90) is a second child of the op
    start = [0, 10, 20, 35, 70]
    end = [100, 60, 30, 55, 90]
    parent = [-1, 0, 1, 1, 0]
    own = self_times(start, end, parent)
    assert own.tolist() == [30, 20, 10, 20, 20]
    assert own.sum() == end[0] - start[0]


def _bindings(original):
    return sorted(
        (mod, key)
        for mod, m in sys.modules.items()
        if mod == "braidgate" or mod.startswith("braidgate.")
        for key, value in vars(m).items()
        if value is original
    )


def test_wrappers_nest_and_restore_originals():
    tp = matrix_core.tensor_product
    fill = yang_baxter.CatalogEntry.__dict__["fill"]
    before = _bindings(tp)
    assert ("braidgate.enhancement", "tensor_product") in before
    tracer = Tracer(list(TRACED))
    with tracer:
        assert enhancement.tensor_product is not tp
        assert braidgate.tensor_product is not tp
        r = yang_baxter.assemble(yang_baxter.CATALOG["C1.0"].fill(
            {"h1": 1, "h4": 2, "h5": 3, "h8": 4}))
        tracer.run_op(0, yang_baxter.check_ybe, r)
    assert _bindings(tp) == before
    assert yang_baxter.CatalogEntry.__dict__["fill"] is fill
    names = [tracer.names[k] for k in tracer.span_name]
    # spans outside an op are recorded too, with op id -1
    assert names[:2] == ["yang_baxter.CatalogEntry.fill", "yang_baxter.assemble"]
    assert tracer.span_op[:2] == [-1, -1]
    op = names.index(OP_SPAN)
    ybe = names.index("yang_baxter.check_ybe")
    kron = [k for k, n in enumerate(names) if n == "matrix_core.tensor_product"]
    assert tracer.span_parent[ybe] == op
    assert len(kron) == 2 and all(tracer.span_parent[k] == ybe for k in kron)
    metrics = layer_metrics(tracer, 1, 0, 1)
    assert metrics["matrix_core.tensor_product.calls"] == 2
    assert metrics["yang_baxter.check_ybe.calls"] == 1


def test_speed_factors_use_the_kernel_times_nearest_each_op():
    # two ops before the second timing, one after; kernel 2 ms, then 4 ms
    cal_ms = [2.0] * CAL_WINDOW + [4.0] * CAL_WINDOW
    cal_after = [0] * (CAL_WINDOW - 1) + [2] + [2] * (CAL_WINDOW - 1) + [3]
    factors = speed_factors(3, cal_ms, cal_after)
    assert factors[:2] == [CAL_REF_MS / 2.0] * 2
    assert factors[2] == CAL_REF_MS / 4.0
