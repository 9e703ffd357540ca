import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout

import pytest

from perfbench.layers import instrument, layer_metrics
from perfbench.tracing import Span, Tracer, self_times, union_length


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(1.0, 4.0), (2.0, 7.0), (3.0, 5.0)]) == 6.0


def test_self_time_with_children_on_two_threads():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, 0, 1, 0),
        Span(1, "a", 1.0, 4.0, 0, 0, 2, 0),  # thread 2
        Span(2, "b", 2.0, 7.0, 0, 0, 3, 0),  # thread 3, overlaps a
        Span(3, "c", 8.0, 9.0, 0, 0, 1, 0),
        Span(4, "grandchild", 1.5, 3.5, 1, 0, 2, 0),
        Span(5, "late", 9.5, 12.0, 0, 0, 2, 0),  # runs past its parent's end
    ]
    leaves = {
        (3, "leaf", 1, False): [4, 0.25, 4],
        (3, "leaf_inside_leaf", 1, True): [4, 0.1, 4],
    }
    selfs = self_times(spans, leaves)
    # children cover [1, 7] + [8, 9] + [9.5, 10] of the parent's 10 s
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 2.0)
    assert selfs[2] == pytest.approx(5.0)
    assert selfs[3] == pytest.approx(1.0 - 0.25)
    assert selfs[4] == pytest.approx(2.0)


def test_pool_threads_inherit_the_op_span_and_leaves_nest():
    tracer = Tracer()
    leaf = tracer.leaf(lambda n: n, "leaf", work=lambda a, k: a[0])
    outer_leaf = tracer.leaf(lambda: leaf(3), "outer_leaf")
    inner = tracer.span(lambda: leaf(2), "inner")

    def body():
        outer_leaf()
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(inner) for _ in range(4)]:
                f.result()

    outer = tracer.span(body, "outer")
    outer()  # not traced: no op open
    assert tracer.spans == [] and tracer.leaves == {}
    tracer.begin_op(7)
    outer()
    tracer.end_op()

    (root,) = [s for s in tracer.spans if s.name == "outer"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 4
    assert {s.parent for s in inners} == {root.idx}
    assert {s.op for s in tracer.spans} == {7}
    assert root.thread == threading.get_ident()
    assert all(s.thread != root.thread for s in inners)
    by_name = {}
    for (parent, name, _tid, nested), (calls, _sec, work) in tracer.leaves.items():
        by_name.setdefault((name, nested), [0, 0])
        by_name[(name, nested)][0] += calls
        by_name[(name, nested)][1] += work
        assert parent is not None
    assert by_name[("leaf", False)] == [4, 8]
    assert by_name[("leaf", True)] == [1, 3]
    assert by_name[("outer_leaf", False)] == [1, 0]


def _bindings():
    import sys

    import permlearn.cli  # noqa: F401  (not imported by the package itself)

    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "permlearn" or name.startswith("permlearn.")):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


def test_instrument_wraps_captured_bindings_and_restore_puts_them_back():
    import permlearn.estimators as estimators
    import permlearn.harness as harness
    import permlearn.matching as matching
    from permlearn.analysis import transport

    before = _bindings()
    originals = (
        estimators.max_weight_matching,
        matching.linear_sum_assignment,
        harness._ESTIMATORS,
        transport.quad,
    )
    tracer = Tracer()
    instrument(tracer)
    try:
        assert estimators.max_weight_matching is not originals[0]
        assert estimators.max_weight_matching is matching.max_weight_matching
        assert matching.linear_sum_assignment is not originals[1]
        assert all(
            fn is getattr(estimators, name + "_from_summary")
            for name, fn in harness._ESTIMATORS
        )
        assert transport.quad is not originals[3]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_experiment_counts_k_plus_one_solves_per_mle_cell(tmp_path):
    from permlearn import cli

    tracer = Tracer()
    instrument(tracer)
    try:
        tracer.begin_op(0)
        with redirect_stdout(io.StringIO()):
            rc = cli.main([
                "experiment", "--family", "gaussian-grid", "--k", "3", "--trials", "2",
                "--n-grid", "5,10", "--threads", "2", "--out-dir", str(tmp_path),
            ])
        tracer.end_op()
    finally:
        tracer.restore()
    assert rc == 0
    m = layer_metrics(tracer, 0.0)
    mle_cells = 2 * 2
    assert m["estimators.cells"] == 3 * mle_cells
    assert m["matching.lsa_solves"] == (3 + 1) * mle_cells
    assert m["matching.solves_per_matching"] == 3 + 1
    assert m["estimators.summary.rows"] == 2 * (5 + 10)
    assert m["mixtures.log_scores.points"] == 2 * 10
    assert m["mixtures.sample_labeled.points"] == 2 * 10
    assert 0.0 < m["harness.busy_frac"] <= 1.0
    assert m["cli.self_s"] > 0.0
    names = {json.loads(line).get("name") for line in _jsonl(tracer, tmp_path)}
    assert {"cli.main", "harness.run_recovery_experiment", "estimators.mle"} <= names


def _jsonl(tracer, tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    return path.read_text().splitlines()
