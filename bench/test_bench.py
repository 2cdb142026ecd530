"""Tests of the benchmark's own code: span arithmetic, wrapping, checker.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check as ck  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402

LIB = run.load_library()


def spans_of(rows):
    """Span arrays from (name id, parent, start, end, aux1, aux2) rows."""
    spans = {f: array("q") for f in tr.FIELDS}
    for name, parent, start, end, aux1, aux2 in rows:
        for f, v in zip(tr.FIELDS, (name, parent, 0, start, end, aux1, aux2)):
            spans[f].append(v)
    return spans


def test_self_time_subtracts_covered_child_time():
    # root [0,100]: A [10,40] holding A1 [15,25]; B [50,90] holding the
    # overlapping B1 [60,70] and B2 [65,80]; C starts inside root, ends after it
    start = [0, 10, 15, 50, 60, 65, 95]
    end = [100, 40, 25, 90, 70, 80, 120]
    parent = [-1, 0, 1, 0, 3, 3, 0]
    own = tr.self_times(start, end, parent)
    assert own == [100 - 30 - 40 - 5, 20, 10, 40 - 20, 10, 15, 25]


def test_layer_metrics_on_a_synthetic_tree():
    names = ["cli.main", "spectrum.minimal_polynomial", "field.row_reduce",
             "equations.contains", "liealg.derivation_space", "liealg.is_derivation"]
    spans = spans_of([
        (0, -1, 0, 1000, 0, 0),       # cli.main
        (1, 0, 100, 600, 0, 0),       # minimal_polynomial
        (2, 1, 150, 250, 12, 7),      # row_reduce inside it
        (2, 1, 300, 500, 30, 9),      # row_reduce inside it
        (2, 0, 700, 800, 6, 3),       # row_reduce directly under cli.main
        (3, -1, 2000, 2400, 0, 0),    # contains
        (2, 5, 2100, 2200, 4, 2),     # row_reduce inside contains
        (4, -1, 3000, 3600, 0, 0),    # derivation_space
        (5, 7, 3100, 3550, 0, 0),     # is_derivation inside it
    ])
    m = tr.layer_metrics(names, spans, n_ops=2, overhead_ratio=0.01)
    assert [k for k in m] == [k for k, _u in tr.PER_LAYER]
    assert m["field.row_reduce.calls"] == 2.0
    assert m["field.row_reduce.cells"] == (12 + 30 + 6 + 4) / 2
    assert m["field.row_reduce.max_bits"] == 9
    assert m["field.row_reduce.total_s"] == (100 + 200 + 100 + 100) / 1e9 / 2
    assert m["spectrum.minimal_polynomial.row_reduces"] == 2.0
    assert m["equations.contains.row_reduces_per_query"] == 1.0
    assert m["cli.self_s"] == (1000 - 500 - 100) / 1e9 / 2
    assert m["spectrum.self_s"] == (500 - 300) / 1e9 / 2
    assert m["liealg.check_share"] == pytest.approx(450 / 600)
    assert m["trace.overhead_ratio"] == 0.01


def test_install_and_remove_round_trip():
    field, jordan, equations = LIB.field, LIB.jordan, LIB.equations
    bindings = [(field, "row_reduce"), (jordan, "row_reduce"), (LIB, "row_reduce"),
                (LIB, "similarity_transform"), (LIB.cli, "similarity_transform"),
                (field.Matrix, "__mul__"), (field.Matrix, "apply"),
                (equations.SolutionSpace, "contains")]
    before = [vars(owner)[attr] for owner, attr in bindings]
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(bindings, before))
        m = field.Matrix.from_rows([[1, 2], [3, 4]])
        jordan.similarity_transform(m)
    finally:
        tracer.remove()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(bindings, before))
    assert tracer.originals_restored()
    recorded = {tracer.names[i] for i in tracer.spans["name"]}
    assert {"jordan.similarity_transform", "spectrum.minimal_polynomial",
            "field.row_reduce", "field.matmul"} <= recorded
    # every span closed, inside its parent
    s = tracer.spans
    for i, p in enumerate(s["parent"]):
        assert s["end"][i] >= s["start"][i]
        if p >= 0:
            assert s["start"][p] <= s["start"][i] and s["end"][i] <= s["end"][p]


def one_answer(op):
    return op.answer(op.run())


@pytest.mark.parametrize("name", ["jordanize", "crosscheck", "wide-coeff"])
def test_generator_is_deterministic(tmp_path, name):
    make, _fresh = gen.WORKLOADS[name]
    draws = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        rng = random.Random(f"{name}-7")
        ops = make(LIB, rng, tmp_path / d)
        files = sorted(p.read_text() for p in (tmp_path / d).iterdir())
        draws.append(([op.record for op in ops], files, rng.getstate()))
    assert draws[0] == draws[1]


def test_checker_rejects_a_flipped_entry_of_s(tmp_path):
    op = gen.jordanize_ops(LIB, random.Random("jordanize-1"), tmp_path)[0]
    code, out = one_answer(op)
    op.check((code, out))
    bad = json.loads(json.dumps(out))
    bad["S"][0][0] = str(Fraction(bad["S"][0][0]) + 1)
    with pytest.raises(ck.CheckFailed):
        op.check((code, bad))


def test_checker_rejects_a_wrong_aleph(tmp_path):
    op = gen.wide_ops(LIB, random.Random("wide-coeff-1"), tmp_path)[0]
    code, out = one_answer(op)
    op.check((code, out))
    bad = json.loads(json.dumps(out))
    bad["aleph"][0]["mult"] += 1
    with pytest.raises(ck.CheckFailed):
        op.check((code, bad))


def test_checker_rejects_a_space_missing_a_basis_element(tmp_path):
    op = gen.crosscheck_ops(LIB, random.Random("crosscheck-1"), tmp_path)[0]
    structured, brute, verdicts = one_answer(op)
    op.check((structured, brute, verdicts))
    offset, basis = structured
    assert basis
    with pytest.raises(ck.CheckFailed):
        op.check(((offset, basis[1:]), brute, verdicts[1:]))


def test_checker_rejects_a_derivation_basis_missing_an_element(tmp_path):
    op = gen.structure_ops(LIB, random.Random("structure-1"), tmp_path)[0]
    der_basis, *others = one_answer(op)
    op.check((der_basis, *others))
    with pytest.raises(ck.CheckFailed):
        op.check((der_basis[:-1], *others))


def test_benchmark_json_names_match_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tr.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_tail_uses_the_highest_percentile_with_ten_samples_above():
    lat = [float(i) for i in range(1, 101)]  # 100 samples
    assert run.tail(lat) == (90, 90.0)
    assert run.tail(lat[:60]) == (80, 48.0)
