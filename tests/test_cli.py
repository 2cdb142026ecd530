"""Command-line interface: golden outputs and exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jordanable
from jordanable.cli import main


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.strip()


BIANCHI = [
    {"p": [-1, 1], "n": 1, "mult": 1},
    {"p": [1, 1], "n": 1, "mult": 1},
]


def entry(p, n, mult=1):
    return {"p": p, "n": n, "mult": mult}


# `lie der` and `lie aut` on decomposable algebras whose W = (X,1) blocks
# sit next to X chains, real blocks and rotation pairs, and on
# indecomposable and nilpotent ones; the pinned answers are
# golden_lie_<verb>.json, per epsilon
DER_ALGEBRAS = {
    "cubic-chain+W": [entry([-2, 0, 0, 1], 2), entry([0, 1], 1)],
    "x-chains+2W": [entry([0, 1], 2), entry([0, 1], 3), entry([0, 1], 1, 2)],
    "real-blocks+W": [entry([-1, 1], 1), entry([1, 1], 2), entry([0, 1], 1)],
    "rotation-pair+W": [entry([2, 2, 1], 1), entry([5, 2, 1], 1), entry([0, 1], 1)],
    "rotation-chain+x-chain+W": [
        entry([2, 2, 1], 2), entry([0, 1], 2), entry([0, 1], 1)
    ],
    "mixed+2W": [entry([0, 1], 2), entry([-1, 1], 1), entry([0, 1], 1, 2)],
    "bianchi": BIANCHI,
    "rotation-chain": [entry([2, 2, 1], 2), entry([-2, 1], 1)],
    "nilpotent-chain": [entry([0, 1], 3)],
    "nilpotent-chains": [entry([0, 1], 2, 2), entry([0, 1], 3)],
}
# the argv prefix of each verb pinned over DER_ALGEBRAS; `solve zjt` reads
# the same alephs as the `lie` verbs
LIE_VERBS = {
    "der": ["lie", "der"],
    "aut": ["lie", "aut"],
    "casimir": ["lie", "casimir"],
    "zjt": ["solve", "zjt"],
}
LIE_GOLDEN = {
    verb: json.loads(
        (Path(__file__).parent / f"golden_lie_{verb}.json").read_text(encoding="utf-8")
    )
    for verb in LIE_VERBS
}
# `lie centre`, `lie lcs --k 1..3`, `lie nilpotent` and `lie decompose`
# over DER_ALGEBRAS and algebras with a Heisenberg or Abelian core, long
# X chains and dilated pairs; the pinned answers are golden_lie_centre.json,
# keyed "<verb>:<algebra>/eps<epsilon>"
CENTRE_ALGEBRAS = {
    **DER_ALGEBRAS,
    "heisenberg": [entry([0, 1], 2)],
    "heisenberg+W": [entry([0, 1], 2), entry([0, 1], 1)],
    "abelian": [entry([0, 1], 1, 3)],
    "x-chain-4": [entry([0, 1], 4)],
    "x-chains-4-2-2+W": [entry([0, 1], 4), entry([0, 1], 2, 2), entry([0, 1], 1)],
    "real-chain": [entry([-1, 1], 3)],
    "rotation-pair": [entry([1, 0, 1], 1, 2)],
    "rotation-chain+x-chain": [entry([1, 0, 1], 2), entry([0, 1], 3)],
    "cubic+x-chain+W": [entry([-2, 0, 0, 1], 1), entry([0, 1], 2), entry([0, 1], 1)],
    "dilated+x-chain": [entry([-2, 1], 1), entry([-4, 1], 2), entry([0, 1], 3)],
}
CENTRE_VERBS = {
    "centre": ["lie", "centre"],
    "lcs1": ["lie", "lcs", "--k", "1"],
    "lcs2": ["lie", "lcs", "--k", "2"],
    "lcs3": ["lie", "lcs", "--k", "3"],
    "nilpotent": ["lie", "nilpotent"],
    "decompose": ["lie", "decompose"],
}
CENTRE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_lie_centre.json").read_text(encoding="utf-8")
)
# `solve xt-ltx` (lambda = -1 and 2, per epsilon) and `solve yt-ty-t` on
# matrices given in a conjugated basis; the pinned answers are
# golden_solve.json
SOLVE_MATRICES = {
    "conjugated-nilpotent": [["2/3", "-1/3", "2/3"], [2, -1, 1], ["-2/3", "1/3", "1/3"]],
    "nilpotent-chain+1": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    "quadratic+1": [[1, -2, 0], [1, -1, 0], [0, 0, 2]],
    "real-pair": [[1, 0], [0, -1]],
    "powers-of-2": [[1, 1, 0], [0, 2, 1], [0, 0, 4]],
}
SOLVE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_solve.json").read_text(encoding="utf-8")
)
# `classify` and `lie classify` (per epsilon) on pairs T1 ~ J(a),
# T2 ~ J(lam * a), each in its own integer basis, with repeated blocks and
# mixed degrees so that the dilated blocks of a change order; the pairs
# ("inputs") and the pinned answers are golden_classify.json
CLASSIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_classify.json").read_text(encoding="utf-8")
)
# `jordanize` (per epsilon) and `extract-mult` on seeded conjugated
# matrices (oracle.random_instance at dim <= 8), on rotation-splittable
# quadratics, on a hinted quartic and on a cubic at eps = 0; the matrices
# ("inputs") and the pinned answers are golden_jordanize.json, keyed
# "<verb>:<name>" plus "/eps<epsilon>" for jordanize
JORDANIZE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_jordanize.json").read_text(encoding="utf-8")
)


def term(p, n, beta, k, alpha, shift, value=1):
    return {"p": p, "n": n, "beta": beta, "k": k, "alpha": alpha, "shift": shift,
            "value": value}


# `invsub make` (per epsilon): name -> (aleph, spec); the pinned answers
# are golden_invsub.json
INVSUB_CASES = {
    "x-chains": (
        [entry("X", 3), entry("X", 1, 2)],
        {"beth": [entry("X", 2), entry("X", 1)],
         "mu": [term("X", 2, 0, 3, 0, 0), term("X", 2, 0, 1, 1, 1, 2),
                term("X", 1, 0, 1, 0, 0, -1)]},
    ),
    "eigen-mix": (
        [entry("X - 1", 2, 2), entry("X - 1", 1)],
        {"beth": [entry("X - 1", 2)],
         "mu": [term("X - 1", 2, 0, 2, 1, 0, -1), term("X - 1", 2, 0, 2, 0, 0, 2),
                term("X - 1", 2, 0, 1, 0, 1, 3)]},
    ),
    "rotation-chain": (
        [entry("X^2 + 1", 2), entry("X^2 + 1", 1)],
        {"beth": [entry("X^2 + 1", 1)],
         "mu": [term("X^2 + 1", 1, 0, 1, 0, 0), term("X^2 + 1", 1, 0, 2, 0, 0, "1/2"),
                term("X^2 + 1", 1, 0, 2, 0, 3, 5)]},
    ),
    "scaled-rotations": (
        [entry("X^2 + 4", 1, 2), entry("X", 1)],
        {"beth": [entry("X^2 + 4", 1, 2)],
         "mu": [term("X^2 + 4", 1, 0, 1, 0, 0), term("X^2 + 4", 1, 1, 1, 1, 0),
                term("X^2 + 4", 1, 1, 1, 0, 0, "1/2")]},
    ),
    "shifted-rotation": (
        [entry("X^2 - 2X + 2", 2), entry("X - 1", 1)],
        {"beth": [entry("X^2 - 2X + 2", 2)],
         "mu": [term("X^2 - 2X + 2", 2, 0, 2, 0, 0, -3)]},
    ),
    "cubic": (
        [entry("X^3 - 2", 2), entry("X^3 - 2", 1)],
        {"beth": [entry("X^3 - 2", 1)],
         "mu": [term("X^3 - 2", 1, 0, 1, 0, 0), term("X^3 - 2", 1, 0, 2, 0, 0, 2)]},
    ),
    "mixed": (
        [entry("X", 2), entry("X - 1", 1), entry("X^2 + 1", 1), entry("X^2 + 4", 2)],
        {"beth": [entry("X", 1), entry("X^2 + 1", 1), entry("X^2 + 4", 1)],
         "mu": [term("X", 1, 0, 2, 0, 0), term("X^2 + 1", 1, 0, 1, 0, 0, -1),
                term("X^2 + 4", 1, 0, 2, 0, 0, 2)]},
    ),
    "not-invariant": (
        [entry("X - 1", 1), entry("X - 1", 3)],
        {"beth": [entry("X - 1", 3)],
         "mu": [term("X - 1", 3, 0, 3, 0, 0), term("X - 1", 3, 0, 1, 0, 1, -2)]},
    ),
    "dependent": (
        [entry("X^2 + 1", 1)],
        {"beth": [entry("X^2 + 1", 1, 2)],
         "mu": [term("X^2 + 1", 1, 0, 1, 0, 0), term("X^2 + 1", 1, 1, 1, 0, 0, 3)]},
    ),
    "no-top": (
        [entry("X", 2)],
        {"beth": [entry("X", 2)], "mu": [term("X", 2, 0, 2, 0, 1)]},
    ),
}
INVSUB_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_invsub.json").read_text(encoding="utf-8")
)


class TestParser:
    def test_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            if kwargs.get("prog") == "jordanable":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        a = write(tmp_path, "a.json", BIANCHI)
        for _ in range(2):
            assert run(capsys, ["lie", "nilpotent", "--aleph", a]) == (
                0, '{"nilpotent":false}'
            )
        assert len(built) <= 1

    @pytest.mark.parametrize(
        "op", ["centre", "lcs --k 1", "nilpotent", "decompose", "aut", "der"]
    )
    def test_pretty_only_where_read(self, tmp_path, capsys, op):
        a = write(tmp_path, "a.json", BIANCHI)
        with pytest.raises(SystemExit) as info:
            main(["lie", *op.split(), "--aleph", a, "--pretty"])
        assert info.value.code == 2
        assert "unrecognized arguments: --pretty" in capsys.readouterr().err


class TestLieVerbs:
    def test_casimir_golden(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", BIANCHI)
        code, out = run(capsys, ["lie", "casimir", "--aleph", a])
        assert code == 0
        assert out == '{"dim":1,"basis":[[[0,1],[1,0]]]}'

    def test_casimir_pretty(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", BIANCHI)
        code, out = run(capsys, ["lie", "casimir", "--aleph", a, "--pretty"])
        assert code == 0
        assert out == "Q = 2*x1*x2"

    def test_centre(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", [{"p": [0, 1], "n": 2, "mult": 1}])
        code, out = run(capsys, ["lie", "centre", "--aleph", a])
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 1
        assert data["basis"][0]["vector"] == [0, 1, 0]

    def test_nilpotent_and_decompose(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", BIANCHI)
        assert run(capsys, ["lie", "nilpotent", "--aleph", a]) == (
            0,
            '{"nilpotent":false}',
        )
        code, out = run(capsys, ["lie", "decompose", "--aleph", a])
        assert code == 0
        assert json.loads(out)["w_dim"] == 0

    def test_lcs(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", [{"p": [0, 1], "n": 3, "mult": 1}])
        code, out = run(capsys, ["lie", "lcs", "--aleph", a, "--k", "2"])
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_aut_families(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", BIANCHI)
        code, out = run(capsys, ["lie", "aut", "--aleph", a])
        assert code == 0
        data = json.loads(out)
        assert data["dil"]["elements"] == ["-1", "1"]
        assert len(data["families"]) == 2

    def test_der_dim(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", BIANCHI)
        code, out = run(capsys, ["lie", "der", "--aleph", a])
        assert code == 0
        assert json.loads(out)["dim"] == 4

    @pytest.mark.parametrize("verb, case", [
        pytest.param(verb, case, id=case if verb == "der" else f"{verb}:{case}")
        for verb, golden in LIE_GOLDEN.items()
        for case in sorted(golden)
    ])
    def test_der_golden(self, tmp_path, capsys, verb, case):
        name, eps = case.split("/eps")
        a = write(tmp_path, "a.json", DER_ALGEBRAS[name])
        code, out = run(capsys, [*LIE_VERBS[verb], "--aleph", a, "--epsilon", eps])
        want = LIE_GOLDEN[verb][case]
        assert code == want["exit"]
        assert out == json.dumps(want["stdout"], separators=(",", ":"))

    @pytest.mark.parametrize("case", sorted(CENTRE_GOLDEN))
    def test_centre_golden(self, tmp_path, capsys, case):
        verb, rest = case.split(":")
        name, eps = rest.split("/eps")
        a = write(tmp_path, "a.json", CENTRE_ALGEBRAS[name])
        code, out = run(capsys, [*CENTRE_VERBS[verb], "--aleph", a, "--epsilon", eps])
        want = CENTRE_GOLDEN[case]
        assert code == want["exit"]
        assert out == json.dumps(want["stdout"], separators=(",", ":"))

    def test_centre_golden_covers_every_case(self):
        assert sorted(CENTRE_GOLDEN) == sorted(
            f"{verb}:{name}/eps{eps}"
            for verb in CENTRE_VERBS for name in CENTRE_ALGEBRAS for eps in (0, 1)
        )

    def test_heisenberg_exit_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", [{"p": [0, 1], "n": 2, "mult": 1}])
        code, out = run(capsys, ["lie", "der", "--aleph", a])
        assert code == 2
        data = json.loads(out)
        assert data["code"]
        assert "message" in data and "context" in data

    def test_classify(self, tmp_path, capsys):
        m1 = write(tmp_path, "m1.json", [[1, 0], [0, -1]])
        m2 = write(tmp_path, "m2.json", [[2, 0], [0, -2]])
        code, out = run(capsys, ["lie", "classify", m1, m2])
        assert code == 0
        data = json.loads(out)
        assert data["isomorphic"] is True
        assert data["lambda"] == "2"


class TestMatrixVerbs:
    @pytest.mark.parametrize("case", sorted(CLASSIFY_GOLDEN["answers"]))
    def test_classify_golden(self, tmp_path, capsys, case):
        verb, name, eps = case.split(":")
        m1, m2 = (write(tmp_path, f"m{i}.json", m)
                  for i, m in enumerate(CLASSIFY_GOLDEN["inputs"][name]))
        code, out = run(capsys, [*verb.split(), m1, m2, "--epsilon", eps[3:]])
        want = CLASSIFY_GOLDEN["answers"][case]
        assert code == want["exit"]
        assert out == json.dumps(want["stdout"], separators=(",", ":"))

    @pytest.mark.parametrize("case", sorted(JORDANIZE_GOLDEN["answers"]))
    def test_jordanize_golden(self, tmp_path, capsys, case):
        verb, rest = case.split(":")
        name, _, eps = rest.partition("/eps")
        given = JORDANIZE_GOLDEN["inputs"][name]
        argv = [verb, write(tmp_path, "m.json", given["matrix"])]
        if "hints" in given:
            argv += ["--hints", write(tmp_path, "h.json", given["hints"])]
        if eps:
            argv += ["--epsilon", eps]
        code, out = run(capsys, argv)
        want = JORDANIZE_GOLDEN["answers"][case]
        assert code == want["exit"]
        assert out == json.dumps(want["stdout"], separators=(",", ":"))

    def test_jordanize(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[0, 1], [1, 0]])
        code, out = run(capsys, ["jordanize", m])
        assert code == 0
        data = json.loads(out)
        assert data["J"] == [[1, 0], [0, -1]]
        assert data["display"] == "(1×(X - 1)^1, 1×(X + 1)^1)"

    def test_extract_mult(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[0, 1], [0, 0]])
        code, out = run(capsys, ["extract-mult", m])
        assert code == 0
        assert json.loads(out)["aleph"] == [{"p": [0, 1], "n": 2, "mult": 1}]

    def test_extract_needs_hint_exit_2(self, tmp_path, capsys):
        m = write(
            tmp_path,
            "m.json",
            [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        )
        code, out = run(capsys, ["extract-mult", m])
        assert code == 2
        assert json.loads(out)["code"]

    def test_extract_with_hint(self, tmp_path, capsys):
        m = write(
            tmp_path,
            "m.json",
            [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        )
        h = write(tmp_path, "h.json", [[1, 0, 0, 0, 1]])
        code, out = run(capsys, ["extract-mult", m, "--hints", h])
        assert code == 0
        assert json.loads(out)["aleph"] == [{"p": [1, 0, 0, 0, 1], "n": 1, "mult": 1}]

    def test_extract_wide_constant_under_a_second(self, tmp_path, capsys):
        c = 10**30 + 1
        m = write(tmp_path, "m.json", [[0, -c], [1, 0]])
        t0 = time.perf_counter()
        code, out = run(capsys, ["extract-mult", m])
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        assert json.loads(out)["aleph"] == [{"p": [c, 0, 1], "n": 1, "mult": 1}]

    def test_classify_non_isomorphic(self, tmp_path, capsys):
        m1 = write(tmp_path, "m1.json", [[1, 0], [0, -1]])
        m2 = write(tmp_path, "m2.json", [[1, 0], [0, 2]])
        assert run(capsys, ["classify", m1, m2]) == (0, '{"isomorphic":false}')

    def test_classify_verbs_agree(self, tmp_path, capsys):
        m1 = write(tmp_path, "m1.json", [[0, 1, 0], [1, 0, 0], [0, 0, 3]])
        m2 = write(tmp_path, "m2.json", [[-2, 0, 0], [1, 2, 0], [0, 4, -6]])
        top = run(capsys, ["classify", m1, m2])
        lie = run(capsys, ["lie", "classify", m1, m2])
        assert top[0] == 0
        assert json.loads(top[1])["isomorphic"] is True
        assert top == lie


class TestSolveVerbs:
    def test_xt_ltx(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[1, 0], [0, -1]])
        code, out = run(capsys, ["solve", "xt-ltx", m, "--lambda", "-1"])
        assert code == 0
        assert json.loads(out)["dim"] == 2

    def test_yt_ty_t_unsolvable(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[1, 0], [0, -1]])
        assert run(capsys, ["solve", "yt-ty-t", m]) == (0, '{"solvable":false}')

    def test_yt_ty_t_solvable(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[0, 1], [0, 0]])
        code, out = run(capsys, ["solve", "yt-ty-t", m])
        assert code == 0
        data = json.loads(out)
        assert data["solvable"] is True
        assert data["offset"] == [[1, 0], [0, 0]]

    def test_zjt(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", BIANCHI)
        code, out = run(capsys, ["solve", "zjt", "--aleph", a])
        assert code == 0
        assert json.loads(out)["dim"] == 2

    @pytest.mark.parametrize("case", sorted(SOLVE_GOLDEN))
    def test_golden(self, tmp_path, capsys, case):
        equation, name, *rest = case.split("/")
        argv = ["solve", equation, write(tmp_path, "m.json", SOLVE_MATRICES[name])]
        if rest:
            lam, eps = rest
            argv += ["--lambda", lam.removeprefix("lambda"), "--epsilon", eps[3:]]
        code, out = run(capsys, argv)
        want = SOLVE_GOLDEN[case]
        assert code == want["exit"]
        assert out == json.dumps(want["stdout"], separators=(",", ":"))

    def test_epsilon_misuse_exit_2(self, tmp_path, capsys):
        # X^2 - 2 has no rotation-scaling form
        a = write(tmp_path, "a.json", [{"p": [-2, 0, 1], "n": 1, "mult": 1}])
        code, out = run(capsys, ["solve", "zjt", "--aleph", a, "--epsilon", "0"])
        assert code == 2


class TestOracleVerbs:
    def test_solve_spec(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "spec.json",
            {"kind": "lambda-comm", "t": [[1, 0], [0, -1]], "lambda": -1},
        )
        code, out = run(capsys, ["oracle", "solve", spec])
        assert code == 0
        assert json.loads(out)["dim"] == 2

    @pytest.mark.parametrize("epsilon", [0.5, True, "1"])
    def test_non_integer_epsilon_exit_1(self, tmp_path, capsys, epsilon):
        spec = write(
            tmp_path,
            "spec.json",
            {"kind": "derivation", "aleph": BIANCHI, "epsilon": epsilon},
        )
        code, out = run(capsys, ["oracle", "solve", spec])
        assert code == 1
        assert json.loads(out)["code"] == "input-error"

    def test_random(self, capsys):
        code, out = run(capsys, ["oracle", "random", "--seed", "3"])
        assert code == 0
        data = json.loads(out)
        assert {"aleph", "J", "S", "T"} <= set(data)


class TestInvsubVerbs:
    def test_check_line(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[1, 0], [0, -1]])
        w = write(tmp_path, "w.json", {"basis": [[1, 0]]})
        code, out = run(capsys, ["invsub", "check", m, w])
        assert code == 0
        data = json.loads(out)
        assert data["invariant"] is True
        assert data["aleph"] == [{"p": [-1, 1], "n": 1, "mult": 1}]

    def test_check_not_invariant(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[0, 1], [0, 0]])
        w = write(tmp_path, "w.json", [[0, 1]])
        assert run(capsys, ["invsub", "check", m, w]) == (0, '{"invariant":false}')

    @staticmethod
    def make_spec(**mu_overrides):
        mu = {"p": [-1, 1], "n": 1, "beta": 0, "k": 1, "alpha": 0, "shift": 0,
              "value": 1}
        mu.update(mu_overrides)
        return {"beth": [{"p": [-1, 1], "n": 1, "mult": 1}], "mu": [mu]}

    def test_make(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", BIANCHI)
        spec = write(tmp_path, "spec.json", self.make_spec())
        code, out = run(capsys, ["invsub", "make", spec, "--aleph", a])
        assert code == 0
        assert json.loads(out)["basis"] == [[1, 0]]

    @pytest.mark.parametrize(
        "key, value",
        [("n", 1.5), ("beta", 0.0), ("k", True), ("alpha", "0"), ("shift", 0.5)],
    )
    def test_make_non_integer_key_exit_1(self, tmp_path, capsys, key, value):
        a = write(tmp_path, "a.json", BIANCHI)
        spec = write(tmp_path, "spec.json", self.make_spec(**{key: value}))
        code, out = run(capsys, ["invsub", "make", spec, "--aleph", a])
        assert code == 1
        assert json.loads(out)["code"] == "input-error"

    @pytest.mark.parametrize("case", sorted(INVSUB_GOLDEN))
    def test_make_golden(self, tmp_path, capsys, case):
        name, eps = case.split("/eps")
        a, spec = INVSUB_CASES[name]
        argv = ["invsub", "make", write(tmp_path, "spec.json", spec),
                "--aleph", write(tmp_path, "a.json", a), "--epsilon", eps]
        code, out = run(capsys, argv)
        want = INVSUB_GOLDEN[case]
        assert code == want["exit"]
        assert out == json.dumps(want["stdout"], separators=(",", ":"))

    @pytest.mark.parametrize("extra, named", [
        ({"n": 5, "beta": 7, "k": 2, "alpha": 0, "shift": 0},
         "mu term (X - 1, 5, 7, 2, 0, 0) targets chain (X - 1, 5, 7), "
         "which beth does not have"),
        ({"n": 1, "beta": 0, "k": 2, "alpha": 5, "shift": 3},
         "mu term (X - 1, 1, 0, 2, 5, 3) reads block (X - 1, 2, 5), "
         "which J does not have"),
    ], ids=["target-outside-beth", "source-outside-aleph"])
    def test_make_term_outside_exit_1(self, tmp_path, capsys, extra, named):
        # without the extra term the answer is {"basis":[[1,0]]}
        a = write(tmp_path, "a.json", [entry("X - 1", 2)])
        spec = write(tmp_path, "spec.json", {
            "beth": [entry("X - 1", 1)],
            "mu": [term("X - 1", 1, 0, 2, 0, 0), dict(extra, p="X - 1", value=1)],
        })
        code, out = run(capsys, ["invsub", "make", spec, "--aleph", a])
        assert (code, json.loads(out)) == (
            1, {"code": "input-error", "message": named, "context": {}}
        )

    def test_make_non_invariant_exit_1(self, tmp_path, capsys):
        # the k = 1 term sits at shift 1 < n - k = 2 in a chain of length 3,
        # so the generated span misses J e4 = e4 + e3 and is not J-invariant
        a = write(tmp_path, "a.json", [
            {"p": "X - 1", "n": 1, "mult": 2},
            {"p": "X - 1", "n": 3, "mult": 2},
            {"p": "X", "n": 1, "mult": 1},
        ])
        term = {"p": "X - 1", "n": 3, "beta": 0, "alpha": 0}
        spec = write(tmp_path, "spec.json", {
            "beth": [{"p": "X - 1", "n": 3, "mult": 1}],
            "mu": [dict(term, k=1, shift=1, value=-2), dict(term, k=3, shift=0, value=2)],
        })
        code, out = run(capsys, ["invsub", "make", spec, "--aleph", a])
        assert code == 1
        assert json.loads(out)["code"] == "input-error"


class TestErrorPaths:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exit_1_without_traceback(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(jordanable.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "jordanable.cli", "oracle", "random", "--seed", "7"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr

    def test_missing_file_exit_1(self, capsys):
        code, out = run(capsys, ["extract-mult", "/nonexistent/m.json"])
        assert code == 1
        assert json.loads(out)["code"] == "input-error"

    def test_bad_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run(capsys, ["extract-mult", str(path)])
        assert code == 1

    def test_bad_matrix_exit_1(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[1, 2], [3]])
        code, _out = run(capsys, ["extract-mult", m])
        assert code == 1

    def test_zero_denominator_exit_1(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[1, "1/0"], [0, 1]])
        code, out = run(capsys, ["jordanize", m])
        assert code == 1
        assert json.loads(out) == {
            "code": "input-error",
            "message": "zero denominator in '1/0'",
            "context": {},
        }

    def test_exponent_entry_exit_1_before_arithmetic(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [["1e100000", 1], [0, 1]])
        start = time.perf_counter()
        code, out = run(capsys, ["jordanize", m])
        assert time.perf_counter() - start < 5
        assert code == 1
        assert json.loads(out) == {
            "code": "input-error",
            "message": "not a rational: '1e100000'",
            "context": {},
        }

    def test_exponent_lambda_exit_1(self, tmp_path, capsys):
        spec = write(
            tmp_path, "spec.json",
            {"kind": "lambda-comm", "t": [[1, 0], [0, -1]], "lambda": "1e3"},
        )
        code, out = run(capsys, ["oracle", "solve", spec])
        assert code == 1
        assert json.loads(out) == {
            "code": "input-error", "message": "not a rational: '1e3'", "context": {}
        }

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"p": [1, 1], "n": 1.7, "mult": 1}, "not an integer: 1.7"),
            ({"p": [1, 1], "n": 1, "mult": True}, "not an integer: True"),
        ],
    )
    def test_non_integer_aleph_exit_1(self, tmp_path, capsys, entry, message):
        a = write(tmp_path, "a.json", [entry])
        code, out = run(capsys, ["lie", "centre", "--aleph", a])
        assert code == 1
        assert json.loads(out) == {"code": "input-error", "message": message, "context": {}}

    def test_zero_denominator_in_polynomial_exit_1(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [[0, 1], [1, 0]])
        h = write(tmp_path, "h.json", ["X^2 + 1/0"])
        code, out = run(capsys, ["extract-mult", m, "--hints", h])
        assert code == 1
        assert json.loads(out)["code"] == "input-error"

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (["oracle", "solve", "{f}"], [1, 2],
             "an equation spec must be a JSON object, got [1, 2]"),
            (["invsub", "make", "{f}", "--aleph", "{a}"], [1, 2],
             "an invariant-subspace spec must be a JSON object, got [1, 2]"),
            (["invsub", "make", "{f}", "--aleph", "{a}"],
             {"beth": BIANCHI[:1], "mu": [1]}, "a mu entry must be a JSON object, got 1"),
            (["invsub", "check", "{m}", "{f}"], {"basis": 5},
             "a subspace basis must be a JSON array, got 5"),
            (["invsub", "check", "{m}", "{f}"], [[1, 0], [0]],
             "subspace vectors must all have the same length"),
            (["invsub", "check", "{m}", "{f}"], [[1], [0, 1]],
             "subspace vectors must all have the same length"),
            # dependent and of the wrong length: the one reduction of
            # [W | t W] needs t W first, so the length is what gets reported
            (["invsub", "check", "{m}", "{f}"], [[1, 2, 3], [2, 4, 6]],
             "vector length mismatch"),
            (["jordanize", "{f}"], [[]], "matrix rows must be nonempty"),
            (["classify", "{f}", "{m}"], [[]], "matrix rows must be nonempty"),
            (["oracle", "solve", "{f}"], {"kind": "transpose-pair", "j": [[1], [2]]},
             "transpose-pair needs square matrices, got 2x1"),
            (["oracle", "solve", "{f}"],
             {"kind": "symmetric-transpose-pair", "j": [[1, 2]]},
             "symmetric-transpose-pair needs square matrices, got 1x2"),
            (["oracle", "solve", "{f}"],
             {"kind": "intertwine", "t1": [[1, 2]], "t2": [[1, 2]]},
             "intertwine needs square matrices, got 1x2"),
            (["oracle", "solve", "{f}"], {"kind": "inhom-comm", "t": [[1, 2]]},
             "inhom-comm needs square matrices, got 1x2"),
            (["invsub", "check", "{f}", "{w}"], [[1, 2]],
             "invariance check of non-square matrix"),
            (["invsub", "check", "{f}", "{w}"], [[1, 2, 3], [4, 5, 6]],
             "invariance check of non-square matrix"),
        ],
        ids=["oracle-spec-list", "make-spec-list", "make-mu-int", "check-basis-int",
             "check-ragged-short-last", "check-ragged-short-first",
             "check-dependent-wrong-length",
             "jordanize-empty-row", "classify-empty-row",
             "oracle-transpose-pair-2x1", "oracle-symmetric-transpose-pair-1x2",
             "oracle-intertwine-1x2", "oracle-inhom-comm-1x2",
             "check-1x2", "check-2x3"],
    )
    def test_wrong_shape_exit_1(self, tmp_path, capsys, argv, data, message):
        paths = {
            "f": write(tmp_path, "f.json", data),
            "a": write(tmp_path, "a.json", BIANCHI),
            "m": write(tmp_path, "m.json", [[1, 0], [0, -1]]),
            "w": write(tmp_path, "w.json", [[1, 2]]),
        }
        code, out = run(capsys, [arg.format(**paths) for arg in argv])
        assert code == 1
        assert json.loads(out) == {"code": "input-error", "message": message, "context": {}}

    def test_failed_verification_exit_3(self, tmp_path, capsys, monkeypatch):
        import jordanable.liealg

        monkeypatch.setattr(jordanable.liealg, "is_derivation", lambda l, d: False)
        a = write(tmp_path, "a.json", BIANCHI)
        code, out = run(capsys, ["lie", "der", "--aleph", a])
        assert code == 3
        data = json.loads(out)
        assert data["code"] == "verification-failed"
        assert data["context"] == {"check": "derivation", "index": 0}


# Malformed but parseable CLI input: mostly well-formed values, some
# with one bad part.  Every integer that becomes a size (n, mult, k,
# shift, an exponent) stays in [-2, 3] and every algebra has dimension
# at most 6, so each call runs in bounded time; entries and coefficients
# may also be 70-bit integers.
NUMS = st.one_of(
    st.integers(-2, 3),
    st.integers(2**69, 2**70) | st.integers(-(2**70), -(2**69)),
    st.sampled_from(["1/2", "-3/4", " 2 "]),
)
JUNK = st.sampled_from(
    ["a/0", "1/0", "x", "", "1.5", 0.5, 1.0, -2.5, True, False, None, [1], [[0]], {}]
)


def _mostly(good, bad):
    """good four times in five, else bad."""
    return st.integers(0, 4).flatmap(lambda k: good if k else bad)


LEAVES = _mostly(NUMS, JUNK)
SIZES = _mostly(st.integers(1, 3), st.integers(-2, 0) | JUNK)
POLYS = _mostly(
    st.sampled_from([[0, 1], [-1, 1], [1, 1], [1, 0, 1], [5, 2, 1], [-2, 0, 0, 1],
                     [-(2**70 + 1), 1], [2**70, 0, 1], [3, 1, 0, 1], "X", "X - 1",
                     "X^2 + 1", "X^3 - 2"]),
    st.sampled_from(["2*X + 1", "X^2 + 1/0", "X^", "Y", "", "X^-1", "X^3 + X^2"])
    | st.lists(LEAVES, max_size=4) | JUNK,
)


def _spoil(value, draw):
    """value, or value with one entry of its innermost lists made junk."""
    if not value or not draw(st.booleans()):
        return value
    i = draw(st.integers(0, len(value) - 1))
    inner = value[i]
    if isinstance(inner, list) and inner:
        j = draw(st.integers(0, len(inner) - 1))
        inner = inner[:j] + [draw(JUNK)] + inner[j + 1:]
    else:
        inner = draw(JUNK)
    return value[:i] + [inner] + value[i + 1:]


@st.composite
def alephs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    entries, dim = [], 0
    for _ in range(draw(st.integers(0, 3) if draw(st.booleans()) else st.just(1))):
        item = {"p": draw(POLYS), "n": draw(SIZES), "mult": draw(SIZES)}
        if draw(st.integers(0, 9)) == 0:
            del item[draw(st.sampled_from(sorted(item)))]
        p = item.get("p")
        size = max(len(p) - 1, 1) if isinstance(p, list) else 3
        for key in ("n", "mult"):
            v = item.get(key)
            size *= v if isinstance(v, int) and v > 0 else 1
        if dim + size <= 6:
            entries.append(item)
            dim += size
    return entries


@st.composite
def matrices(draw, rows=None):
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK | st.lists(st.lists(NUMS, max_size=3), max_size=3))
    n = draw(st.integers(1, 3))
    cols = draw(st.sampled_from([n, n, n, 1, 2, 3]))
    rows = n if rows is None else rows
    return _spoil(draw(st.lists(st.lists(NUMS, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows)), draw)


MU_ENTRIES = st.fixed_dictionaries({
    "p": POLYS, "n": SIZES, "beta": SIZES, "k": SIZES, "alpha": SIZES,
    "shift": SIZES, "value": LEAVES,
})
INVSUB_SPECS = st.fixed_dictionaries(
    {"beth": alephs()}, optional={"mu": st.lists(MU_ENTRIES, max_size=3) | JUNK}
) | JUNK


@st.composite
def equation_specs(draw):
    kind = draw(st.sampled_from([
        "intertwine", "lambda-comm", "inhom-comm", "transpose-pair",
        "symmetric-transpose-pair", "derivation", "other", 3,
    ]))
    fields = {
        "intertwine": ["t1", "t2"], "lambda-comm": ["t", "lambda"],
        "derivation": ["aleph", "epsilon"],
    }.get(kind, ["j"] if "transpose" in str(kind) else ["t"])
    spec = {"kind": kind}
    for key in fields:
        if draw(st.integers(0, 9)):
            spec[key] = draw({"lambda": LEAVES, "aleph": alephs(), "epsilon": SIZES}
                             .get(key, matrices()))
    return spec


LAMBDAS = st.sampled_from(["2", "-1", "1/2", "0", "1/0", "x", str(2**70 + 1)])
LIE_OPS = ["centre", "nilpotent", "decompose", "aut", "der", "casimir"]


@st.composite
def cli_calls(draw):
    """argv with each JSON input as a ("json", value) placeholder."""
    m, a = ("json", draw(matrices())), ("json", draw(alephs()))
    form = draw(st.sampled_from([
        "jordanize", "extract-mult", "classify", "xt-ltx", "yt-ty-t", "zjt",
        "lie", "lcs", "lie classify", "oracle", "invsub make", "invsub check",
    ]))
    epsilon = ["--epsilon", draw(st.sampled_from(["0", "1"]))]
    hints = (["--hints", ("json", draw(st.lists(POLYS, max_size=2) | JUNK))]
             if draw(st.integers(0, 3)) == 0 else [])
    if form in ("jordanize", "extract-mult"):
        argv = [form, m] + hints
        if form == "jordanize":
            argv += epsilon + (["--pretty"] if draw(st.booleans()) else [])
        return argv
    if form in ("classify", "lie classify"):
        return form.split() + [m, ("json", draw(matrices()))] + hints + epsilon
    if form == "xt-ltx":
        return ["solve", form, m, "--lambda", draw(LAMBDAS)] + hints + epsilon
    if form == "yt-ty-t":
        return ["solve", form, m] + hints
    if form == "zjt":
        return ["solve", form, "--aleph", a] + epsilon
    if form == "lie":
        op = draw(st.sampled_from(LIE_OPS))
        pretty = ["--pretty"] if op == "casimir" and draw(st.booleans()) else []
        return ["lie", op, "--aleph", a] + epsilon + pretty
    if form == "lcs":
        return ["lie", "lcs", "--aleph", a, "--k", str(draw(st.integers(-2, 3)))] + epsilon
    if form == "oracle":
        return ["oracle", "solve", ("json", draw(equation_specs() | JUNK))]
    if form == "invsub make":
        return ["invsub", "make", ("json", draw(INVSUB_SPECS)), "--aleph", a] + epsilon
    w = draw(matrices(rows=draw(st.integers(0, 3))))
    return ["invsub", "check", m, ("json", w)] + hints


@given(call=cli_calls())
@settings(max_examples=300, deadline=None)
def test_malformed_input_never_tracebacks(tmp_path_factory, call):
    """Every verb answers malformed JSON with exit 0-3, and a failure is
    one {code, message, context} object on stdout."""
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    argv = []
    for k, arg in enumerate(call):
        if isinstance(arg, tuple):
            arg = write(tmp, f"in{k}.json", arg[1])
        argv.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        data = json.loads(out.getvalue())
        assert set(data) == {"code", "message", "context"}
        assert isinstance(data["context"], dict)
