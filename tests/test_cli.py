import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import seeded_curve

from picforms import cli, serialize
from picforms.cli import (EXIT_BUDGET, EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, MAX_EXT, main,
                          run_command)
from picforms.equivalence import KIND_BOTH, KIND_EQUAL
from picforms.fields import GF, QQ, adjoin_sqrt
from picforms.ortho import scale_matrix
from picforms.sampling import random_proper_word, random_triple
from picforms.triples import act, make_triple


CURVE_Q = {"field": {"p": None, "m": 1}, "coeffs": ["-1", "0", "0", "0", "1"]}
CURVE_F5B = {"field": {"p": 5, "m": 1}, "coeffs": [[2], [0], [4], [0], [1]]}
TRIPLE_A = {"u": ["1", "0", "0"], "v": ["1", "0", "0"], "w": ["0", "0", "1"]}
TRIPLE_B = {"u": ["-1", "0", "1"], "v": ["-1", "0", "-1"], "w": ["0", "0", "0"]}


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def test_curve_validate(files):
    code, payload = run_command(["curve-validate", "--curve", files("c.json", CURVE_Q)])
    assert code == 0
    assert payload["valid"] and payload["genus"] == 1
    assert payload["infinity"]["sqrt_status"] == "square-in-base"


def test_curve_validate_reports_invalid(files):
    bad = {"field": {"p": None, "m": 1}, "coeffs": ["1", "-2", "1"]}
    code, payload = run_command(["curve-validate", "--curve", files("c.json", bad)])
    assert code == 0
    assert payload["valid"] is False
    assert payload["reason"] == "WrongDegreeParity"


def test_triple_validate(files):
    code, payload = run_command([
        "triple-validate",
        "--curve", files("c.json", CURVE_Q),
        "--t1", files("t.json", TRIPLE_A),
    ])
    assert code == 0 and payload == {"valid": True}


def test_triple_validate_invalid(files):
    bad = {"u": ["1", "0", "0"], "v": ["1", "0", "0"], "w": ["0", "0", "2"]}
    code, payload = run_command([
        "triple-validate",
        "--curve", files("c.json", CURVE_Q),
        "--t1", files("t.json", bad),
    ])
    assert code == 0
    assert payload["valid"] is False and payload["reason"] == "NotOnCurve"


def test_triple_canonical(files):
    noncanon = {"u": ["-2", "0", "0"], "v": ["-1", "0", "-1"], "w": ["1", "0", "1"]}
    code, payload = run_command([
        "triple-canonical",
        "--curve", files("c.json", CURVE_Q),
        "--t1", files("t.json", noncanon),
    ])
    assert code == 0
    assert payload["triple"]["u"] == ["1", "0", "0"]
    assert payload["triple"]["w"] == ["0", "0", "1"]
    assert payload["divisor"]["infinity_multiplicity"] == 2
    assert payload["divisor"]["infinity_sign"] == "+"


def test_triple_support(files):
    t = {"u": ["-1", "0", "1"], "v": ["-1", "0", "-1"], "w": ["0", "0", "0"]}
    curve5 = {"field": {"p": 5, "m": 1}, "coeffs": [[4], [0], [0], [0], [1]]}
    code, payload = run_command([
        "triple-support", "--ext", "1",
        "--curve", files("c.json", curve5),
        "--t1", files("t.json", t),
    ])
    assert code == 0
    assert payload["complete"] is True
    assert [pt["x"] for pt in payload["affine"]] == [[1], [4]]


def test_group_act_and_witness_loop(files):
    code, payload = run_command([
        "class-relation",
        "--curve", files("c.json", CURVE_Q),
        "--t1", files("t1.json", TRIPLE_A),
        "--t2", files("t2.json", TRIPLE_B),
    ])
    assert code == 0
    assert payload["kind"] == "equal-and-self-conjugate"
    # feed the witness back through group-act
    code2, payload2 = run_command([
        "group-act",
        "--curve", files("c.json", CURVE_Q),
        "--t1", files("t1.json", TRIPLE_A),
        "--matrix", files("m.json", payload["witness"]),
    ])
    assert code2 == 0
    assert payload2["classification"] == "proper"
    assert payload2["triple"]["u"] == TRIPLE_B["u"]
    assert payload2["triple"]["v"] == TRIPLE_B["v"]
    assert payload2["triple"]["w"] == TRIPLE_B["w"]


def test_group_act_rejects_non_orthogonal(files):
    bad_matrix = [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]
    code, payload = run_command([
        "group-act",
        "--curve", files("c.json", CURVE_Q),
        "--t1", files("t.json", TRIPLE_A),
        "--matrix", files("m.json", bad_matrix),
    ])
    assert code == EXIT_DOMAIN
    assert payload["error"]["kind"] == "NotOrthogonal"


def test_group_enumerate(files):
    code, payload = run_command(["group-enumerate", "--p", "5"])
    assert code == 0 and payload["order"] == 120
    code3, payload3 = run_command(["group-enumerate", "--p", "3", "--full"])
    assert code3 == 0 and len(payload3["elements"]) == 24
    for entries in payload3["elements"]:
        m = serialize.matrix_from_json(entries, default_field=GF(3))
        assert m.proper


def test_form_commands(files):
    code, payload = run_command([
        "form-gram",
        "--curve", files("c.json", CURVE_F5B),
        "--t1", files("t.json", {"u": [[1], [0], [1]], "v": [[3], [0], [4]],
                                 "w": [[0], [1], [0]]}),
    ])
    assert code == 0
    assert payload["entries"] == [[[2], [0], [4]], [[0], [1], [0]], [[4], [0], [1]]]
    fpath = files("form.json", payload)
    code2, payload2 = run_command(["form-rank", "--form", fpath])
    assert code2 == 0 and payload2["rank"] == 3 and payload2["radical_basis"] == []
    code3, payload3 = run_command([
        "form-decompose",
        "--curve", files("c.json", CURVE_F5B),
        "--form", fpath,
    ])
    assert code3 == 0
    curve = serialize.curve_from_json(CURVE_F5B)
    t = serialize.triple_from_json(curve, payload3["triple"])
    from picforms.quadform import gram
    assert serialize.gram_to_json(gram(t))["entries"] == payload["entries"]


def test_form_decompose_budget_exhausted(files):
    # the budget is used as given: 1 runs out, and below 1 is an input error
    curve = {"field": {"p": 5, "m": 1}, "coeffs": [[1], [0], [0], [0], [2]]}
    form = {"entries": [[[1], [0], [0]], [[0], [0], [0]], [[0], [0], [2]]],
            "field": {"p": 5, "m": 1}}
    for budget, want, kind in (("1", EXIT_BUDGET, "BudgetExhausted"),
                               ("0", EXIT_INPUT, "InputError"),
                               ("-3", EXIT_INPUT, "InputError")):
        code, payload = run_command([
            "form-decompose", "--budget", budget,
            "--curve", files("c.json", curve),
            "--form", files("f.json", form),
        ])
        assert code == want, budget
        assert payload["error"]["kind"] == kind


def test_form_decompose_rejects_a_hint_of_the_wrong_length(files):
    # on Y^2 = X^4 - 1: the rank-3 form of (X - 1, -2X^2 - X - 1, X^2 - X),
    # whose isotropic hint must have its three entries, and the rank-2 form
    # diag(-1, 0, 1), which needs no hint but still reads its length
    for entries in ([["-1", "0", "-1"], ["0", "2", "0"], ["-1", "0", "1"]],
                    [["-1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]):
        form = {"entries": entries, "field": {"p": None, "m": 1}}
        argv = ["form-decompose", "--curve", files("c.json", CURVE_Q),
                "--form", files("f.json", form)]
        code, _ = run_command(argv + ["--hint", files("h.json", ["1", "1", "1"])])
        assert code == EXIT_OK
        for hint in (["1", "1", "1", "0"], ["1", "1"], ["1"] * 5):
            code, payload = run_command(argv + ["--hint", files("h.json", hint)])
            assert code == EXIT_DOMAIN, hint
            assert payload["error"]["kind"] == "LengthMismatch"


def test_class_relation_oracle(files):
    # --oracle adds the exhaustive verdict: the decision's own on a proper
    # pair over GF(5), and FieldTooLarge above 13 elements
    for p, seed in ((5, 3), (17, 4)):
        field = GF(p)
        curve = seeded_curve(field, 1, seed)
        rng = random.Random(seed)
        t1 = random_triple(curve, field, rng)
        t2 = act(random_proper_word(field, rng), t1)
        code, payload = run_command([
            "class-relation", "--oracle", "--ext", "1",
            "--curve", files("c.json", serialize.curve_to_json(curve)),
            "--t1", files("t1.json", serialize.triple_to_json(t1)),
            "--t2", files("t2.json", serialize.triple_to_json(t2))])
        if p == 5:
            assert code == EXIT_OK
            assert payload["oracle"] == payload["kind"] in (KIND_EQUAL, KIND_BOTH)
        else:
            assert code == EXIT_DOMAIN
            assert payload["error"]["kind"] == "FieldTooLarge"


def test_galois_rational(files):
    curve5 = CURVE_F5B
    t = {"u": [[1], [0], [1]], "v": [[3], [0], [4]], "w": [[0], [1], [0]]}
    for mode in ("class", "mod-conj"):
        code, payload = run_command([
            "galois-rational", "--mode", mode,
            "--curve", files("c.json", curve5),
            "--t1", files("t.json", t),
        ])
        assert code == 0
        assert payload["mode"] == mode
        assert payload["rational"] is True  # base-field entries are fixed


def test_galois_rational_qq_syntactic(files):
    code, payload = run_command([
        "galois-rational",
        "--curve", files("c.json", CURVE_Q),
        "--t1", files("t.json", TRIPLE_A),
    ])
    assert code == 0
    assert payload["rational"] is True and payload["syntactic"] is True


def _qq_sqrt2_cases():
    """(curve document, triple over QQ(sqrt 2), class verdict, mod-conj verdict)."""
    K, root = adjoin_sqrt(QQ, QQ.elem(2))
    curve_q = serialize.curve_from_json(CURVE_Q)
    # (1, 1, X^2) moved by diag(sqrt 2, 1/sqrt 2, 1): irrational entries, but
    # the Gram matrix is invariant and stays rational
    moved = act(scale_matrix(root), serialize.triple_from_json(curve_q, TRIPLE_A))
    # F = (X^2 - 1)(X^2 - 2) = -U V with U = (X - 1)(X - sqrt 2) and
    # V = -(X + 1)(X + sqrt 2): the Gram entry S_11 = -(1 + sqrt 2)^2 is irrational
    split_doc = {"field": {"p": None, "m": 1}, "coeffs": ["2", "0", "-3", "0", "1"]}
    b = root + 1
    split = make_triple(serialize.curve_from_json(split_doc), (root, -b, K.one()),
                        (-root, -b, -K.one()), (K.zero(),) * 3, field=K)
    return [(CURVE_Q, moved, False, True), (split_doc, split, False, False)]


@pytest.mark.parametrize("mode", ["class", "mod-conj"])
def test_galois_rational_over_rational_extension(files, mode):
    # the syntactic verdict over QQ(sqrt 2) reads the coordinates after the
    # first: of the forms for "class", of the Gram matrix for "mod-conj"
    for k, (curve, t, in_class, in_gram) in enumerate(_qq_sqrt2_cases()):
        code, payload = run_command([
            "galois-rational", "--mode", mode,
            "--curve", files("c%d.json" % k, curve),
            "--t1", files("t%d.json" % k, serialize.triple_to_json(t)),
        ])
        assert code == 0
        assert payload == {"mode": mode, "rational": in_class if mode == "class" else in_gram,
                           "syntactic": True, "ambient": serialize.field_to_json(t.field)}
    code, payload = run_command(["galois-rational", "--mode", mode,
                                 "--curve", files("q.json", CURVE_Q),
                                 "--t1", files("a.json", TRIPLE_A)])
    assert code == 0 and payload["rational"] is True


# group-enumerate's --m around the cap, in a fresh process with a timeout,
# so that a degree with no cap fails the test instead of hanging the suite
@pytest.mark.parametrize("p,m,code,kind", [
    (5, 200, EXIT_INPUT, "InputError"),
    (5, serialize.MAX_FIELD_DEGREE + 1, EXIT_INPUT, "InputError"),
    (5, serialize.MAX_FIELD_DEGREE, EXIT_DOMAIN, "FieldTooLarge"),
    (2 ** 61 - 1, serialize.MAX_FIELD_DEGREE, EXIT_DOMAIN, "FieldTooLarge"),
])
def test_group_enumerate_caps_the_degree(p, m, code, kind):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "picforms.cli", "group-enumerate", "--p", str(p), "--m", str(m)],
        capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < _EXT_SECONDS
    assert done.returncode == code
    error = json.loads(done.stdout)["error"]
    assert error["kind"] == kind
    if kind == "InputError":
        assert "at most %d" % serialize.MAX_FIELD_DEGREE in error["detail"]


def test_search_caveat(files):
    curve = files("c.json", CURVE_F5B)
    for ext in (2, 4):
        code, payload = run_command([
            "search-caveat", "--budget", "150", "--seed", "1", "--curve", curve,
            "--ext", str(ext)])
        assert code == 0
        assert payload["found"] is True
        assert payload["searched"] <= 150
        # the stored triple re-validates on its curve over the ambient field,
        # and triple-validate reads it back
        t = serialize.triple_from_json(serialize.curve_from_json(CURVE_F5B), payload["triple"])
        assert t.field == GF(5, ext)
        code, _ = run_command(["triple-validate", "--curve", curve,
                               "--t1", files("t.json", payload["triple"])])
        assert code == 0


def test_search_caveat_ends_in_exit_3_when_the_sampler_runs_out(files, capsys):
    # Y^2 = 2X^4 + X^3 + 2X over GF(3) carries no triple, so the sampler
    # gives up: a JSON error document and exit 3, not a traceback
    curve = files("c.json", {"field": {"p": 3, "m": 1}, "coeffs": [[0], [2], [0], [1], [2]]})
    assert main(["search-caveat", "--curve", curve, "--ext", "1", "--budget", "5"]) == EXIT_BUDGET
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "SearchExhausted" and "too few points" in error["detail"]


def test_search_caveat_over_qq_is_an_input_error(files):
    code, payload = run_command(["search-caveat", "--curve", files("c.json", CURVE_Q)])
    assert code == EXIT_INPUT
    assert payload["error"]["kind"] == "InputError"


def test_document_read_from_stdin(files, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CURVE_Q)))
    assert main(["triple-validate", "--curve", "-", "--t1", files("t.json", TRIPLE_A)]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True}


def test_exit_input_error(files):
    code, payload = run_command(["curve-validate", "--curve", "/nonexistent.json"])
    assert code == EXIT_INPUT
    assert payload["error"]["kind"] == "InputError"


def test_main_byte_stable(files, tmp_path, capsys):
    args = [
        "class-relation",
        "--curve", files("c.json", CURVE_Q),
        "--t1", files("t1.json", TRIPLE_A),
        "--t2", files("t2.json", TRIPLE_B),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text() == first


def test_main_bad_args(capsys):
    for argv in (["no-such-command"], ["group-enumerate", "--p", "1.5"], []):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["kind"] == "InputError"
        assert "usage:" in captured.err
        assert run_command(argv)[0] == EXIT_INPUT
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert main(["class-relation", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_search_caveat_rejects_empty_budget(files, budget):
    code, payload = run_command([
        "search-caveat", "--budget", budget, "--seed", "1",
        "--curve", files("c.json", CURVE_F5B),
    ])
    assert code == EXIT_INPUT
    assert payload["error"]["kind"] == "InputError"


def test_curve_validate_large_prime(files):
    # 2^61 - 1 is prime; square roots and moduli are polylog in the field size
    p = 2 ** 61 - 1
    curve = {"field": {"p": p, "m": 1}, "coeffs": [[p - 1], [0], [0], [0], [1]]}
    start = time.perf_counter()
    code, payload = run_command(["curve-validate", "--curve", files("c.json", curve)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["valid"] is True


def test_curve_over_unprovable_prime_is_an_input_error(files):
    # a strong pseudoprime to every base of the primality test
    p = 3317044064679887385961981
    curve = {"field": {"p": p, "m": 1}, "coeffs": [[p - 1], [0], [0], [0], [1]]}
    code, payload = run_command(["curve-validate", "--curve", files("c.json", curve)])
    assert code == EXIT_INPUT
    assert payload["error"]["kind"] == "InputError"
    assert "below %d" % p in payload["error"]["detail"]


def test_parser_built_once():
    assert cli._parser() is cli._parser()


def test_rejects_non_integer_scalars(files):
    curve5 = {"field": {"p": 5, "m": 1}, "coeffs": [[4], [0], [0], [0], [1]]}
    one = {"u": [[1], [0], [0]], "v": [[1], [0], [0]], "w": [[0], [0], [1]]}
    cases = [
        (curve5, dict(one, u=[[1.9], [0], [0]])),  # int() would truncate to 1
        (curve5, dict(one, u=[[True], [0], [0]])),
        (CURVE_Q, dict(TRIPLE_A, u=[1.0, "0", "0"])),
        (CURVE_Q, dict(TRIPLE_A, u=["1/0", "0", "0"])),
    ]
    for curve, triple in cases:
        code, payload = run_command([
            "triple-validate",
            "--curve", files("c.json", curve),
            "--t1", files("t.json", triple),
        ])
        assert code == EXIT_INPUT
        assert payload["error"]["kind"] == "InputError"


def test_rejects_zero_denominator_in_modulus(files):
    form = {"entries": [["1", "0"], ["0", "1"]],
            "field": {"p": None, "m": 2, "modulus": ["1/0", "0", "1"]}}
    code, payload = run_command(["form-rank", "--form", files("f.json", form)])
    assert code == EXIT_INPUT
    assert payload["error"]["kind"] == "InputError"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["curve-validate", "--curve", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["kind"] == "InputError"
    assert "Traceback" not in captured.err


# -- seeded mini-fuzz ----------------------------------------------------------

_F5_TRIPLE = {"u": [[1], [0], [1]], "v": [[3], [0], [4]], "w": [[0], [1], [0]]}
_F25 = {"p": 5, "m": 2, "modulus": [2, 4, 1]}
_F25_TRIPLE = {"u": [[1, 0], [0, 0], [1, 0]], "v": [[3, 0], [0, 0], [4, 0]],
               "w": [[0, 0], [1, 0], [0, 0]], "field": _F25}
_F5_FORM = {"entries": [[[2], [0], [4]], [[0], [1], [0]], [[4], [0], [1]]],
            "field": {"p": 5, "m": 1}}
_QQ_RANK3_FORM = {"entries": [["0", "1/2", "-1/2"], ["1/2", "1", "-1/2"],
                              ["-1/2", "-1/2", "1"]],
                  "field": {"p": None, "m": 1}}
_QQ_EXT_FORM = {"entries": [["1", "0"], ["0", "1"]],
                "field": {"p": None, "m": 2, "modulus": ["2", "0", "1"]}}
_QQ_SWAP = {"entries": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]],
            "field": {"p": None, "m": 1}}

# (subcommand, extra argv, {option: valid document})
_FUZZ_CASES = [
    ("curve-validate", [], {"curve": CURVE_F5B}),
    ("triple-validate", [], {"curve": CURVE_Q, "t1": TRIPLE_A}),
    ("triple-canonical", [], {"curve": CURVE_F5B, "t1": _F5_TRIPLE}),
    ("triple-support", ["--ext", "1"], {"curve": CURVE_F5B, "t1": _F5_TRIPLE}),
    ("group-act", [], {"curve": CURVE_Q, "t1": TRIPLE_A, "matrix": _QQ_SWAP}),
    ("group-enumerate", ["--p", "3"], {}),
    ("class-relation", [], {"curve": CURVE_Q, "t1": TRIPLE_A, "t2": TRIPLE_B}),
    ("class-relation", [], {"curve": CURVE_F5B, "t1": _F25_TRIPLE, "t2": _F5_TRIPLE}),
    ("form-gram", [], {"curve": CURVE_F5B, "t1": _F25_TRIPLE}),
    ("form-rank", [], {"form": _QQ_EXT_FORM}),
    ("form-decompose", [], {"curve": CURVE_F5B, "form": _F5_FORM}),
    ("form-decompose", [], {"curve": CURVE_Q, "form": _QQ_RANK3_FORM,
                            "hint": ["1", "1", "1"]}),
    ("galois-rational", ["--mode", "mod-conj"], {"curve": CURVE_F5B, "t1": _F25_TRIPLE}),
    ("search-caveat", ["--budget", "20", "--seed", "1"], {"curve": CURVE_F5B}),
]

# argv variants for the one subcommand that reads no document; --m above
# serialize.MAX_FIELD_DEGREE is an input error before the field is built
# (at p = 5, --m 200 would otherwise start a default-modulus walk that never ends)
_ENUMERATE_ARGS = [["--p", p] for p in ("0", "-5", "2", "4", "17")] + [
    ["--p", "3", "--m", m] for m in ("0", "-1", "3")] + [
    ["--p", "5", "--m", str(m)]
    for m in (serialize.MAX_FIELD_DEGREE, serialize.MAX_FIELD_DEGREE + 1, 200)]

# command lines that argparse itself rejects
_ARGV_ERRORS = [
    ["group-enumerate", "--p", "1.5"],
    ["group-enumerate", "--p", "3", "--m", "x"],
    ["no-such-command"],
    [],
    ["class-relation", "--bogus"],
    ["galois-rational", "--mode", "nope"],
    ["search-caveat", "--budget"],
]

# --ext around its cap on every subcommand that reads it: a value in range
# must answer quickly, one outside it is an input error before any field is
# built (--ext 200 on a GF(5) curve would otherwise build a degree-200 extension)
_EXT_COMMANDS = ("triple-support", "class-relation", "search-caveat")
_EXT_VALUES = ("0", "-2", str(MAX_EXT), str(MAX_EXT + 1), "200", "1000")
_EXT_SECONDS = 10.0

# the field degree of the curve document around its cap: a field of degree
# above serialize.MAX_FIELD_DEGREE is an input error before it is built
# ({"p": 5, "m": 200} would otherwise start a default-modulus walk that never ends)
_DEGREE_VALUES = (serialize.MAX_FIELD_DEGREE, serialize.MAX_FIELD_DEGREE + 1, 200)

_DEEP = "@@deep@@"


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _replaced(doc, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {k: _replaced(v, rest, new) if k == head else v for k, v in doc.items()}
    return [_replaced(v, rest, new) if i == head else v for i, v in enumerate(doc)]


def _mutations(doc):
    """Every (path, mutated node) pair: bad scalars, the wrong container,
    a missing or extra key, an empty array and deep nesting."""
    for path, node in _nodes(doc):
        for new in (1.5, True, "1/0", [], _DEEP):
            yield path, new
        if isinstance(node, dict):
            yield path, list(node.values())
            yield path, dict(node, extra=0)
            for key in node:
                yield path, {k: v for k, v in node.items() if k != key}
        elif isinstance(node, list):
            yield path, {str(i): v for i, v in enumerate(node)}
        else:
            yield path, {"value": node}


def _fuzz_inputs(rng, per_case):
    for command, extra, docs in _FUZZ_CASES:
        yield [command] + extra, docs
        if command in _EXT_COMMANDS:
            for ext in _EXT_VALUES:
                yield [command] + extra + ["--ext", ext], docs
        if "curve" in docs:
            for m in _DEGREE_VALUES:
                yield [command] + extra, dict(docs, curve=dict(docs["curve"],
                                                               field={"p": 5, "m": m}))
        choices = [(option, path, new) for option, doc in docs.items()
                   for path, new in _mutations(doc)]
        for option, path, new in rng.sample(choices, min(per_case, len(choices))):
            yield [command] + extra, dict(docs, **{option: _replaced(docs[option], path, new)})
    for args in _ENUMERATE_ARGS:
        yield ["group-enumerate"] + args, {}
    for argv in _ARGV_ERRORS:
        yield argv, {}


def _curve_degree(docs):
    """The field degree m the curve document declares, if it is an int."""
    curve = docs.get("curve")
    field = curve.get("field") if isinstance(curve, dict) else None
    m = field.get("m") if isinstance(field, dict) else None
    return m if type(m) is int else None


def test_cli_fuzz_ends_in_documented_exit_codes(tmp_path, capsys):
    rng = random.Random(20261018)
    deep = "[" * 100000 + "]" * 100000
    for n, (argv, docs) in enumerate(_fuzz_inputs(rng, 100)):
        for option, doc in docs.items():
            path = tmp_path / ("%d-%s.json" % (n, option))
            path.write_text(json.dumps(doc).replace(json.dumps(_DEEP), deep))
            argv = argv + ["--" + option, str(path)]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        payload = json.loads(captured.out)
        assert "Traceback" not in captured.err, argv
        if code == 0:
            # every field descriptor emitted is one a document may declare
            for _, node in _nodes(payload):
                if isinstance(node, dict) and {"p", "m"} <= node.keys() <= {"p", "m", "modulus"}:
                    serialize.field_from_json(node)
        if "--ext" in argv and argv[0] in _EXT_COMMANDS:
            # the last --ext given is the one argparse keeps
            ext = int(argv[len(argv) - 1 - argv[::-1].index("--ext") + 1])
            assert elapsed < _EXT_SECONDS, argv
            if not 1 <= ext <= MAX_EXT:
                assert code == EXIT_INPUT and payload["error"]["kind"] == "InputError", argv
        m = _curve_degree(docs)
        if argv[1:] in _ENUMERATE_ARGS and "--m" in argv:
            m = int(argv[argv.index("--m") + 1])
        if m is not None and m > serialize.MAX_FIELD_DEGREE:
            assert elapsed < _EXT_SECONDS, (argv, m)
            assert code == EXIT_INPUT and payload["error"]["kind"] == "InputError", (argv, m)
        if argv in _ARGV_ERRORS:
            assert code == EXIT_INPUT and payload["error"]["kind"] == "InputError", argv
            assert "usage:" in captured.err, argv


@pytest.mark.parametrize("command,docs,key", [
    ("triple-support", {"t1": _F25_TRIPLE}, "field"),
    ("class-relation", {"t1": _F25_TRIPLE, "t2": _F5_TRIPLE}, "search_domain"),
])
def test_ext_caps_the_absolute_degree(files, command, docs, key):
    # over GF(5^2), --ext 4 builds GF(5^8), which a document may declare,
    # and --ext 5 would build GF(5^10), which it may not
    argv = [command, "--curve", files("c.json", CURVE_F5B)]
    for option, doc in docs.items():
        argv += ["--" + option, files(option + ".json", doc)]
    code, payload = run_command(argv + ["--ext", "4"])
    assert code == 0
    assert serialize.field_from_json(payload[key]) == GF(5, 8)
    code, payload = run_command(argv + ["--ext", "5"])
    assert code == EXIT_INPUT and payload["error"]["kind"] == "InputError"


# -- each subcommand takes only the options it reads -----------------------------

# the options each subcommand reads, besides --out
_READS = {
    "curve-validate": {"curve"},
    "triple-validate": {"curve", "t1"},
    "triple-canonical": {"curve", "t1"},
    "triple-support": {"curve", "t1", "ext"},
    "group-act": {"curve", "t1", "matrix"},
    "group-enumerate": {"p", "m", "full"},
    "class-relation": {"curve", "t1", "t2", "ext", "oracle"},
    "form-gram": {"curve", "t1"},
    "form-rank": {"curve", "form"},
    "form-decompose": {"curve", "form", "hint", "budget"},
    "galois-rational": {"curve", "t1", "mode"},
    "search-caveat": {"curve", "ext", "budget", "seed"},
}

# a command line of each subcommand that exits 0
_VALID = {
    "curve-validate": {"curve": CURVE_F5B},
    "triple-validate": {"curve": CURVE_F5B, "t1": _F5_TRIPLE},
    "triple-canonical": {"curve": CURVE_F5B, "t1": _F5_TRIPLE},
    "triple-support": {"curve": CURVE_F5B, "t1": _F5_TRIPLE, "ext": "1"},
    "group-act": {"curve": CURVE_Q, "t1": TRIPLE_A, "matrix": _QQ_SWAP},
    "group-enumerate": {"p": "3"},
    "class-relation": {"curve": CURVE_Q, "t1": TRIPLE_A, "t2": TRIPLE_B},
    "form-gram": {"curve": CURVE_F5B, "t1": _F5_TRIPLE},
    "form-rank": {"form": _F5_FORM},
    "form-decompose": {"curve": CURVE_F5B, "form": _F5_FORM},
    "galois-rational": {"curve": CURVE_F5B, "t1": _F5_TRIPLE},
    "search-caveat": {"curve": CURVE_F5B, "budget": "5", "seed": "1"},
}

# a value each option would accept, and the flags that take none
_VALUES = {"curve": CURVE_F5B, "t1": _F5_TRIPLE, "t2": _F5_TRIPLE, "matrix": _QQ_SWAP,
           "form": _F5_FORM, "hint": ["1", "1", "1"], "mode": "class", "ext": "1",
           "budget": "5", "seed": "1", "p": "3", "m": "1", "full": None, "oracle": None}


def _argv(files, command, options):
    argv = [command]
    for option, value in options.items():
        argv.append("--" + option)
        if isinstance(value, (dict, list)):
            argv.append(files("%s-%s.json" % (command, option), value))
        elif value is not None:
            argv.append(value)
    return argv


@pytest.mark.parametrize("command", sorted(_READS))
def test_unread_options_are_input_errors(files, tmp_path, capsys, command):
    valid = _argv(files, command, _VALID[command])
    out = str(tmp_path / "out.json")
    assert main(valid + ["--out", out]) == 0
    capsys.readouterr()
    for option in sorted(set(_VALUES) - _READS[command]):
        argv = valid + _argv(files, command, {option: _VALUES[option]})[1:]
        assert main(argv) == EXIT_INPUT, argv
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["kind"] == "InputError", argv
        assert "usage:" in captured.err, argv


@pytest.mark.parametrize("coeffs", [
    [[2, 0], [0, 0], [4, 0], [0, 0], [1, 0]],  # over GF(25), every coefficient in GF(5)
    [[2, 1], [0, 0], [4, 0], [0, 0], [1, 0]],  # f_0 = 2 + T, outside GF(5)
])
def test_search_caveat_rejects_curve_off_the_base_at_any_budget(files, coeffs):
    # the curve is checked once, before any sample, so the exit code does not
    # depend on whether a sample passes the Gram filter within the budget
    curve = files("c.json", {"field": {"p": 5, "m": 2}, "coeffs": coeffs})
    for budget in ("1", "50"):
        code, payload = run_command(["search-caveat", "--curve", curve, "--ext", "2",
                                     "--seed", "1", "--budget", budget])
        assert code == EXIT_DOMAIN, budget
        assert payload["error"]["kind"] == "NotInAmbient"


def test_galois_rational_rejects_curve_off_the_base_in_both_modes(files):
    # f_0 = 2 + T lies outside GF(5), so the Frobenius does not fix the curve;
    # both predicates check that, not only the ambient of the entries
    doc = {"field": {"p": 5, "m": 2}, "coeffs": [[2, 1], [0, 0], [4, 0], [0, 0], [1, 0]]}
    curve = serialize.curve_from_json(doc)
    t = random_triple(curve, curve.field, random.Random(1))
    argv = ["galois-rational", "--curve", files("c.json", doc),
            "--t1", files("t.json", serialize.triple_to_json(t))]
    for mode in ("class", "mod-conj"):
        code, payload = run_command(argv + ["--mode", mode])
        assert code == EXIT_DOMAIN, mode
        assert payload["error"]["kind"] == "NotInAmbient", mode


# the options each subcommand cannot run without, as README's usage lines have them
_REQUIRED = {
    "curve-validate": {"curve"},
    "triple-validate": {"curve", "t1"},
    "triple-canonical": {"curve", "t1"},
    "triple-support": {"curve", "t1"},
    "group-act": {"curve", "t1", "matrix"},
    "group-enumerate": {"p"},
    "class-relation": {"curve", "t1", "t2"},
    "form-gram": {"curve", "t1"},
    "form-rank": {"form"},
    "form-decompose": {"curve", "form"},
    "galois-rational": {"curve", "t1"},
    "search-caveat": {"curve"},
}


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_missing_required_option_is_named(files, capsys, command):
    for option in sorted(_REQUIRED[command]):
        docs = {k: v for k, v in _VALID[command].items() if k != option}
        argv = _argv(files, command, docs)
        assert main(argv) == EXIT_INPUT, argv
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "InputError", argv
        assert "--" + option in error["detail"], argv
        assert "usage:" in captured.err, argv


_SQRT2 = {"p": None, "m": 2, "modulus": ["-2", "0", "1"]}


@pytest.mark.parametrize("command", ["curve-validate"])
def test_curve_over_rational_extension_is_a_domain_error(files, command):
    # Y^2 = 3 X^4 - 1 over QQ(sqrt 2): 3 is not a square there, so the
    # points at infinity need a square root above QQ(sqrt 2), which is out
    # of scope; once that was a TypeError from building (r, -r) on None.
    # (Every triple on this curve has deg U = 2 and needs no such root.)
    zero = ["0", "0"]
    curve = {"field": _SQRT2, "coeffs": [["-1", "0"], zero, zero, zero, ["3", "0"]]}
    code, payload = run_command(_argv(files, command, {"curve": curve}))
    assert code == EXIT_DOMAIN
    assert payload["error"]["kind"] == "FactorizationNeedsExtension"


@pytest.mark.parametrize("command", ["curve-validate", "triple-canonical"])
def test_curve_over_rational_extension_with_square_lead(files, command):
    # Y^2 = X^4 - 1 over QQ(sqrt 2): the points at infinity are +-1
    one, zero = ["1", "0"], ["0", "0"]
    curve = {"field": _SQRT2, "coeffs": [["-1", "0"], zero, zero, zero, one]}
    docs = {"curve": curve}
    if command == "triple-canonical":
        docs["t1"] = {"u": [one, zero, zero], "v": [one, zero, zero],
                      "w": [zero, zero, one], "field": _SQRT2}
    code, payload = run_command(_argv(files, command, docs))
    assert code == EXIT_OK
    if command == "curve-validate":
        assert payload["infinity"]["roots"] == [one, ["-1", "0"]]
        assert payload["infinity"]["sqrt_status"] == "square-in-base"
    else:
        assert payload["divisor"]["infinity_multiplicity"] == 2


def _readme_usage():
    """{subcommand: {option: optional}} from README's command-line block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    usage = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("picforms "):
            command, rest = line.split()[1], line.split(None, 2)[2]
            optional = set(re.findall(r"\[--([\w-]+)", rest))
            usage[command] = {o: o in optional for o in re.findall(r"--([\w-]+)", rest)}
    return usage


def test_readme_usage_matches_parser():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    usage = _readme_usage()
    assert set(usage) == set(subparsers)
    for command, sp in subparsers.items():
        options = {opt[2:]: not action.required for action in sp._actions
                   for opt in action.option_strings if opt not in ("-h", "--help", "--out")}
        assert options == usage[command], command
