import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdcyclic import (
    RIdealGens,
    build_code,
    build_g_direct,
    build_g_kron,
    chainring,
    classify_cases,
    cli,
    count_self_dual,
    descriptor_count,
    enumerator,
    find_irreducible,
    g_truncated,
    gmatrix,
    is_self_dual,
    sample_codes,
    to_negacyclic,
)
from sdcyclic.binomial import _factorials
from sdcyclic.cli import _fq_str, code_to_obj, dispatch, obj_to_code
from sdcyclic.counting import _count_digits
from sdcyclic.fieldcore import MAX_EXTENSION_DEGREE

from oracles import matrix_json, matrix_text, solution_columns_oracle


# -- the per-code renderer the row renderer replaced, kept as its oracle

def _poly_str(field, coeffs):
    terms = []
    for d, c in enumerate(coeffs):
        if not any(c):
            continue
        cs = _fq_str(c) if field.m == 1 else f"({_fq_str(c)})"
        if d == 0:
            terms.append(cs)
        else:
            xs = "x" if d == 1 else f"x^{d}"
            terms.append(xs if cs == "1" else f"{cs}{xs}")
    return "+".join(terms) if terms else "0"


def _gen_str(field, gen):
    apart = [v[0] for v in gen]
    bpart = [v[1] for v in gen]
    a_str = _poly_str(field, apart)
    b_str = _poly_str(field, bpart)
    if b_str == "0":
        return a_str
    piece = "u" if b_str == "1" else f"u*({b_str})"
    return piece if a_str == "0" else f"{a_str}+{piece}"


def _code_label(code, index):
    d = code.descriptor
    params = ",".join(_fq_str(a) for a in code.params)
    return f"index={index} case={d.sub} nu={d.nu} k={d.k} params=[{params}]"


def _code_text(field, code, gens, index):
    body = "; ".join(_gen_str(field, g) for g in gens.generators)
    return f"{_code_label(code, index)} <{body}>"


def _oracle_line(fmt, index, code, gens):
    if fmt == "json":
        return json.dumps(code_to_obj(code, gens), separators=(",", ":"))
    return _code_text(gens.field, code, gens, index)


def _oracle_codes(p, m, s):
    """Every code, one ``build_code`` call each, in stream order."""
    field = find_irreducible(p, m)
    return [
        build_code(desc, combo, field)
        for desc in classify_cases(p, s)
        for combo in itertools.product(field.elements(), repeat=desc.free_param_count)
    ]


def run(capsys, *argv):
    status = dispatch(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_gmatrix_text_golden(capsys):
    status, out, _ = run(capsys, "gmatrix", "-p", "3", "--lambda", "1")
    assert status == 0
    assert out == "1 0 0\n2 2 0\n1 2 1\n"


def test_gmatrix_plus_identity(capsys):
    status, out, _ = run(capsys, "gmatrix", "-p", "3", "--l", "8", "--plus-i")
    assert status == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[0] == ["2", "0", "0", "0", "0", "0", "0", "0"]
    assert rows[7] == ["2", "2", "0", "1", "1", "0", "2", "0"]


def test_gmatrix_json(capsys):
    status, out, _ = run(capsys, "gmatrix", "-p", "3", "--lambda", "2", "--format", "json")
    assert status == 0
    obj = json.loads(out)
    assert obj["rows"] == obj["cols"] == 9
    assert obj["entries"][1][:2] == [2, 2]


def test_gmatrix_basis_columns(capsys):
    status, out, _ = run(capsys, "gmatrix", "-p", "3", "--l", "8", "--delta", "4")
    assert status == 0
    assert out.splitlines() == [
        "j=3 column=5 values=2 1 0 1",
        "j=4 column=7 values=0 0 2 2",
    ]


@pytest.mark.parametrize("p,l,delta", [(3, 2, 1), (3, 8, 0), (3, 8, 7), (3, 9, 8), (5, 600, 0), (5, 600, 299), (5, 601, 600)])
def test_gmatrix_delta_equals_the_per_column_oracle(capsys, p, l, delta):
    """`--delta` text and json, from the empty basis (l even, delta l-1)
    to the full one (delta 0), against the basis cut one column at a time
    from the entry-formula matrix."""
    columns = solution_columns_oracle(p, l, delta).T.tolist()
    odd = [c for c in range(1, l + 1, 2) if c > delta]
    assert len(odd) == len(columns)
    lines = [f"j={(c + 1) // 2} column={c} values=" + " ".join(map(str, v)) for c, v in zip(odd, columns)]
    argv = ("gmatrix", "-p", str(p), "--l", str(l), "--delta", str(delta))
    status, out, _ = run(capsys, *argv)
    assert status == 0 and out == "\n".join(lines or ["(empty basis)"]) + "\n"
    vectors = [{"j": (c + 1) // 2, "column": c, "values": v} for c, v in zip(odd, columns)]
    obj = {"p": p, "l": l, "delta": delta, "vectors": vectors}
    status, out, _ = run(capsys, *argv, "--format", "json")
    assert status == 0 and out == json.dumps(obj, separators=(",", ":")) + "\n"


def test_gmatrix_requires_shape(capsys):
    status, _, err = run(capsys, "gmatrix", "-p", "3")
    assert status == 2
    assert "error" in err


def test_count_text(capsys):
    status, out, _ = run(capsys, "count", "-p", "3", "-m", "1", "-s", "3")
    assert status == 0
    assert out == "2186\n"


def test_count_json(capsys):
    status, out, _ = run(capsys, "count", "-p", "3", "-m", "2", "-s", "2", "--format", "json")
    assert status == 0
    assert json.loads(out) == {"p": 3, "m": 2, "s": 2, "count": 101}


def test_count_csv(capsys):
    status, out, _ = run(capsys, "count", "-p", "3", "-m", "1", "-s", "2", "--format", "csv")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,s,case,count"
    assert lines[1] == "3,1,2,k0:nu=0:k=0,9"
    assert lines[-1] == "3,1,2,total,17"
    body = [int(line.rsplit(",", 1)[1]) for line in lines[1:-1]]
    assert sum(body) == 17


def test_enumerate_window(capsys):
    status, out, _ = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2", "--limit", "3")
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("index=0 case=k0")
    status, out2, _ = run(
        capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2", "--offset", "2", "--limit", "1"
    )
    assert out2.strip() == lines[2]


def test_enumerate_full_json_round_trip(capsys):
    status, out, _ = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2", "--format", "json")
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == count_self_dual(3, 1, 2)
    for line in lines:
        obj = json.loads(line)
        code, gens = obj_to_code(obj)
        assert is_self_dual(gens, obj["s"])
        assert json.dumps(code_to_obj(code, gens), separators=(",", ":")) == line


def test_enumerate_byte_identical(capsys):
    _, first, _ = run(capsys, "enumerate", "-p", "5", "-m", "1", "-s", "1", "--format", "json")
    _, second, _ = run(capsys, "enumerate", "-p", "5", "-m", "1", "-s", "1", "--format", "json")
    assert first == second


def test_enumerate_sample_seeded(capsys):
    args = ("enumerate", "-p", "3", "-m", "1", "-s", "3", "--sample", "4", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    _, third, _ = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "3", "--sample", "4", "--seed", "10")
    assert first != third


def test_enumerate_sample_window_conflict(capsys):
    status, _, err = run(
        capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2", "--sample", "2", "--limit", "1"
    )
    assert status == 2
    assert "sample" in err


def test_build_matches_enumeration(capsys):
    status, out, _ = run(
        capsys, "build", "-p", "3", "-m", "1", "-s", "2", "--k", "2", "--params", "2", "--format", "json"
    )
    assert status == 0
    obj = json.loads(out)
    assert obj["k"] == 2 and obj["params"] == [[2]]
    _, full, _ = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2", "--format", "json")
    assert out.strip() in full.strip().splitlines()


def test_build_extension_field_params(capsys):
    status, out, _ = run(
        capsys, "build", "-p", "3", "-m", "2", "-s", "1", "--k", "0", "--format", "json"
    )
    assert status == 0
    assert json.loads(out)["m"] == 2


def test_build_bad_k(capsys):
    status, _, err = run(capsys, "build", "-p", "3", "-m", "1", "-s", "1", "--k", "5")
    assert status == 2 and "no case" in err


def test_build_bad_param_count(capsys):
    status, _, err = run(
        capsys, "build", "-p", "3", "-m", "1", "-s", "2", "--k", "0", "--params", "1"
    )
    assert status == 2 and "parameters" in err


@pytest.mark.parametrize("m,params", [(1, "5,1"), (1, "-1,1"), (1, "2,3"), (2, "1:-1,1"), (2, "0:3,1:1"), (2, "1:0:0,1")])
def test_build_refuses_params_outside_the_residues(capsys, m, params):
    argv = ("build", "-p", "3", "-m", str(m), "-s", "2", "--k", "0", f"--params={params}")
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == ""
    assert err.startswith("error: --params") and "[0, 3)" in err


@pytest.mark.parametrize("m,params", [(1, "1,,2"), (1, "1,x"), (1, ":"), (1, ",1"), (2, "1:,1"), (2, "1: 1,1")])
def test_build_refuses_malformed_params(capsys, m, params):
    argv = ("build", "-p", "3", "-m", str(m), "-s", "2", "--k", "0", f"--params={params}")
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == ""
    assert err.startswith("error: --params entries must be at most m = ") and "residues in [0, 3)" in err


def test_build_params_in_range_are_printed_as_before(capsys):
    argv = ("build", "-p", "3", "-m", "1", "-s", "2", "--k", "0", "--params", "2,1")
    status, out, _ = run(capsys, *argv)
    assert status == 0 and out == "index=0 case=k0 nu=0 k=0 params=[2,1] <2x+2x^3+x^4+2x^5+x^6+x^8+u>\n"
    status, out, _ = run(capsys, *argv, "--format", "json")
    assert status == 0 and out == (
        '{"p":3,"m":1,"s":2,"case":"k0","nu":0,"k":0,"params":[[2],[1]],"generators":[{"a":{"basis":"std",'
        '"coeffs":[[0],[2],[0],[2],[1],[2],[1],[0],[1]]},"b":{"basis":"std","coeffs":[[1],[0],[0],[0],[0],'
        '[0],[0],[0],[0]]}}],"ring_sign":1}\n'
    )
    # an element may still be written with fewer than m coefficients
    status, out, _ = run(capsys, "build", "-p", "3", "-m", "2", "-s", "2", "--k", "0", "--params", "1,2:1")
    assert status == 0 and out.startswith("index=0 case=k0 nu=0 k=0 params=[1:0,2:1] <(1:1)x+(0:2)x^2+")


def test_verify_all(capsys):
    status, out, _ = run(capsys, "verify", "-p", "3", "-m", "1", "-s", "2", "--all")
    assert status == 0
    assert out == "17/17 self-dual\n"


@pytest.mark.parametrize("window", [(), ("--offset", "5")])
def test_verify_refuses_an_unbounded_window(capsys, window):
    """Without --limit or --all a window runs to the end of the family:
    refused at once, naming both flags."""
    status, out, err = run(capsys, "verify", "-p", "3", "-m", "1", "-s", "2", *window)
    assert status == 2 and out == ""
    assert err == "error: verify needs --limit N, or --all for the complete family\n"


def test_verify_window_and_negacyclic(capsys):
    status, out, _ = run(capsys, "verify", "-p", "3", "-m", "1", "-s", "2", "--limit", "5")
    assert status == 0 and out == "5/5 self-dual\n"
    status, out, _ = run(capsys, "verify", "-p", "3", "-m", "1", "-s", "1", "--all", "--negacyclic")
    assert status == 0 and out == "2/2 self-dual\n"


def test_negacyclic_subcommand(capsys):
    status, out, _ = run(capsys, "negacyclic", "-p", "3", "-m", "1", "-s", "1", "--format", "json")
    assert status == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(objs) == 2
    assert all(o["ring_sign"] == -1 for o in objs)
    for obj in objs:
        _, gens = obj_to_code(obj)
        assert gens.ring_sign == -1
        assert is_self_dual(gens, 1)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "counts.txt"
    status, out, _ = run(capsys, "count", "-p", "3", "-m", "1", "-s", "1", "--out", str(target))
    assert status == 0 and out == ""
    assert target.read_text() == "2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gmatrix", "-p", "3", "--l", "5", "--delta", "7"),
        ("gmatrix", "-p", "3", "--l", "5", "--delta", "7", "--format", "json"),
        ("gmatrix", "-p", "3", "--l", "3000", "--delta", "1"),
        ("gmatrix", "-p", "3", "--l", "3000"),
        ("verify", "-p", "3", "-m", "1", "-s", "7", "--all"),
        ("enumerate", "-p", "3", "-m", "1", "-s", "7"),
        ("build", "-p", "3", "-m", "1", "-s", "2", "--k", "0", "--params", "5,1"),
        ("count", "-p", "9", "-m", "1", "-s", "1"),
    ],
)
def test_a_refusal_leaves_the_out_file_as_it_was(tmp_path, capsys, argv):
    target = tmp_path / "kept.txt"
    target.write_text("earlier output\n")
    status, out, err = run(capsys, *argv, "--out", str(target))
    assert status == 2 and out == "" and err.startswith("error: ")
    assert target.read_text() == "earlier output\n"


def test_invalid_p_reports_error(capsys):
    status, _, err = run(capsys, "count", "-p", "4", "-m", "1", "-s", "1")
    assert status == 2 and "odd prime" in err


def test_size_cap_guard_surfaces_as_diagnostic(capsys):
    status, _, err = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "7", "--limit", "1")
    assert status == 2 and "cap" in err
    # counting never touches matrices, so it still works far beyond the cap
    status, out, _ = run(capsys, "count", "-p", "3", "-m", "1", "-s", "7")
    assert status == 0 and int(out) == count_self_dual(3, 1, 7)


def test_obj_to_code_rejects_tampered_generators(capsys):
    _, out, _ = run(capsys, "build", "-p", "3", "-m", "1", "-s", "1", "--k", "0", "--format", "json")
    obj = json.loads(out)
    obj["generators"][0]["a"]["coeffs"][0] = [1]
    with pytest.raises(ValueError):
        obj_to_code(obj)


def test_obj_to_code_reads_only_a_ring_sign_of_one_or_minus_one(capsys):
    _, out, _ = run(capsys, "negacyclic", "-p", "3", "-m", "1", "-s", "2", "--format", "json")
    obj = json.loads(out.splitlines()[-1])
    assert obj_to_code(obj)[1].ring_sign == -1
    for sign in (7, 0, "x", None, True, -1.0, 2):
        with pytest.raises(ValueError, match="ring_sign must be 1 or -1"):
            obj_to_code(dict(obj, ring_sign=sign))
    # a missing key means the cyclic ring
    _, out, _ = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2", "--format", "json")
    cyclic = json.loads(out.splitlines()[-1])
    del cyclic["ring_sign"]
    assert obj_to_code(cyclic)[1].ring_sign == 1



def _k1_object(capsys):
    """The json object of the first code with k = 1 (and nu = 1) of
    length 9 over F_3."""
    _, out, _ = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2", "--format", "json")
    line = next(line for line in out.splitlines() if '"nu":1,"k":1,' in line)
    obj = json.loads(line)
    assert json.dumps(code_to_obj(*obj_to_code(obj)), separators=(",", ":")) == line
    return obj


@pytest.mark.parametrize("key", ["p", "m", "s", "case", "nu", "k", "params", "generators"])
def test_obj_to_code_refuses_a_missing_key_by_name(capsys, key):
    obj = _k1_object(capsys)
    del obj[key]
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        obj_to_code(obj)


@pytest.mark.parametrize("key", ["a", "b"])
def test_obj_to_code_refuses_a_generator_without_a_part(capsys, key):
    obj = _k1_object(capsys)
    del obj["generators"][0][key]
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        obj_to_code(obj)


@pytest.mark.parametrize("key,value", [("p", "3"), ("p", 3.0), ("m", True), ("s", None)])
def test_obj_to_code_refuses_a_non_integer_size(capsys, key, value):
    obj = dict(_k1_object(capsys), **{key: value})
    with pytest.raises(ValueError, match=f"'{key}' must be of type int"):
        obj_to_code(obj)


@pytest.mark.parametrize("key", ["params", "generators"])
def test_obj_to_code_refuses_a_non_list(capsys, key):
    obj = dict(_k1_object(capsys), **{key: 5})
    with pytest.raises(ValueError, match=f"'{key}' must be of type list"):
        obj_to_code(obj)


@pytest.mark.parametrize("key", ["nu", "k"])
def test_obj_to_code_refuses_true_for_one(capsys, key):
    """json ``true`` equals 1 in Python, and would come back as 1."""
    obj = dict(_k1_object(capsys), **{key: True})
    with pytest.raises(ValueError, match=f"'{key}' must be of type int"):
        obj_to_code(obj)


# Written as the exporter writes them, an element is a list of m residues;
# anything else would not be re-exported byte for byte.
_UNREDUCED = [[3], [-3], [True], [], [0, 0], [0.0]]


@pytest.mark.parametrize("value", _UNREDUCED + [5, "0", None])
def test_obj_to_code_refuses_an_unreduced_parameter(capsys, value):
    obj = dict(_k1_object(capsys), params=[value])
    with pytest.raises(ValueError, match=r"'params' entries must be lists of m = 1 integers in \[0, 3\)"):
        obj_to_code(obj)


@pytest.mark.parametrize("part", ["a", "b"])
@pytest.mark.parametrize("shift", [3, -3])
def test_obj_to_code_refuses_an_unreduced_coefficient(capsys, part, shift):
    """The coefficient reduces to the stored one, so only the check on
    the element itself can refuse it."""
    obj = _k1_object(capsys)
    coeffs = obj["generators"][0][part]["coeffs"]
    coeffs[1] = [coeffs[1][0] + shift]
    with pytest.raises(ValueError, match=r"'coeffs' entries must be lists of m = 1 integers in \[0, 3\)"):
        obj_to_code(obj)
    for value in _UNREDUCED:
        coeffs[1] = value
        with pytest.raises(ValueError, match="'coeffs' entries must be"):
            obj_to_code(obj)

# -- windows: --offset/--limit unrank the index instead of skipping codes

def _family_boundaries(p, m, s):
    out, total = [], 0
    for d in classify_cases(p, s):
        total += descriptor_count(d, m)
        out.append(total)
    return out


@pytest.mark.parametrize("command", ["enumerate", "negacyclic"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("p,m,s", [(3, 2, 2), (3, 1, 3)])
def test_window_is_a_slice_of_the_full_stream(capsys, command, fmt, p, m, s):
    pms = ("-p", str(p), "-m", str(m), "-s", str(s))
    _, full, _ = run(capsys, command, *pms, "--format", fmt)
    lines = full.splitlines()
    total = count_self_dual(p, m, s)
    assert len(lines) == total
    bounds = _family_boundaries(p, m, s)
    starts = {0, 1, total // 2, total - 1, total, total + 3}
    starts |= {b + d for b in bounds for d in (-1, 0)}
    for start in sorted(starts):
        for limit in (1, 7):
            status, out, _ = run(capsys, command, *pms, "--offset", str(start), "--limit", str(limit), "--format", fmt)
            assert status == 0
            want = lines[start : start + limit]
            assert out == ("\n".join(want) if want else "(no codes)") + "\n"
    status, out, _ = run(capsys, command, *pms, "--offset", str(bounds[0]), "--format", fmt)
    assert out.splitlines() == lines[bounds[0] :]


@pytest.mark.parametrize("negacyclic", [False, True])
def test_verify_window_checks_exactly_the_windowed_codes(capsys, monkeypatch, negacyclic):
    pms = ("-p", "3", "-m", "2", "-s", "2")
    command = "negacyclic" if negacyclic else "enumerate"
    _, full, _ = run(capsys, command, *pms, "--format", "json")
    expected = [obj_to_code(json.loads(line))[1] for line in full.splitlines()]
    seen = []

    def record(gens, s):
        # the verifier's rows, as the generator tuples of a code object
        rows = chainring._rows(gens)
        seen.append(RIdealGens(gens.field, gens.ring_sign, tuple(tuple(zip(zip(*a), zip(*b))) for a, b in rows)))
        return True

    monkeypatch.setattr(chainring, "is_self_dual", record)
    extra = ("--negacyclic",) if negacyclic else ()
    total = len(expected)
    for start in sorted({0, _family_boundaries(3, 2, 2)[0], total - 1, total}):
        seen.clear()
        status, out, _ = run(capsys, "verify", *pms, "--offset", str(start), "--limit", "5", *extra)
        want = expected[start : start + 5]
        assert status == 0 and out == f"{len(want)}/{len(want)} self-dual\n"
        assert seen == want


def test_huge_offset_returns_at_once(capsys):
    start = 10**40
    # N = 729: the index lands deep inside the first family
    t0 = time.perf_counter()
    status, out, _ = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "6", "--offset", str(start), "--limit", "1")
    assert status == 0
    digits = []
    rest = start
    free = classify_cases(3, 6)[0].free_param_count
    for _ in range(free):
        rest, d = divmod(rest, 3)
        digits.append(str(d))
    assert rest == 0
    _, built, _ = run(capsys, "build", "-p", "3", "-m", "1", "-s", "6", "--k", "0", "--params", ",".join(reversed(digits)))
    assert out == built.replace("index=0 ", f"index={start} ", 1)
    # N = 6561: the first family is beyond the size cap, so every command
    # refuses at once, exactly as the unwindowed stream does
    for command in ("enumerate", "negacyclic", "verify"):
        status, out, err = run(capsys, command, "-p", "3", "-m", "1", "-s", "8", "--offset", str(start), "--limit", "3")
        assert status == 2 and out == "" and "cap" in err
    assert time.perf_counter() - t0 < 20


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("enumerate", "--offset", "-1"), "--offset"),
        (("enumerate", "--limit", "-2"), "--limit"),
        (("enumerate", "--sample", "-1"), "--sample"),
        (("negacyclic", "--offset", "-3"), "--offset"),
        (("negacyclic", "--limit", "-1"), "--limit"),
        (("verify", "--offset", "-1"), "--offset"),
        (("verify", "--limit", "-1", "--negacyclic"), "--limit"),
    ],
)
def test_negative_window_is_refused(capsys, argv, flag):
    status, out, err = run(capsys, argv[0], "-p", "3", "-m", "1", "-s", "2", *argv[1:])
    assert status == 2 and out == ""
    assert f"error: {flag} must be >= 0" in err


@pytest.mark.parametrize("command", ["enumerate", "negacyclic", "verify"])
@pytest.mark.parametrize(
    "p,m,s", [("9", "1", "2"), ("0", "1", "2"), ("3", "0", "2"), ("3", "101", "2"), ("3", "1", "0"), ("3", "1", "9")]
)
def test_an_empty_window_refuses_what_a_one_code_window_refuses(tmp_path, capsys, command, p, m, s):
    """-p, -m and -s (size cap included) are checked before the window is
    cut, so --limit 0 is refused as --limit 1 is, and --out is left as it
    was."""
    argv = (command, "-p", p, "-m", m, "-s", s)
    status, out, err = run(capsys, *argv, "--limit", "0")
    assert status == 2 and out == "" and err.startswith("error: ")
    assert (status, out, err) == run(capsys, *argv, "--limit", "1")
    target = tmp_path / "kept.txt"
    target.write_text("earlier output\n")
    assert run(capsys, *argv, "--limit", "0", "--out", str(target)) == (2, "", err)
    assert target.read_text() == "earlier output\n"


@pytest.mark.parametrize("command,empty", [("enumerate", "(no codes)\n"), ("negacyclic", "(no codes)\n"), ("verify", "0/0 self-dual\n")])
def test_an_empty_window_of_valid_arguments_has_no_codes(capsys, command, empty):
    for offset in ("0", "5", "17", "18", str(10**40)):
        assert run(capsys, command, "-p", "3", "-m", "1", "-s", "2", "--offset", offset, "--limit", "0") == (0, empty, "")


@pytest.mark.parametrize("p,m,s", [(3, 1, 3), (3, 2, 2), (5, 1, 2)])
def test_offsets_next_to_family_boundaries_print_the_full_stream(capsys, p, m, s):
    """--offset skips whole families by their counts: a window starting
    one before, at or one after the start of a family (or the end of the
    stream) prints exactly the lines of the full stream there."""
    pms = ("-p", str(p), "-m", str(m), "-s", str(s))
    for command in ("enumerate", "negacyclic"):
        lines = run(capsys, command, *pms)[1].splitlines(keepends=True)
        ends = list(itertools.accumulate(descriptor_count(d, m) for d in classify_cases(p, s)))
        assert ends[-1] == len(lines) == count_self_dual(p, m, s)
        for end in [0] + ends:
            for offset in range(max(0, end - 1), end + 2):
                _, out, _ = run(capsys, command, *pms, "--offset", str(offset), "--limit", "3")
                assert out == ("".join(lines[offset : offset + 3]) or "(no codes)\n")


def test_codes_are_written_as_they_are_built(capsys, monkeypatch):
    real = enumerator._stream_blocks

    def two_blocks_then_fail(*args, **kwargs):
        stream = real(*args, **kwargs)
        yield next(stream)  # blocks grow from one code: this is index 0
        yield next(stream)  # and this indices 1 and 2
        raise ValueError("stream broke")

    monkeypatch.setattr(enumerator, "_stream_blocks", two_blocks_then_fail)
    status, out, err = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2")
    assert status == 2 and "stream broke" in err
    assert [line.split()[0] for line in out.splitlines()] == ["index=0", "index=1", "index=2"]


@pytest.mark.parametrize("p,m,s", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2), (3, 3, 1), (7, 1, 1), (11, 1, 1)])
def test_stream_equals_the_per_code_renderer(capsys, p, m, s):
    codes = _oracle_codes(p, m, s)
    pms = ("-p", str(p), "-m", str(m), "-s", str(s))
    for command, flip in (("enumerate", False), ("negacyclic", True)):
        images = [to_negacyclic(c) if flip else c.generators for c in codes]
        for fmt in ("text", "json"):
            status, out, _ = run(capsys, command, *pms, "--format", fmt)
            want = [_oracle_line(fmt, i, c, g) for i, (c, g) in enumerate(zip(codes, images))]
            assert status == 0 and out.splitlines() == want


# 243 and 729 elements: with and without a one-byte element index; 2187
# and 6561: with and without a string table
@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_large_field_lines_equal_the_per_code_renderer(capsys, m):
    field = find_irreducible(3, m)
    desc = classify_cases(3, 2)[0]
    combos = itertools.islice(itertools.product(field.elements(), repeat=desc.free_param_count), 2000, 2005)
    codes = [build_code(desc, combo, field) for combo in combos]
    for command, flip in (("enumerate", False), ("negacyclic", True)):
        for fmt in ("text", "json"):
            argv = ("-p", "3", "-m", str(m), "-s", "2", "--offset", "2000", "--limit", "5", "--format", fmt)
            _, out, _ = run(capsys, command, *argv)
            images = [to_negacyclic(c) if flip else c.generators for c in codes]
            assert out.splitlines() == [_oracle_line(fmt, 2000 + i, c, g) for i, (c, g) in enumerate(zip(codes, images))]


def _built_per_window(monkeypatch, capsys, argvs):
    """For each argv: its exit status, lines printed, and the codes and
    block sizes ``enumerator._block`` built for it."""
    real, sizes = enumerator._block, []

    def counted(desc, field, params, ring_sign=1):
        sizes.append(len(params))
        return real(desc, field, params, ring_sign)

    monkeypatch.setattr(enumerator, "_block", counted)
    out = []
    for argv in argvs:
        sizes.clear()
        status, printed, _ = run(capsys, *argv)
        out.append((status, len(printed.splitlines()), list(sizes)))
    return out


@pytest.mark.parametrize("command", ["enumerate", "negacyclic", "verify"])
def test_a_window_builds_exactly_its_codes(monkeypatch, capsys, command):
    """The last block stops at --offset + --limit, and blocks still grow
    1, 2, 4, ... from the window's start, across a family boundary too:
    the first family of (3,1,3) has 3^6 codes."""
    argvs = []
    for offset, limit in ((0, 1), (0, 40), (60, 350), (0, 1000), (729 - 5, 12), (729 - 600, 1000)):
        argvs.append((command, "-p", "3", "-m", "1", "-s", "3", "--offset", str(offset), "--limit", str(limit)))
    runs = _built_per_window(monkeypatch, capsys, argvs)
    for (status, printed, sizes), argv in zip(runs, argvs):
        limit = int(argv[-1])
        assert status == 0 and sum(sizes) == limit
        assert printed == (1 if command == "verify" else limit)
    assert [sizes for _, _, sizes in runs[:3]] == [[1], [1, 2, 4, 8, 16, 9], [1, 2, 4, 8, 16, 32, 64, 128, 95]]
    assert runs[4][2] == [1, 2, 2, 7]  # the first family's last 5 codes, then 7 of the next
    assert runs[5][2][:10] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 89]


@pytest.mark.parametrize("command", ["enumerate", "negacyclic"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_windows_across_block_boundaries(capsys, command, fmt):
    # (3,1,4) starts with a family of 3^20 codes: blocks of 1, 2, 4, ...
    # then 256 codes from each window's start
    pms = ("-p", "3", "-m", "1", "-s", "4")
    _, full, _ = run(capsys, command, *pms, "--limit", "1200", "--format", fmt)
    lines = full.splitlines()
    field = find_irreducible(3, 1)
    desc = classify_cases(3, 4)[0]
    params = itertools.islice(itertools.product(field.elements(), repeat=desc.free_param_count), 1200)
    codes = [build_code(desc, combo, field) for combo in params]
    images = [to_negacyclic(c) if command == "negacyclic" else c.generators for c in codes]
    assert lines == [_oracle_line(fmt, i, c, g) for i, (c, g) in enumerate(zip(codes, images))]
    for start in (1, 2, 3, 254, 255, 256, 257, 510, 511, 512, 767):
        for limit in (1, 300):
            _, out, _ = run(capsys, command, *pms, "--offset", str(start), "--limit", str(limit), "--format", fmt)
            assert out.splitlines() == lines[start : start + limit]


def test_zero_parameter_families_and_no_codes(capsys):
    # (3,1,2): k = 3 and k = 4 have no free parameters
    codes = _oracle_codes(3, 1, 2)
    zero = [i for i, c in enumerate(codes) if not c.params]
    assert len(zero) == 2
    for i in zero:
        for fmt in ("text", "json"):
            _, out, _ = run(capsys, "enumerate", "-p", "3", "-m", "1", "-s", "2", "--offset", str(i), "--limit", "1", "--format", fmt)
            assert out == _oracle_line(fmt, i, codes[i], codes[i].generators) + "\n"
    for command in ("enumerate", "negacyclic"):
        status, out, _ = run(capsys, command, "-p", "3", "-m", "1", "-s", "2", "--offset", "17", "--format", "json")
        assert status == 0 and out == "(no codes)\n"


def test_huge_offset_json_equals_build(capsys):
    start = 10**40
    status, out, _ = run(capsys, "negacyclic", "-p", "3", "-m", "1", "-s", "6", "--offset", str(start), "--limit", "2", "--format", "json")
    assert status == 0
    field = find_irreducible(3, 1)
    desc = classify_cases(3, 6)[0]
    for line, index in zip(out.splitlines(), (start, start + 1)):
        digits = []
        for _ in range(desc.free_param_count):
            index, d = divmod(index, 3)
            digits.append((d,))
        code = build_code(desc, tuple(reversed(digits)), field)
        assert line == _oracle_line("json", 0, code, to_negacyclic(code))


# sha256 of the output of the per-code renderer (commit 974f329)
RENDER_DIGESTS = {
    ("enumerate", "-p", "5", "-m", "3", "-s", "2", "--sample", "10", "--seed", "7"):
        "4ac188d741c0a10c27fbb0daa52da84c43ec92ff1ddba35936cdab7dc8fe610f",
    ("enumerate", "-p", "5", "-m", "3", "-s", "2", "--sample", "10", "--seed", "7", "--format", "json"):
        "da01330be229c4509c0783d74f43a69175421ae675d59edb7f33fe654ea53c4c",
    ("enumerate", "-p", "3", "-m", "1", "-s", "6", "--sample", "20", "--seed", "3"):
        "9f119135ad455dd17facdc897d7ca86a8fef3dd6a76c0eb919db71f6c1b8d609",
    ("enumerate", "-p", "3", "-m", "1", "-s", "4", "--sample", "50", "--seed", "11", "--format", "json"):
        "c564142dbf2f02b382b6369e44f610de31686b16c99551afd03b0b98a4c1d344",
    ("build", "-p", "3", "-m", "3", "-s", "2", "--k", "0", "--params", "1:2:0,0:0:1"):
        "e4fbe278f9c0665dcf566531965619b6be843ade92939b226dffe3f0fda0795c",
    ("build", "-p", "3", "-m", "3", "-s", "2", "--k", "0", "--params", "1:2:0,0:0:1", "--format", "json"):
        "e8b4d6f6559cb318ad30f8ac19c8b3944a2c550a523b7ce51bd719ff86228028",
    # recorded at commit 77cbcc2, where the draw walked the family weights
    # itself; ``enumerator._locate`` now picks the family
    ("enumerate", "-p", "5", "-m", "1", "-s", "2", "--sample", "30", "--seed", "1"):
        "5f809b1e84989a6f46ad9fbc809aba65938efc32dea894e7298f19afd8c2ad5e",
    ("enumerate", "-p", "5", "-m", "1", "-s", "2", "--sample", "30", "--seed", "1", "--format", "json"):
        "30d0cb7036b8f9662adbb50bf795bc0eaf077ba3ac52b535af3eb10bd097eaa1",
}


@pytest.mark.parametrize("argv", sorted(RENDER_DIGESTS))
def test_build_and_sample_output_is_unchanged(capsys, argv):
    status, out, _ = run(capsys, *argv)
    assert status == 0 and hashlib.sha256(out.encode()).hexdigest() == RENDER_DIGESTS[argv]


@pytest.mark.parametrize("p,m,s,seed", [(3, 1, 4, 11), (5, 3, 2, 7), (3, 2, 3, 2)])
def test_sample_equals_the_per_code_renderer(capsys, p, m, s, seed):
    codes = list(sample_codes(p, m, s, 30, seed=seed))
    for fmt in ("text", "json"):
        argv = ("-p", str(p), "-m", str(m), "-s", str(s), "--sample", "30", "--seed", str(seed), "--format", fmt)
        _, out, _ = run(capsys, "enumerate", *argv)
        assert out.splitlines() == [_oracle_line(fmt, i, c, c.generators) for i, c in enumerate(codes)]


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "codes.jsonl"
    argv = ("enumerate", "-p", "3", "-m", "2", "-s", "2", "--format", "json")
    _, out, _ = run(capsys, *argv)
    status, printed, _ = run(capsys, *argv, "--out", str(target))
    assert status == 0 and printed == "" and target.read_text() == out
    status, _, _ = run(capsys, *argv, "--offset", "101", "--out", str(target))
    assert status == 0 and target.read_text() == "(no codes)\n"


# -- verify names each failing code on stderr

def test_verify_names_failing_codes(capsys, monkeypatch):
    # wrong on purpose: the negacyclic blocks keep the cyclic coefficients
    # (no x -> -x) and only flip the ring sign, so most codes stop being
    # self-dual
    monkeypatch.setattr(enumerator, "_negate_odd_degrees", lambda arr, p: arr)
    status, out, err = run(capsys, "verify", "-p", "3", "-m", "1", "-s", "1", "--all", "--negacyclic")
    assert status == 1 and out == "1/2 self-dual\n"
    assert err == (
        "index=1 case=odd-k nu=0 k=1 params=[] ring=negacyclic: "
        "not self-orthogonal: shift 2, generators (0, 1), u part\n"
    )
    # windowed: stream indices, one line per failing code
    status, out, err = run(capsys, "verify", "-p", "3", "-m", "1", "-s", "2", "--offset", "9", "--limit", "2", "--negacyclic")
    assert status == 1 and out == "0/2 self-dual\n"
    assert err.splitlines() == [
        "index=9 case=even-k nu=1 k=2 params=[0] ring=negacyclic: not self-orthogonal: shift 7, generators (0, 1), u part",
        "index=10 case=even-k nu=1 k=2 params=[1] ring=negacyclic: not self-orthogonal: shift 4, generators (0, 0), main part",
    ]


def test_verify_names_wrong_dimension(capsys, monkeypatch):
    real = enumerator._generators

    def first_generator_only(block):
        for gens in real(block):
            yield gens._replace(generators=gens.generators[:1])

    monkeypatch.setattr(enumerator, "_generators", first_generator_only)
    status, out, err = run(capsys, "verify", "-p", "3", "-m", "1", "-s", "1", "--all", "--negacyclic")
    # the image of <u(x-1)> alone is self-orthogonal but only 2-dimensional
    assert status == 1 and out == "1/2 self-dual\n"
    assert err == "index=1 case=odd-k nu=0 k=1 params=[] ring=negacyclic: dimension 2 != 3\n"


@pytest.mark.parametrize("window", [("--offset", "3"), ("--limit", "0"), ("--offset", "1", "--limit", "2")])
def test_verify_all_refuses_a_window(capsys, window):
    status, out, err = run(capsys, "verify", "-p", "3", "-m", "1", "-s", "2", "--all", *window)
    assert status == 2 and out == ""
    assert err == "error: --all cannot be combined with --offset/--limit\n"


# -- closed forms: matrix text, counts, refusals -------------------------------

def _matrix_text_per_entry(p, mat):
    """The per-entry formatter that the byte-grid renderer replaced, kept
    as its oracle."""
    width = max(1, len(str(p - 1)))
    return "\n".join(" ".join(f"{int(v):>{width}}" for v in row) for row in mat)


def _matrix_json(p, mat):
    mat = np.asarray(mat)
    obj = {"p": p, "rows": mat.shape[0], "cols": mat.shape[1], "entries": mat.tolist()}
    return json.dumps(obj, separators=(",", ":"))


def _eye(n):
    return np.eye(n, dtype=np.int64)


@pytest.mark.parametrize("p", [3, 7, 11, 97, 101, 113, 1009, 2039])  # entry widths 1 to 4
def test_matrix_text_equals_per_entry_formatter(p):
    g = g_truncated(p, min(p, 120))  # the full G_p up to p = 113
    n = len(g)
    shapes = [g, (g + _eye(n)) % p, (g - _eye(n)) % p, g_truncated(p, 1), g_truncated(p, 2), g_truncated(p, n // 2)]
    rng = np.random.default_rng(p)
    shapes += [rng.integers(0, p, size=(r, c)) for r, c in ((1, 1), (1, 5), (4, 1), (30, 70))]
    shapes.append(np.array([[0, p - 1], [p - 1, 0]]))
    for mat in shapes:
        assert matrix_text(p, mat) == _matrix_text_per_entry(p, mat)
        assert matrix_json(p, mat) == _matrix_json(p, mat)


def test_gmatrix_text_equals_per_entry_formatter(capsys):
    for p, argv, mat in [
        (3, ("--l", "650", "--plus-i"), (g_truncated(3, 650) + _eye(650)) % 3),
        (5, ("--lambda", "4", "--minus-i"), (build_g_kron(5, 4) - _eye(625)) % 5),
        (5, ("--lambda", "0"), np.array([[1]])),
    ]:
        status, out, _ = run(capsys, "gmatrix", "-p", str(p), *argv)
        assert status == 0 and out == _matrix_text_per_entry(p, mat) + "\n"


def test_gmatrix_json_equals_entry_list(capsys):
    for p, argv, mat in [
        (1019, ("--lambda", "1"), build_g_kron(1019, 1)),
        (5, ("--lambda", "4", "--minus-i"), (build_g_kron(5, 4) - _eye(625)) % 5),
        (3, ("--lambda", "0"), np.array([[1]])),
    ]:
        status, out, _ = run(capsys, "gmatrix", "-p", str(p), *argv, "--format", "json")
        assert status == 0 and out == _matrix_json(p, mat) + "\n"


# (p, lambda) of the matrices whose leading l x l parts `--l` prints below
_L_LEVELS = [(3, 6), (5, 4), (13, 2)]


@pytest.mark.parametrize("p,lam", _L_LEVELS)
def test_gmatrix_l_equals_the_dense_truncation(capsys, p, lam):
    """`--l` at block edges (63, 64, 65), digit edges (p^(lambda-1) +- 1)
    and the full order, with each shift in text and json, against the
    per-entry formatter and the json of the dense matrix."""
    n, g = p**lam, np.asarray(build_g_direct(p, lam))
    for l in sorted({1, 63, 64, 65, n // p - 1, n // p, n // p + 1, n - 1, n}):
        for flag, shift in (((), 0), (("--plus-i",), 1), (("--minus-i",), -1)):
            mat = (g[:l, :l] + shift * _eye(l)) % p
            argv = ("gmatrix", "-p", str(p), "--l", str(l), *flag)
            status, out, _ = run(capsys, *argv)
            assert status == 0 and out == _matrix_text_per_entry(p, mat) + "\n", (l, flag)
            status, out, _ = run(capsys, *argv, "--format", "json")
            assert status == 0 and out == _matrix_json(p, mat) + "\n", (l, flag)


@pytest.mark.parametrize("flag", ["--plus-i", "--minus-i"])
def test_gmatrix_delta_refuses_a_shift(capsys, flag):
    status, out, err = run(capsys, "gmatrix", "-p", "3", "--l", "8", "--delta", "2", flag)
    assert status == 2 and out == ""
    assert err == f"error: --delta cannot be combined with {flag}\n"


def test_gmatrix_refuses_a_modulus_below_two_at_once(capsys):
    start = time.perf_counter()
    status, out, err = run(capsys, "gmatrix", "-p", "1", "--l", "5")
    assert time.perf_counter() - start < 2
    assert status == 2 and out == "" and "odd prime" in err


# traced peak of `gmatrix ... --out FILE` with cold caches: 24.2, 104.6
# and 9.9 MB in turn for the dense builder (commit 2b2150d)
_GMATRIX_PEAKS = [
    ("-p", "1021", "--lambda", "1", "--format", "json"),
    ("-p", "43", "--lambda", "2", "--minus-i", "--format", "json"),
    ("-p", "3", "--l", "650", "--delta", "113", "--format", "json"),
]


@pytest.mark.parametrize("argv", _GMATRIX_PEAKS, ids=" ".join)
def test_gmatrix_never_holds_more_than_a_few_blocks(tmp_path, argv):
    for cache in (_factorials, g_truncated):
        cache.cache_clear()
    tracemalloc.start()
    try:
        assert dispatch(["gmatrix", *argv, "--out", str(tmp_path / "g.txt")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_gmatrix_lambda_and_l_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["gmatrix", "-p", "3", "--lambda", "2", "--l", "5"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def _exact_division_total(p, m, s):
    n, q = p**s, p**m
    e = (n + 1) // 4 if n % 4 == 3 else (n - 1) // 4
    geom, rem = divmod(q**e - 1, q - 1)
    assert rem == 0
    return 2 * geom if n % 4 == 3 else q**e + 2 * geom


def _term_by_term_total(p, m, s):
    """The summation ``count_self_dual`` used before exact division."""
    n, q = p**s, p**m
    if n % 4 == 3:
        return 2 * sum(q**t for t in range((n + 1) // 4))
    return q ** ((n - 1) // 4) + 2 * sum(q**t for t in range((n - 1) // 4))


def _parse_int(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("p,m,s", [(3, 1, 10), (11, 3, 4), (3, 1, 12)])
def test_count_prints_totals_beyond_the_str_limit(capsys, p, m, s):
    limit = sys.get_int_max_str_digits()
    expected = _exact_division_total(p, m, s)
    status, out, _ = run(capsys, "count", "-p", str(p), "-m", str(m), "-s", str(s))
    assert status == 0 and _parse_int(out) == expected
    status, out, _ = run(capsys, "count", "-p", str(p), "-m", str(m), "-s", str(s), "--format", "json")
    assert status == 0
    head = f'{{"p":{p},"m":{m},"s":{s},"count":'
    assert out.startswith(head) and out.endswith("}\n")
    assert _parse_int(out[len(head) : -2]) == expected
    assert sys.get_int_max_str_digits() == limit


def test_count_equals_term_by_term_sum():
    assert count_self_dual(3, 1, 9) == _term_by_term_total(3, 1, 9)
    for p, m, s in [(3, 2, 5), (5, 1, 4), (7, 3, 3), (13, 1, 3)]:
        assert count_self_dual(p, m, s) == _term_by_term_total(p, m, s) == _exact_division_total(p, m, s)


def test_count_csv_refuses_cells_beyond_the_str_limit(capsys):
    start = time.perf_counter()
    status, out, err = run(capsys, "count", "-p", "3", "-m", "1", "-s", "10", "--format", "csv")
    assert time.perf_counter() - start < 2
    assert status == 2 and out == ""
    assert "csv cell" in err and "--format text" in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("m", ["1", "1000000"])
def test_count_refuses_totals_beyond_the_cap_at_once(capsys, m):
    start = time.perf_counter()
    for fmt in ("text", "json", "csv"):
        status, out, err = run(capsys, "count", "-p", "2147483647", "-m", m, "-s", "1", "--format", fmt)
        assert status == 2 and out == "" and "cap" in err
    assert time.perf_counter() - start < 2


def test_count_builds_no_power_the_total_does_not_need(capsys):
    # N = 3: the total is 2 whatever q is, so q = 3^1000000 is never built
    start = time.perf_counter()
    status, out, _ = run(capsys, "count", "-p", "3", "-m", "1000000", "-s", "1")
    assert status == 0 and out == "2\n"
    status, _, err = run(capsys, "count", "-p", "3", "-m", "1000000", "-s", "2")
    assert status == 2 and "cap" in err
    assert time.perf_counter() - start < 2


def test_count_cap_admits_3_1_12_and_refuses_3_1_13():
    # (3, 1, 12) has 63,391 digits, (3, 1, 13) has 190,172
    assert _count_digits(3, 1, 12) <= cli.COUNT_DIGITS_CAP < _count_digits(3, 1, 13)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-p", "3", "-m", "40", "-s", "1", "--limit", "1"),
        ("negacyclic", "-p", "3", "-m", "40", "-s", "1", "--limit", "1"),
        ("verify", "-p", "3", "-m", "40", "-s", "1", "--limit", "1"),
    ],
)
def test_large_fields_stream_at_once(capsys, argv):
    start = time.perf_counter()
    status, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert status == 0 and len(out.splitlines()) == 1


# -- large primes are decided at once

@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-p", "1000000000000000003", "-m", "1", "-s", "1"),
        ("enumerate", "-p", "1000000000000000003", "-m", "1", "-s", "1", "--limit", "1"),
        ("negacyclic", "-p", "1000000000000000003", "-m", "1", "-s", "1", "--limit", "1"),
        ("verify", "-p", "1000000000000000003", "-m", "1", "-s", "1", "--limit", "1"),
        ("build", "-p", "1000000000000000003", "-m", "1", "-s", "1", "--k", "0"),
        ("enumerate", "-p", "1000000000000000003", "-m", "1", "-s", "1", "--sample", "1"),
        # no x^4 + c is irreducible at p = 3 mod 4: the modulus search
        # would scan about p candidates, so the size cap is checked first
        ("enumerate", "-p", "1000000000000000003", "-m", "4", "-s", "1", "--limit", "1"),
        ("build", "-p", "1000000000000000003", "-m", "4", "-s", "1", "--k", "0"),
        ("enumerate", "-p", "1000000000000000003", "-m", "4", "-s", "1", "--sample", "1"),
        ("count", "-p", "3317044064679887385961983", "-m", "1", "-s", "1"),
    ],
)
def test_large_primes_are_refused_at_once(capsys, argv):
    start = time.perf_counter()
    status, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert status == 2 and out == "" and err.startswith("error: ")


def test_gmatrix_of_a_large_prime(capsys):
    status, out, _ = run(capsys, "gmatrix", "-p", "1000000000000000003", "--lambda", "0")
    assert status == 0 and out.strip() == "1"


# -- numpy on first use: count and every refusal run without it

_SRC = str(Path(cli.__file__).resolve().parents[1])

_NUMPY_FREE = [
    ["count", "-p", "3", "-m", "1", "-s", "8"],
    ["count", "-p", "3", "-m", "1", "-s", "8", "--format", "json"],
    ["count", "-p", "3", "-m", "1", "-s", "8", "--format", "csv"],
    ["count", "-p", "1000000000000000003", "-m", "1", "-s", "1"],
    ["count", "-p", "3", "-m", "1", "-s", "10", "--format", "csv"],
    ["count", "-p", "9", "-m", "1", "-s", "2"],
    ["enumerate", "-p", "3", "-m", "1", "-s", "7", "--limit", "1"],
    ["verify", "-p", "3", "-m", "1", "-s", "7", "--limit", "1"],
    ["build", "-p", "3", "-m", "1", "-s", "7", "--k", "0"],
    ["enumerate", "-p", "3", "-m", str(MAX_EXTENSION_DEGREE + 1), "-s", "1", "--limit", "1"],
    ["enumerate", "-p", "1000000000000000003", "-m", "4", "-s", "1", "--limit", "1"],
]


def _in_a_child(script, *args):
    """Runs ``script`` in a fresh interpreter that imports sdcyclic from
    this checkout; returns its stdout as json."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    run = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(run.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-p", "3", "-m", "1", "-s", "100000000000"),
        ("gmatrix", "-p", "3", "--lambda", "100000000000"),
        ("gmatrix", "-p", "3", "--lambda", "10000"),
        ("gmatrix", "-p", "3", "--l", "1000000000000000000", "--delta", "3"),
    ],
)
def test_a_length_far_above_the_size_cap_is_refused_at_once(argv):
    """p**lam is never built for the refusal, nor anything of length l."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    run = subprocess.run(
        [sys.executable, "-m", "sdcyclic.cli", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: p**lam = 3**") and run.stderr.endswith(" exceeds size cap 2048\n")


def test_count_and_refusals_leave_numpy_unloaded():
    script = (
        "import contextlib, io, json, sys\n"
        "from sdcyclic.cli import dispatch\n"
        "statuses = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        statuses.append(dispatch(argv))\n"
        "print(json.dumps([statuses, sorted(n for n in sys.modules if n.startswith('numpy.'))]))\n"
    )
    statuses, loaded = _in_a_child(script, json.dumps(_NUMPY_FREE))
    assert statuses == [0, 0, 0] + [2] * (len(_NUMPY_FREE) - 3)
    assert loaded == []


def test_importing_the_package_loads_every_module_but_not_numpy():
    """``import sdcyclic`` puts every library module in ``sys.modules``
    (their bodies run on first use, see ``tests/test_api.py``)."""
    script = (
        "import json, sys\n"
        "import sdcyclic\n"
        "library = sorted(n for n in sys.modules if n.startswith('sdcyclic.'))\n"
        "import sdcyclic.cli\n"
        "every = sorted(n for n in sys.modules if n.startswith('sdcyclic.'))\n"
        "print(json.dumps([library, every, sorted(n for n in sys.modules if n.startswith('numpy.'))]))\n"
    )
    library, every, loaded = _in_a_child(script)
    names = ["binomial", "chainring", "counting", "enumerator", "fieldcore", "gmatrix", "reciprocal"]
    assert library == sorted(f"sdcyclic.{n}" for n in names)
    assert every == sorted(library + ["sdcyclic.cli"]) and loaded == []


# Every subcommand, in process, in an interpreter where importing numpy
# fails: each prints what the same argv prints with numpy importable.
_EVERY_COMMAND = [
    ["gmatrix", "-p", "5", "--lambda", "2", "--minus-i"],
    ["gmatrix", "-p", "7", "--l", "30", "--format", "json"],
    ["gmatrix", "-p", "3", "--l", "40", "--delta", "13"],
    ["count", "-p", "3", "-m", "1", "-s", "6", "--format", "csv"],
    ["enumerate", "-p", "3", "-m", "2", "-s", "2", "--limit", "30", "--format", "json"],
    ["enumerate", "-p", "5", "-m", "1", "-s", "2", "--sample", "5", "--seed", "3"],
    ["build", "-p", "3", "-m", "1", "-s", "3", "--k", "2", "--params", "1,2,0,1,1"],
    ["verify", "-p", "3", "-m", "1", "-s", "3", "--offset", "100", "--limit", "40"],
    ["verify", "-p", "3", "-m", "2", "-s", "2", "--all", "--negacyclic"],
    ["negacyclic", "-p", "3", "-m", "1", "-s", "3", "--limit", "20"],
]


def test_every_subcommand_runs_with_numpy_blocked(capsys):
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None  # any numpy import now raises\n"
        "from sdcyclic.cli import dispatch\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        status = dispatch(argv)\n"
        "    out.append([status, buf.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    got = _in_a_child(script, json.dumps(_EVERY_COMMAND))
    assert {argv[0] for argv in _EVERY_COMMAND} == {"gmatrix", "count", "enumerate", "build", "verify", "negacyclic"}
    for argv, (status, out) in zip(_EVERY_COMMAND, got):
        assert [status, out] == list(run(capsys, *argv)[:2]), argv


def test_no_subcommand_reads_a_level_matrix(capsys, monkeypatch):
    """Every subcommand cuts its matrices and bases from the row kernel:
    with ``g_truncated`` made to raise and the plan cache cold, each
    prints what it printed before."""
    argvs = _EVERY_COMMAND + [["gmatrix", "-p", "3", "--l", "650", "--delta", "300", "--format", "json"]]
    before = [run(capsys, *argv) for argv in argvs]
    assert [status for status, _, _ in before] == [0] * len(argvs)
    enumerator._family_plan.cache_clear()

    def level_matrix(p, l):
        raise AssertionError(f"g_truncated({p}, {l}) read on a command path")

    monkeypatch.setattr(gmatrix, "g_truncated", level_matrix)
    for argv, was in zip(argvs, before):
        assert run(capsys, *argv) == was, argv


@pytest.mark.parametrize(
    "argv,read",
    [
        (("enumerate", "-p", "3", "-m", "1", "-s", "4"), "line"),
        (("gmatrix", "-p", "1021", "--lambda", "1"), 10),
    ],
)
def test_a_closed_stdout_ends_quietly_with_the_sigpipe_status(argv, read):
    """`... | head -1`: the reader goes away early.  That is no refusal:
    nothing on stderr (no "Exception ignored" at shutdown either), and
    exit status 141, the status a shell reports for SIGPIPE."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdcyclic.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        first = proc.stdout.readline() if read == "line" else proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141 and err == b""
        assert first
    finally:
        proc.kill()
        proc.wait()


# sha256 of `gmatrix -p 131 --l L --format F` as printed by the one-grid
# writer (commit b76343b), before matrices were written in row blocks
_GMATRIX_DIGESTS = {
    (1, "text"): "3e095d907042dd4a1ef58c286490b3f3ff0067ee2e25322fdb69a8b142b42143",
    (1, "json"): "0b3be69a48ffd63f56a6a23d472d0bbd417f44d3b409a6afd317c66bdb4ae978",
    (63, "text"): "1dbd55e07be23e5155cb57e42517e01abff681dba974514cb56c76103127f773",
    (63, "json"): "70566d5b19a27254622427aa3471ae9a6fdac7e071d8f6511781c3d77468f318",
    (64, "text"): "51db45f71a0d01f9c8bd116874c2cc37859c92245f6f03262b589a3e1aa1a063",
    (64, "json"): "aa3c5386b90e3099b4aceb53472b83e87f1d6eb8e247c360795d6c10e8a1a41b",
    (65, "text"): "ae30e3a86f2e4a506a439d5cf8ff15d0545c463f56608c6f248c5e08e4199341",
    (65, "json"): "88197b52e044c548f18e682c2cf87c14b37dfa73294582d6f147a6b04243cf0b",
    (129, "text"): "6058283937f6730401ed48a395a43adef840d648c489a47f1849c16c424ff442",
    (129, "json"): "23148e8a4ac20425cc3dff7c93d5fb0f98196fe8ce0ae9d4cfe2e71e57c41ca2",
}


@pytest.mark.parametrize("rows,fmt", sorted(_GMATRIX_DIGESTS))
def test_row_blocks_equal_the_one_grid_output(tmp_path, capsys, rows, fmt):
    assert gmatrix.MATRIX_BLOCK_ROWS == 64
    status, out, _ = run(capsys, "gmatrix", "-p", "131", "--l", str(rows), "--format", fmt)
    assert status == 0 and hashlib.sha256(out.encode()).hexdigest() == _GMATRIX_DIGESTS[rows, fmt]
    path = tmp_path / "g.txt"
    status, printed, _ = run(capsys, "gmatrix", "-p", "131", "--l", str(rows), "--format", fmt, "--out", str(path))
    assert status == 0 and printed == "" and path.read_bytes() == out.encode()
    mat = g_truncated(131, rows)
    blocks = (block for _, block in gmatrix._g_rows(131, rows))
    pieces = list(cli._matrix_chunks(131, rows, rows, blocks, fmt))
    assert len(pieces) == -(-rows // 64) + (2 if fmt == "json" else 0)
    if fmt == "text":
        assert "".join(pieces) == _matrix_text_per_entry(131, mat)
    else:
        assert "".join(pieces) == _matrix_json(131, mat)
