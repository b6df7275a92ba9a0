"""The public surface: every name the benchmark's tracer wraps,
``sdcyclic.__all__`` against the list in the README, what importing the
package loads, and the semantics of its record types."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdcyclic
from sdcyclic import CaseDescriptor, CodeSpec, RIdealGens, XPoly, build_code, classify_cases, find_irreducible
from sdcyclic.enumerator import _Block, _block, _FamilyPlan, _family_plan

ROOT = Path(__file__).resolve().parents[1]


def _layertrace():
    """perfbench/layertrace.py, loaded by path: only its tables are read."""
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _readme_names():
    """The backquoted names of the bullets of the README's Public API
    section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("* "):
            names += re.findall(r"`(\w+)`", line.split(":", 1)[1])
    return names


def test_every_name_the_tracer_wraps_exists():
    trace = _layertrace()
    for module in trace.MODULES:
        importlib.import_module(f"sdcyclic.{module}")
    for table in (trace.SPANNED, trace.TIMED, trace.COUNTED):
        for module, names in table.items():
            for dotted in names:
                obj = getattr(sdcyclic, module)
                for part in dotted.split("."):
                    assert hasattr(obj, part), f"sdcyclic.{module}.{dotted}"
                    obj = getattr(obj, part)
                assert callable(obj), f"sdcyclic.{module}.{dotted}"
    # the tracer counts cache misses and calls basis_convert with three
    # positional arguments
    assert callable(sdcyclic.gmatrix.g_truncated.cache_info)
    assert len(inspect.signature(sdcyclic.reciprocal.basis_convert).parameters) == 3


def test_all_is_the_readme_list():
    names = _readme_names()
    assert len(names) == len(set(names)) == 30
    assert sorted(sdcyclic.__all__) == sorted(names)
    assert all(hasattr(sdcyclic, name) for name in names)


# Modules that ``import sdcyclic.cli`` must not load: dataclasses pulls in
# inspect, ast, dis and tokenize; no command loads json, csv or numpy.
_NOT_AT_IMPORT = ("dataclasses", "inspect", "json", "csv", "numpy")


def test_importing_the_cli_loads_no_heavy_module():
    """In a fresh interpreter: ``import sdcyclic.cli`` loads none of
    ``_NOT_AT_IMPORT``, and ``import sdcyclic`` loads every module the
    tracer reads from ``sys.modules`` but the cli, which it imports
    itself."""
    script = (
        "import sys\n"
        "import sdcyclic\n"
        "package = sorted(n for n in sys.modules if n.startswith('sdcyclic.'))\n"
        "import sdcyclic.cli\n"
        f"heavy = sorted(n for n in {_NOT_AT_IMPORT!r} if n in sys.modules)\n"
        "import json\n"
        "print(json.dumps([package, heavy]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True)
    package, heavy = json.loads(run.stdout)
    assert heavy == []
    modules = _layertrace().MODULES
    assert "cli" in modules
    assert {f"sdcyclic.{m}" for m in modules if m != "cli"} <= set(package)


_DESC_FIELDS = ("p", "s", "branch", "sub", "nu", "k", "delta", "l", "j_range", "free_param_count", "t")


def _k1_family():
    """The family with k = 1 at p = 3, s = 2: one free parameter."""
    desc = next(d for d in classify_cases(3, 2) if d.k == 1)
    assert desc.free_param_count == 1
    return desc


def _records(field):
    """One instance of each record type with the names of its fields, in
    order."""
    desc = _k1_family()
    code = build_code(desc, ((2,),), field)
    block = _block(desc, field, ((2,),))
    return [
        (desc, _DESC_FIELDS),
        (code, ("descriptor", "params", "b_coeffs", "generators")),
        (code.b_coeffs, ("field", "l", "coeffs")),
        (code.generators, ("field", "ring_sign", "generators")),
        (_family_plan(desc, field), ("cols", "conv", "widths", "u", "second")),
        (block, ("desc", "field", "ring_sign", "params", "a", "u", "second")),
    ]


def test_records_are_immutable_values_with_a_keyword_repr(f3):
    records = _records(f3)
    assert [type(r) for r, _ in records] == [CaseDescriptor, CodeSpec, XPoly, RIdealGens, _FamilyPlan, _Block]
    for record, names in records:
        fields = {name: getattr(record, name) for name in names}
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        # keyword construction gives an equal, separate record
        again = type(record)(**fields)
        assert again is not record
        assert all(getattr(again, name) is fields[name] for name in names)
        body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(record) == f"{type(record).__name__}({body})"
    for record, names in records[:4]:
        again = type(record)(**{name: getattr(record, name) for name in names})
        assert again == record and hash(again) == hash(record)
    assert records[3][0].n == 9
    assert repr(XPoly(f3, 2, ((1,), (0,)))) == f"XPoly(field={f3!r}, l=2, coeffs=((1,), (0,)))"


def test_an_equal_descriptor_hits_the_plan_cache(f3):
    desc = _k1_family()
    plan = _family_plan(desc, f3)
    twin = CaseDescriptor(*(getattr(desc, name) for name in _DESC_FIELDS))
    assert twin is not desc and twin == desc and hash(twin) == hash(desc)
    hits = _family_plan.cache_info().hits
    assert _family_plan(twin, find_irreducible(3, 1)) is plan
    assert _family_plan.cache_info().hits == hits + 1


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda f: XPoly(f, -1, ()), "modulus exponent must be >= 0, got -1"),
        (lambda f: XPoly(f, 2, ((1,),)), "expected 2 coefficients, got 1"),
        (lambda f: XPoly(f, 2, ((1,), (3,))), "coefficient (3,) is not a reduced F_3^1 tuple"),
        (lambda f: XPoly(field=f, l=1, coeffs=((1, 0),)), "coefficient (1, 0) is not a reduced F_3^1 tuple"),
        (lambda f: RIdealGens(f, 0, ((((1,), (0,)),),)), "ring sign must be +1 or -1, got 0"),
        (lambda f: RIdealGens(f, 1, ()), "at least one generator required"),
        (lambda f: RIdealGens(f, -1, ((),)), "generators must share one positive length"),
        (
            lambda f: RIdealGens(field=f, ring_sign=1, generators=((((1,), (0,)),), ())),
            "generators must share one positive length",
        ),
    ],
)
def test_record_refusals_keep_their_messages(f3, make, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        make(f3)


# -- what runs: each submodule's body runs on its first use ---------------------

_LIBRARY = ("fieldcore", "binomial", "counting", "gmatrix", "reciprocal", "chainring", "enumerator")

# Put before a child's script: ``ran`` lists, in order, each sdcyclic
# module whose body runs, seen through the interpreter's "exec" audit event.
_RAN = (
    "import os, sys\n"
    "ran = []\n"
    "def _hook(event, args):\n"
    "    code = args[0] if event == 'exec' else None\n"
    "    if getattr(code, 'co_name', None) == '<module>':\n"
    "        folder, name = os.path.split(code.co_filename)\n"
    "        if os.path.basename(folder) == 'sdcyclic':\n"
    "            ran.append(name[:-3])\n"
    "sys.addaudithook(_hook)\n"
)


def _child(script, *args):
    """Runs ``_RAN + script`` in a fresh interpreter that imports sdcyclic
    from this checkout; returns its last stdout line as json."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _RAN + script, *args], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_importing_the_cli_runs_no_library_module():
    ran, registered = _child(
        "import json\n"
        "import sdcyclic.cli\n"
        "print(json.dumps([ran, sorted(n for n in sys.modules if n.startswith('sdcyclic.'))]))\n"
    )
    assert ran == ["__init__", "cli"]
    assert {f"sdcyclic.{m}" for m in _LIBRARY} <= set(registered)


def _ran_per_command(argvs):
    """For each argv, run in turn in one child: its exit status and the
    modules whose bodies it ran."""
    return _child(
        "import contextlib, io, json\n"
        "from sdcyclic.cli import dispatch\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    before = len(ran)\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        status = dispatch(argv)\n"
        "    out.append([status, ran[before:]])\n"
        "print(json.dumps(out))\n",
        json.dumps(argvs),
    )


def test_count_runs_neither_the_construction_nor_the_verifier():
    argvs = [
        ["count", "-p", "3", "-m", "1", "-s", "8"],
        ["count", "-p", "3", "-m", "2", "-s", "5", "--format", "json"],
        ["count", "-p", "5", "-m", "1", "-s", "3", "--format", "csv"],
        ["count", "-p", "3", "-m", "1", "-s", "10", "--format", "csv"],
    ]
    (first, *rest), refused = _ran_per_command(argvs[:3]), _ran_per_command(argvs[3:])
    assert first == [0, ["counting", "fieldcore"]]
    assert rest == [[0, []], [0, []]]
    assert refused == [[2, ["counting", "fieldcore"]]]


def test_no_subcommand_imports_json_or_csv():
    """Every subcommand, run in turn in one child that reads its argvs
    without json, writes its json and csv itself."""
    argvs = [
        "gmatrix -p 7 --l 30 --format json",
        "gmatrix -p 3 --l 40 --delta 13 --format json",
        "count -p 3 -m 2 -s 5 --format json",
        "count -p 3 -m 1 -s 6 --format csv",
        "enumerate -p 3 -m 2 -s 2 --limit 30 --format json",
        "enumerate -p 5 -m 1 -s 2 --sample 5 --seed 3 --format json",
        "build -p 3 -m 1 -s 3 --k 2 --params 1,2,0,1,1 --format json",
        "verify -p 3 -m 1 -s 3 --offset 100 --limit 40",
        "negacyclic -p 3 -m 1 -s 3 --limit 20 --format json",
    ]
    assert {argv.split()[0] for argv in argvs} == {"gmatrix", "count", "enumerate", "build", "verify", "negacyclic"}
    script = (
        "import contextlib, io, sys\n"
        "from sdcyclic.cli import dispatch\n"
        "statuses = []\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        statuses.append(dispatch(argv.split()))\n"
        "print(statuses, [n for n in ('json', 'csv') if n in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", script, *argvs], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert run.stdout == f"{[0] * len(argvs)} []\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gmatrix", "-p", "5", "--lambda", "2", "--minus-i"],
        ["gmatrix", "-p", "7", "--l", "30", "--format", "json"],
        ["gmatrix", "-p", "3", "--l", "40", "--delta", "13"],
    ],
)
def test_gmatrix_runs_neither_the_construction_nor_the_verifier(argv):
    [[status, ran]] = _ran_per_command([argv])
    assert status == 0
    assert sorted(ran) == ["counting", "fieldcore", "gmatrix"]


def test_no_subcommand_runs_binomial_and_the_direct_route_does():
    """``binomial`` serves only the entry-formula reference route: every
    subcommand, run in turn in one child, leaves it unrun, and
    ``build_g_direct`` runs it."""
    argvs = [
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
    runs = _ran_per_command(argvs)
    assert [status for status, _ in runs] == [0] * len(argvs)
    assert "binomial" not in {name for _, ran in runs for name in ran}
    assert {argv[0] for argv in argvs} == {"gmatrix", "count", "enumerate", "build", "verify", "negacyclic"}
    ran = _child("import json, sdcyclic\nsdcyclic.build_g_direct(3, 2)\nprint(json.dumps(ran))\n")
    assert "binomial" in ran


def test_no_stream_command_runs_the_verifier_and_verify_does():
    """``enumerator`` imports ``chainring`` only where it hands codes to
    it: ``enumerate``, ``negacyclic``, ``build`` and ``--sample``, run in
    turn in one child, leave it unrun; ``verify`` and the library's
    ``CodeSpec`` stream run it."""
    argvs = [
        ["enumerate", "-p", "3", "-m", "2", "-s", "2", "--limit", "30", "--format", "json"],
        ["enumerate", "-p", "3", "-m", "1", "-s", "4", "--offset", "60", "--limit", "350"],
        ["negacyclic", "-p", "5", "-m", "1", "-s", "2", "--limit", "20", "--format", "json"],
        ["enumerate", "-p", "5", "-m", "1", "-s", "2", "--sample", "5", "--seed", "3"],
        ["build", "-p", "3", "-m", "1", "-s", "3", "--k", "2", "--params", "1,2,0,1,1", "--format", "json"],
        ["verify", "-p", "3", "-m", "1", "-s", "3", "--offset", "100", "--limit", "40"],
    ]
    runs = _ran_per_command(argvs)
    assert [status for status, _ in runs] == [0] * len(argvs)
    assert "chainring" not in {name for _, ran in runs[:-1] for name in ran}
    assert sorted(runs[0][1]) == ["counting", "enumerator", "fieldcore", "gmatrix", "reciprocal"]
    assert runs[-1][1] == ["chainring"]
    ran = _child("import json, sdcyclic\nnext(sdcyclic.enumerate_codes(3, 1, 2))\nprint(json.dumps(ran))\n")
    assert "chainring" in ran


def test_first_reads_of_a_module_from_many_threads_all_see_it_whole():
    """Eight threads read from ``enumerator`` at once, before its body has
    run: it runs once, and every thread finds its last definition."""
    errors, alive, runs, plain = _child(
        "import json, threading, types\n"
        "import sdcyclic\n"
        "module = sys.modules['sdcyclic.enumerator']\n"
        "barrier, errors = threading.Barrier(8), []\n"
        "def work():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        assert callable(module.sample_codes)\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=work) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(30)\n"
        "alive = any(t.is_alive() for t in threads)\n"
        "print(json.dumps([errors, alive, ran.count('enumerator'), type(module) is types.ModuleType]))\n"
    )
    assert (errors, alive, runs, plain) == ([], False, 1, True)


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from sdcyclic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sdcyclic.__all__) and len(namespace) == 30
    assert namespace["count_self_dual"] is sdcyclic.counting.count_self_dual is sdcyclic.enumerator.count_self_dual


def test_the_tracer_still_records_each_layer(tmp_path):
    """``perfbench/tracecli.py`` rebinds the names it wraps in every
    module the package registers, so calls made through the per-command
    imports of the cli are still spanned."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ops = {
        "enumerator.count_self_dual": ["count", "-p", "3", "-m", "1", "-s", "6"],
        "reciprocal.solution_basis": ["enumerate", "-p", "3", "-m", "1", "-s", "2", "--limit", "3"],
        "chainring.span_dimension": ["verify", "-p", "3", "-m", "1", "-s", "2", "--limit", "3"],
    }
    for span, argv in ops.items():
        path = tmp_path / f"{argv[0]}.json"
        env["PERFBENCH_SPANS"] = str(path)
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracecli.py"), *argv],
            env=env,
            capture_output=True,
            timeout=60,
            check=True,
        )
        dump = json.loads(path.read_text())
        names = [dump["names"][s[0]] for s in dump["spans"]]
        assert names[0] == "cli.dispatch" and span in names, (argv, names)
