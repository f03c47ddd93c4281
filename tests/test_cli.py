"""End-to-end CLI tests: real subprocesses, exit codes, and JSON contracts."""

import ast
import hashlib
import importlib
import json
import os
import resource
import shlex
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import mpmath
import pytest

import gammagenus
from gammagenus import cli


GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
README = Path(__file__).resolve().parent.parent / "README.md"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gammagenus", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_qgenus_text():
    res = run_cli("qgenus", "--max", "2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "Q_1 = γ c_1"
    assert lines[1] == "Q_2 = 1/6 π^2 c_2 + (1/2 γ^2 - 1/12 π^2) c_1^2"


def test_qgenus_ascii():
    res = run_cli("qgenus", "--max", "1", "--ascii")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "Q_1 = gamma c_1"


def test_qgenus_cy_text():
    res = run_cli("qgenus", "--max", "4", "--cy")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "Q_2[c_1=0] = ζ(2) c_2"
    assert lines[1] == "Q_3[c_1=0] = ζ(3) c_3"
    assert lines[2] == "Q_4[c_1=0] = ζ(4) c_4 + ζ(2,2) c_2^2"


def test_qgenus_json():
    res = run_cli("qgenus", "--max", "3", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert [entry["degree"] for entry in payload] == [1, 2, 3]
    q1 = payload[0]["terms"]
    assert q1 == [
        {
            "c_partition": [1],
            "coeff": [{"monomial": {"gamma": 1}, "coeff": "1/1"}],
        }
    ]


def test_qgenus_cy_json():
    res = run_cli("qgenus", "--max", "4", "--cy", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert [entry["degree"] for entry in payload] == [2, 3, 4]
    deg4 = {tuple(t["c_partition"]): t["mzv_terms"] for t in payload[2]["terms"]}
    assert deg4[(2, 2)] == [{"args": [2, 2], "coeff": "1/1"}]


def test_qgenus_json_deterministic():
    a = run_cli("qgenus", "--max", "4", "--format", "json")
    b = run_cli("qgenus", "--max", "4", "--format", "json")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_qgenus_usage_errors():
    res = run_cli("qgenus", "--max", "0")
    assert res.returncode == 2
    assert "--max must be between" in res.stderr
    res = run_cli("qgenus", "--max", "13")
    assert res.returncode == 2
    res = run_cli("qgenus", "--max", "1", "--cy")
    assert res.returncode == 2


def test_qgenus_degree_budget_fits_in_1gb():
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    res = subprocess.run(
        [sys.executable, "-m", "gammagenus", "qgenus", "--max", "12"],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=cap_address_space,
    )
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 12
    assert _sha256(res.stdout) == (
        "3bae639d52afce93ee9671e3282574b619ca2258bfda5d33f53390e0f64b457c"
    )


def test_stuffle_past_its_budget_is_refused_before_any_work():
    # D(10, 10) = 8 097 453 terms: unrefused, this pair exhausts 2 GB
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    ones, twos = ",".join(["1"] * 10), ",".join(["2"] * 10)
    res = subprocess.run(
        [sys.executable, "-m", "gammagenus", "stuffle", "--left", ones, "--right", twos],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=cap_address_space,
    )
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == (
        "stuffle: a product of words of lengths 10 and 10 builds more than "
        "STUFFLE_BUDGET = 20000000 letters\n"
    )


def test_qgenus_and_stuffle_never_load_numpy():
    script = (
        "import sys\n"
        "from gammagenus import cli\n"
        "codes = [cli.main(['qgenus', '--max', '4'])]\n"
        "unused = [m for m in ('gammagenus.verify', 'gammagenus.numeric')\n"
        "          if m in sys.modules]\n"
        "codes.append(cli.main(['stuffle', '--left', '2', '--right', '3']))\n"
        "loaded = ['numpy' in sys.modules]\n"
        "codes.append(cli.main(['mzv', '--args', '2', '--tol', '1e-8']))\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(codes, loaded, unused)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0] [False, True] []"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_starts_no_blas_worker_unless_asked(preset, expected):
    # the summation kernel calls no BLAS, and an idle OpenBLAS worker spins
    # while numpy loads; a value the user set wins.  The child's env is built
    # here, since in-process cli.main calls set the variable in this process.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = (
        "import os\n"
        "from gammagenus import cli\n"
        "code = cli.main(['mzv', '--args', '2,2', '--tol', '1e-8'])\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), threads)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    code, value, threads = res.stdout.splitlines()[-1].split()
    assert (code, value) == ("0", expected)
    if preset is None and threads != "None":
        assert threads == "1"


# the package modules each command loads, beyond `gammagenus` and `cli`
BASE_MODULES = {"partitions", "rationals", "render", "symfunc", "zetaring"}
COMMAND_MODULES = {
    "import": ((), set()),
    "qgenus": (("qgenus", "--max", "4"), BASE_MODULES | {"genus"}),
    "qgenus-cy": (("qgenus", "--max", "4", "--cy"), BASE_MODULES | {"genus"}),
    "mzv": (("mzv", "--args", "2", "--tol", "1e-8"), BASE_MODULES | {"numeric"}),
    "stuffle": (("stuffle", "--left", "2", "--right", "3"), BASE_MODULES | {"words"}),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_what_it_runs(command):
    argv, expected = COMMAND_MODULES[command]
    run = f"cli.main({list(argv)!r})" if argv else "0"
    script = (
        "import sys\n"
        "from gammagenus import cli\n"
        f"code = {run}\n"
        "print(code, sorted(m[11:] for m in sys.modules\n"
        "                   if m.startswith('gammagenus.')),\n"
        "      [m for m in ('dataclasses', 'json') if m in sys.modules])\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == f"0 {sorted(expected | {'cli'})} []"


def test_package_names_load_on_first_use():
    # `import gammagenus` loads no submodule; `from gammagenus import *`
    # binds every name of __all__ to the object its module defines
    script = (
        "import sys, gammagenus\n"
        "loaded = [m for m in sys.modules if m.startswith('gammagenus.')]\n"
        "names = {}\n"
        "exec('from gammagenus import *', names)\n"
        "wrong = [n for n in gammagenus.__all__ if names.get(n) is not\n"
        "         getattr(sys.modules['gammagenus.' + gammagenus._HOME[n]], n)]\n"
        "print(loaded, wrong, len(gammagenus.__all__))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[] [] 46"


# every lru_cache in the package, by module: adding or dropping one is a
# declared change, and these are the caches process-level stats would read
CACHES = {
    "numeric": {"_plan", "_rung_sums", "generator_value"},
    "partitions": {"partitions_of"},
    "symfunc": {"_coefficient", "_m_in_e", "_m_in_p"},
    "words": {"_stuffle_words"},
    "zetaring": {"_power_sum_images", "bernoulli"},
}


def test_cache_inventory():
    found = {}
    for path in sorted(Path(gammagenus.__file__).parent.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"gammagenus.{path.stem}")
        names = {
            name
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        }
        if names:
            found[path.stem] = names
    assert found == CACHES


def test_only_the_shared_word_table_grows(capsys):
    # cache_info() sees only lru_caches; a memo kept in a module-level dict,
    # list or set shows here as a table that grew while the CLI ran
    from gammagenus.words import _SHARED, _stuffle_words

    _stuffle_words.cache_clear()
    _SHARED.clear()
    modules = [
        importlib.import_module(f"gammagenus.{path.stem}")
        for path in sorted(Path(gammagenus.__file__).parent.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]

    def sizes():
        return {
            f"{module.__name__.split('.')[-1]}.{name}": len(obj)
            for module in modules
            for name, obj in vars(module).items()
            if isinstance(obj, (dict, list, set)) and not name.startswith("__")
        }

    before = sizes()
    for argv in (
        ["qgenus", "--max", "4"],
        ["qgenus", "--max", "4", "--cy"],
        ["mzv", "--args", "6,2", "--tol", "1e-8"],
        ["stuffle", "--left", "2,1", "--right", "3"],
        ["verify", "--suite", "all"],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    after = sizes()
    grew = [name for name in after if after[name] > before.get(name, 0)]
    assert grew == ["words._SHARED"]


def test_every_definition_is_used():
    # every top-level def and class and every method, dunders aside, is
    # public or named again in the package or the benchmark;
    # a name counts where the syntax tree holds it as a name, an attribute, a
    # definition or an import, so f-string fields count and docstrings,
    # comments and strings do not; a use of another definition of the same
    # name still counts, so this catches code nothing names, not every unused one
    root = Path(__file__).resolve().parent.parent
    package = sorted((root / "src" / "gammagenus").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in package + sorted((root / "perfbench").glob("*.py"))
    }
    names = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] += 1
            elif isinstance(node, ast.alias):
                names.update(filter(None, [*node.name.split("."), node.asname]))
    kept = set(gammagenus.__all__)
    dead = []
    for path in package:
        for node in trees[path].body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if not isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if d.name.startswith("__") and d.name.endswith("__"):
                    continue
                if d.name not in kept and names[d.name] < 2:
                    dead.append(f"{path.name}:{d.name}")
    assert dead == []


def test_no_package_import_inside_a_function():
    # the module headers are the whole import graph, so it stays acyclic in
    # plain sight; only cli.py imports inside functions, each command what it
    # runs, and third-party imports such as numpy's are not counted
    hidden = set()
    for path in sorted(Path(gammagenus.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    heads = [node.module or ""] if not node.level else ["gammagenus"]
                elif isinstance(node, ast.Import):
                    heads = [alias.name for alias in node.names]
                else:
                    continue
                if any(h.split(".")[0] == "gammagenus" for h in heads):
                    hidden.add(f"{path.name}:{func.name}")
    assert sorted(hidden) == []


def test_numpy_is_imported_only_by_the_summation_kernel():
    # numpy is the one runtime dependency; these are the uses left to drop
    users = set()
    for path in sorted(Path(gammagenus.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [
            f
            for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                heads = [node.module or ""]
            elif isinstance(node, ast.Import):
                heads = [alias.name for alias in node.names]
            else:
                continue
            if any(h.split(".")[0] == "numpy" for h in heads):
                where = [f.name for f in funcs if node in ast.walk(f)]
                users.add(f"{path.stem}.{where[-1] if where else '<module>'}")
    assert sorted(users) == [
        "numeric._dp_sum",
        "numeric._one_block",
        "numeric._power_row",
    ]


GOLDEN_COMMANDS = {
    "qgenus-10": ("qgenus", "--max", "10"),
    "verify-all": ("verify", "--suite", "all"),
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_benchmark_golden(golden):
    res = run_cli(*GOLDEN_COMMANDS[golden])
    assert res.returncode == 0, res.stderr
    assert _sha256(res.stdout) == json.loads(GOLDENS.read_text())[golden]


# stdout digests of outputs the benchmark goldens do not cover; the stuffle
# pair has coefficient-2 terms, so its rendered coefficients are pinned too,
# and the verify JSON carries the numeric checks' printed values
STDOUT_SHA256 = {
    "qgenus-10-json": (
        ("qgenus", "--max", "10", "--format", "json"),
        "f853acd1aff5d210c19c67aad6629a67b4f680d934a9fe145ffcc4796612da72",
    ),
    "qgenus-10-cy-json": (
        ("qgenus", "--max", "10", "--cy", "--format", "json"),
        "624f844baad40b39b66e513937c3c05483979be23616d6ddd5e163c99c14786a",
    ),
    "qgenus-12-json": (
        ("qgenus", "--max", "12", "--format", "json"),
        "211c506c2ec223a5304b019ad40b4b6bd8361193375e531e9fe0a940c6ee2718",
    ),
    "qgenus-12-cy-json": (
        ("qgenus", "--max", "12", "--cy", "--format", "json"),
        "1e0e451398eaec5b4ce5498ee00e0f2ba088aeba937d64540ba2602706e11995",
    ),
    "qgenus-10-ascii": (
        ("qgenus", "--max", "10", "--ascii"),
        "67742dbfadcab08d8d6da2fad9db17b86ff79460a0620f59910670893caed059",
    ),
    "qgenus-10-cy-ascii": (
        ("qgenus", "--max", "10", "--cy", "--ascii"),
        "fbceb992bf167c685d25381e326228e9821480568864ef85599b3da8bceaf1c3",
    ),
    "qgenus-10-cy": (
        ("qgenus", "--max", "10", "--cy"),
        "1cf6d50e7875363c2e1a6606ffe4df13935efebfda49b72c847d17fc778054ae",
    ),
    "qgenus-12-cy": (
        ("qgenus", "--max", "12", "--cy"),
        "93b0c158fd44e7bb3ec70b6d23ebde7b546a9fc0755d5a9b9cfa92be51764a24",
    ),
    "mzv-62": (
        ("mzv", "--args", "6,2", "--tol", "1e-8"),
        "71c85594c0c6b3cde59ff899e15f1ecf346deca5b3d9b94f8f6f154235d97285",
    ),
    "mzv-62-json": (
        ("mzv", "--args", "6,2", "--tol", "1e-8", "--format", "json"),
        "2a15a74aac08da9f041ec1ebe115b888e1aff796eddc5a102b375b52e9f2ae7b",
    ),
    "verify-all-json": (
        ("verify", "--suite", "all", "--format", "json"),
        "0e39f293409b28bfb288df701c398ad0d3cb8ba294121804fe65da95dec04f56",
    ),
    "stuffle-213-31": (
        ("stuffle", "--left", "2,1,3", "--right", "3,1"),
        "bc528d489adcbbd0dbc3a462ef4b5f725f7e7aca4f3954f4616aa7bd94707ba9",
    ),
    "stuffle-213-31-json": (
        ("stuffle", "--left", "2,1,3", "--right", "3,1", "--format", "json"),
        "3b41cfd0240d0d52efadbc91d249f340c8065c829cef172512e5e744f2cd9aee",
    ),
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_stdout_matches_digest(name):
    args, digest = STDOUT_SHA256[name]
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    assert _sha256(res.stdout) == digest


def _readme_examples():
    """(command, shown lines) for each README block that starts "$ gammagenus".

    A "..." line ends what the block shows; a block without one shows the
    whole output.
    """
    examples = []
    for block in README.read_text(encoding="utf-8").split("```")[1::2]:
        first, *shown = block.strip("\n").splitlines()
        if first.startswith("$ gammagenus "):
            examples.append((first.removeprefix("$ gammagenus "), shown))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_its_examples():
    assert [cmd.split()[0] for cmd, _ in README_EXAMPLES] == [
        "qgenus", "qgenus", "mzv", "stuffle"
    ]


@pytest.mark.parametrize(
    "command, shown", README_EXAMPLES, ids=[cmd for cmd, _ in README_EXAMPLES]
)
def test_readme_example_output(command, shown):
    res = run_cli(*shlex.split(command))
    assert res.returncode == 0, res.stderr
    got = res.stdout.splitlines()
    if "..." in shown:
        shown = shown[: shown.index("...")]
        got = got[: len(shown)]
    assert got == shown


def test_readme_library_block_prints_what_it_shows():
    # each "expr  # shown" line of the Python block, run after the lines above it
    (block,) = [
        b for b in README.read_text(encoding="utf-8").split("```")[1::2]
        if b.startswith("python\n")
    ]
    namespace, checked = {}, 0
    for line in block.removeprefix("python\n").splitlines():
        expr, _, shown = line.partition("  # ")
        if shown:
            assert repr(eval(expr, namespace)) == shown, expr
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 4


def test_crash_has_its_own_exit_code(monkeypatch, capsys):
    def boom(opts):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "cmd_stuffle", boom)
    code = cli.main(["stuffle", "--left", "2", "--right", "3"])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "MemoryError" in err


@pytest.mark.parametrize(
    "args",
    [
        ("qgenus", "--max", "10"),
        ("verify", "--suite", "all"),
        ("mzv", "--args", "2", "--tol", "1e-8"),
        ("qgenus", "--max", "12", "--format", "json"),
    ],
)
def test_closed_stdout_is_not_an_internal_error(args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "gammagenus", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert res.stderr == ""
    assert res.returncode == cli.EXIT_OK


# `verify --suite all` runs the words suite in a forked worker only in a
# single-threaded process, so these cases run in a fresh interpreter, with
# one cheap check per suite.  `setup` may replace a check or break the
# process; the last stderr line is the exit code, the forks taken and
# whether no child was left unreaped after cli.main returned.
FORK_SCRIPT = """\
import os, signal, sys
from gammagenus import cli, verify

forks = []
real_fork = os.fork

def fork():
    forks.append(real_fork())
    return forks[-1]

def symbolic_check():
    return True, "", "", ""

words_check = numeric_check = symbolic_check

os.fork = fork
{setup}
verify.CHECKS = (
    ("symbolic", "sym.case", "symbolic case", symbolic_check),
    ("words", "words.case", "words case", words_check),
    ("numeric", "num.case", "numeric case", numeric_check),
)
sys.stdout.write("written before verify\\n")
code = cli.main(["verify", "--suite", "{suite}"])
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(code, len(forks), reaped, file=sys.stderr)
"""


def _run_fork_script(setup, suite="all"):
    """(exit code, forks, reaped, stdout, other stderr lines) of FORK_SCRIPT,
    its stdout block-buffered as a pipe's is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    res = subprocess.run(
        [sys.executable, "-c", FORK_SCRIPT.format(setup=setup, suite=suite)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert res.returncode == 0, res.stderr
    *err, summary = res.stderr.splitlines()
    code, forks, reaped = summary.split()
    return int(code), int(forks), reaped == "True", res.stdout, err


def test_verify_all_runs_words_in_a_reaped_worker():
    # the worker leaves by os._exit, so the line this process buffered
    # before the fork is written once; where os.fork is missing the suites
    # run in turn and print the same lines
    for setup, want_forks in (("", 1), ("del os.fork", 0)):
        code, forks, reaped, out, err = _run_fork_script(setup)
        assert (code, forks, reaped, err) == (0, want_forks, True, [])
        assert out.splitlines() == [
            "written before verify",
            "suite: all",
            "[PASS] sym.case: symbolic case",
            "[PASS] words.case: words case",
            "[PASS] num.case: numeric case",
            "3/3 checks passed",
        ]


def test_a_failing_worker_check_is_a_verify_failure():
    setup = "def words_check():\n    raise ValueError('boom')"
    code, forks, reaped, out, err = _run_fork_script(setup)
    assert (code, forks, reaped, err) == (cli.EXIT_VERIFY_FAILED, 1, True, [])
    assert "       actual:   raised ValueError('boom')" in out.splitlines()


@pytest.mark.parametrize(
    "error", ["MemoryError", "RecursionError", "ImportError", "ArrayMemoryError"]
)
def test_worker_out_of_resources_is_the_one_suite_internal_error(error):
    # the worker's exception comes back as it was raised, so a subclass whose
    # name is no builtin's keeps its name
    setup = (
        "class ArrayMemoryError(MemoryError):\n    pass\n"
        f"def words_check():\n    raise {error}('no room')"
    )
    alone = _run_fork_script(setup, suite="words")
    code, forks, reaped, _, err = _run_fork_script(setup)
    assert (code, forks, reaped) == (cli.EXIT_INTERNAL, 1, True)
    assert err == alone[4] == [f"gammagenus: internal error: {error}: no room"]


@pytest.mark.parametrize(
    "setup, want",
    [
        ("def words_check():\n    os.kill(os.getpid(), signal.SIGKILL)",
         "RuntimeError: the words suite's worker ended with exit code -9"),
        ("import pickle\nreal_dumps = pickle.dumps\n"
         "pickle.dump = lambda obj, file: file.write(real_dumps(obj)[:-1])",
         "UnpicklingError: "),
    ],
    ids=["killed", "cut-message"],
)
def test_a_lost_worker_is_an_internal_error(setup, want):
    code, forks, reaped, _, err = _run_fork_script(setup)
    assert (code, forks, reaped) == (cli.EXIT_INTERNAL, 1, True)
    assert len(err) == 1 and err[0].startswith(f"gammagenus: internal error: {want}")


@pytest.mark.parametrize(
    "setup, want",
    [
        ("def numeric_check():\n    raise MemoryError('no room')",
         ["gammagenus: internal error: MemoryError: no room"]),
        ("sys.modules['numpy'] = None\n"
         "def numeric_check():\n    import numpy",
         ["gammagenus: internal error: ModuleNotFoundError: "
          "import of numpy halted; None in sys.modules"]),
        ("read_end, write_end = os.pipe()\nos.dup2(write_end, 1)\n"
         "os.close(read_end)\nos.close(write_end)", []),
    ],
    ids=["numeric-raises", "no-numpy", "closed-stdout"],
)
def test_the_worker_is_reaped_when_this_process_fails(setup, want):
    code, forks, reaped, _, err = _run_fork_script(setup)
    assert (code, forks, reaped, err) == (
        cli.EXIT_INTERNAL if want else cli.EXIT_OK, 1, True, want
    )


def test_a_threaded_caller_runs_verify_all_without_forking(monkeypatch, capsys):
    # fork copies only the calling thread, and any lock another thread held
    def no_fork():
        raise AssertionError("forked beside a second thread")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(300,))
    other.start()
    try:
        code = cli.main(["verify", "--suite", "all"])
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_OK, "")
    assert _sha256(out) == json.loads(GOLDENS.read_text())["verify-all"]


def test_mzv_text():
    res = run_cli("mzv", "--args", "2", "--tol", "1e-8")
    assert res.returncode == 0
    assert res.stdout.startswith("zeta(2) = 1.6449340")
    assert "+/-" in res.stdout


def test_mzv_printed_interval_holds_the_true_value(capsys):
    # the printed digits, not the float behind them, are what a reader gets
    misses = []
    with mpmath.workdps(40):
        for k in range(2, 13):
            true = mpmath.zeta(k)
            for tol in ("1e-8", "1e-9", "1e-10", "1e-11", "1e-12"):
                assert cli.main(["mzv", "--args", str(k), "--tol", tol]) == cli.EXIT_OK
                line = capsys.readouterr().out.strip()
                value, bound = line.split(" = ")[1].split(" +/- ")
                if abs(mpmath.mpf(value) - true) > mpmath.mpf(bound):
                    misses.append(line)
                assert float(bound) <= float(tol), line
    assert misses == []


def test_mzv_json():
    res = run_cli("mzv", "--args", "2,2", "--tol", "1e-6", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert set(data) == {"value", "bound"}
    assert abs(data["value"] - 0.811742425283) < 1e-6 + data["bound"]
    assert 0 < data["bound"] <= 1e-6


def test_mzv_divergent_exit_code():
    for args in ("1,2", "1"):
        res = run_cli("mzv", "--args", args)
        assert res.returncode == 3
        assert res.stderr.startswith(f"mzv: zeta({args}) diverges")


def test_mzv_malformed_args():
    res = run_cli("mzv", "--args", "x")
    assert res.returncode == 2
    assert "cannot parse" in res.stderr
    res = run_cli("mzv", "--args", "")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["mzv", "--args", "0,2"], 2, "mzv: composition entries must be integers >= 1"),
        (["mzv", "--args", ""], 2, "mzv: composition entries must be integers >= 1"),
        (["stuffle", "--left", "0", "--right", "2"], 2,
         "stuffle: word letters must be integers >= 1"),
        (["mzv", "--args", "1,2"], 3, "mzv: zeta(1,2) diverges"),
        # --tol is checked before the composition
        (["mzv", "--args", "1,2", "--tol", "0"], 2, "mzv: --tol must be positive"),
        (["mzv", "--args", "x"], 2, "mzv: cannot parse word 'x'"),
    ],
    ids=["mzv-zero", "mzv-empty", "stuffle-zero", "divergent", "tol-first", "unparsed"],
)
def test_input_errors_carry_the_library_message(argv, code, prefix, capsys):
    # the front end only parses; the library's validators word the refusal
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix)
    assert err.count("\n") == 1


@pytest.mark.parametrize("tol", ["0", "nan"])
def test_mzv_bad_tol(tol):
    res = run_cli("mzv", "--args", "2", "--tol", tol)
    assert res.returncode == 2
    assert "--tol" in res.stderr


def test_mzv_budget_exit_code():
    # honest refusal: the rounding allowance cannot certify 1e-12 here
    res = run_cli("mzv", "--args", "2,1", "--tol", "1e-12")
    assert res.returncode == 2
    assert "for zeta(2,1) needs" in res.stderr
    assert "relax the tolerance" in res.stderr
    assert "budget" not in res.stderr and "max_cutoff" not in res.stderr
    res = run_cli("mzv", "--args", "12", "--tol", "1e-300")
    assert res.returncode == 2
    assert "for zeta(12) needs" in res.stderr


@pytest.mark.parametrize(
    "args, label",
    [("2," + ",".join(["1"] * 200), "zeta(2,1,1,"), (str(10**65), "zeta(1000")],
    ids=["two-then-200-ones", "ten-to-the-65"],
)
def test_mzv_refuses_a_bound_that_leaves_the_float_range(args, label):
    res = run_cli("mzv", "--args", args)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"mzv: the error bound for {label}")
    assert "leaves the float range" in res.stderr
    assert "internal error" not in res.stderr


def test_mzv_refusal_names_the_tightest_tolerance():
    res = run_cli("mzv", "--args", "2,1", "--tol", "3.8e-7")
    assert res.returncode == 2
    head, _, tightest = res.stderr.rpartition("the tightest it certifies is ")
    tightest, _, tail = tightest.partition(";")
    assert head.startswith("mzv: tolerance 3.8e-07 for zeta(2,1) needs more than")
    assert tail.strip() == "relax the tolerance"
    assert float(tightest) < 1e-6
    res = run_cli("mzv", "--args", "2,1", "--tol", tightest)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("zeta(2,1) = 1.2020")


def test_stuffle_text():
    res = run_cli("stuffle", "--left", "2", "--right", "6")
    assert res.returncode == 0
    assert res.stdout.strip() == "z_2z_6 + z_6z_2 + z_8"


def test_stuffle_empty_word_is_unit():
    res = run_cli("stuffle", "--left", "1", "--right", "")
    assert res.returncode == 0
    assert res.stdout.strip() == "z_1"


def test_stuffle_json():
    res = run_cli("stuffle", "--left", "2", "--right", "3", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert {"word": [5], "coeff": "1/1"} in data


def test_stuffle_malformed_word():
    res = run_cli("stuffle", "--left", "2,x", "--right", "3")
    assert res.returncode == 2


def test_verify_words_suite():
    res = run_cli("verify", "--suite", "words")
    assert res.returncode == 0
    assert "[PASS]" in res.stdout
    assert "[FAIL]" not in res.stdout
    assert "checks passed" in res.stdout.splitlines()[-1]


def test_verify_json():
    res = run_cli("verify", "--suite", "symbolic", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["suite"] == "symbolic"
    assert data["overall"] == "pass"


def test_verify_unknown_suite():
    res = run_cli("verify", "--suite", "bogus")
    assert res.returncode == 2


def test_no_command_is_usage_error():
    res = run_cli()
    assert res.returncode == 2
