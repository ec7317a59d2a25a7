"""The package namespace: `import segrekit` is cheap, and the first public
name looked up loads the whole library.  Each check runs in a fresh
interpreter (-S, so no .pth file imports anything first), except the
README's library example, which runs here."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import segrekit

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

LIBRARY = ["segrekit.jordan", "segrekit.linalg", "segrekit.partitions",
           "segrekit.rank_analysis", "segrekit.render", "segrekit.segre"]

PRELUDE = """\
import sys
sys.path.insert(0, sys.argv[1])
def loaded():
    return sorted(m for m in sys.modules if m.startswith("segrekit."))
"""


def run_fresh(code: str) -> str:
    done = subprocess.run([sys.executable, "-S", "-c", PRELUDE + code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_import_loads_no_module():
    assert run_fresh("import segrekit\nprint(loaded())\n") == "[]\n"


def test_first_public_name_loads_the_whole_library():
    out = run_fresh("import segrekit\n"
                    "segrekit.Partition\n"
                    "print(loaded())\n"
                    "print(all(n in vars(segrekit) for n in segrekit.__all__))\n")
    assert out == f"{LIBRARY}\nTrue\n"


def test_star_import_binds_exactly_all():
    out = run_fresh("import segrekit\n"
                    "ns = {}\n"
                    "exec('from segrekit import *', ns)\n"
                    "print(sorted(set(ns) - {'__builtins__'}) "
                    "== sorted(segrekit.__all__))\n"
                    "print(ns['analyze'] is sys.modules['segrekit.jordan'].analyze)\n")
    assert out == "True\nTrue\n"


def test_unknown_name_raises_and_loads_nothing():
    out = run_fresh("import segrekit\n"
                    "try:\n"
                    "    segrekit.no_such_name\n"
                    "except AttributeError as exc:\n"
                    "    print(exc)\n"
                    "print(hasattr(segrekit, '__wrapped__'), loaded())\n")
    assert out == ("module 'segrekit' has no attribute 'no_such_name'\n"
                   "False []\n")


def test_first_lookups_from_eight_threads_agree():
    out = run_fresh("import threading\n"
                    "sys.setswitchinterval(1e-6)\n"
                    "import segrekit\n"
                    "start = threading.Barrier(8)\n"
                    "seen = []\n"
                    "def look():\n"
                    "    start.wait()\n"
                    "    seen.append(tuple(id(getattr(segrekit, n))\n"
                    "                      for n in segrekit.__all__))\n"
                    "threads = [threading.Thread(target=look) for _ in range(8)]\n"
                    "for t in threads: t.start()\n"
                    "for t in threads: t.join()\n"
                    "final = tuple(id(getattr(segrekit, n)) for n in segrekit.__all__)\n"
                    "print(len(seen), set(seen) == {final}, loaded())\n")
    assert out == f"8 True {LIBRARY}\n"


def test_internal_inconsistency_error_is_one_class():
    out = run_fresh("import segrekit\n"
                    "import segrekit.linalg, segrekit.partitions\n"
                    "print(segrekit.InternalInconsistencyError\n"
                    "      is segrekit.linalg.InternalInconsistencyError\n"
                    "      is segrekit.partitions.InternalInconsistencyError)\n")
    assert out == "True\n"


def test_module_names_import_their_modules():
    # as when the package imported every module itself: a module's name
    # loads the library, so a tool that wraps the library's functions
    # (bench/tracing.py) finds all of them after `from segrekit import cli`
    out = run_fresh("from segrekit import cli\n"
                    "print(cli.__name__, loaded())\n")
    assert out == f"segrekit.cli {sorted(LIBRARY + ['segrekit.cli'])}\n"
    out = run_fresh("from segrekit import linalg\n"
                    "print(linalg.__name__, loaded())\n")
    assert out == f"segrekit.linalg {LIBRARY}\n"


def test_readme_names_every_public_name():
    # a public name is one the README promises
    text = README.read_text(encoding="utf-8")
    assert [name for name in segrekit.__all__
            if not re.search(rf"\b{name}\b", text)] == []


def test_readme_library_example():
    text = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {}
    for line in example.splitlines():
        code, _, comment = line.partition("#")
        comments[code.strip()] = comment.strip()
    # each expression statement's value, by its text
    ns, values = {}, {}
    for node in ast.parse(example).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(example, node)] = eval(
                compile(ast.Expression(node.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
    checks = {
        "count_segre_gf(10)": ("817", lambda v: v == 817),
        "enumerate_segre(3)": ("six characteristics", lambda v: len(v) == 6),
        "next(iter_segre(30))": ("[(30)]", lambda v: str(v) == "[(30)]"),
        "str(report.segre)": ("'[(3),(2,1)]'", lambda v: v == "[(3),(2,1)]"),
        "report.per_eigenvalue[1].rank_pattern.ranks":
            ("(6, 4, 3)", lambda v: v == (6, 4, 3)),
    }
    assert values.keys() == checks.keys()
    for code, (said, holds) in checks.items():
        assert comments[code].startswith(said), code
        assert holds(values[code]), (code, values[code])
    assert ns["a"].rows == ns["a"].cols == 6
