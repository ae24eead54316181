"""A cold section loads only the modules its rows use.

``cli`` binds the seven modules below it lazily (``cli._lazy``): each is in
``sys.modules`` from the start, and is compiled and run only when one of
its attributes is first read.  Each check runs in a fresh process, so no
module is loaded by anything else."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _cold

from epwcalc import cli

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
ALL = {"qfield", "fujiki", "hodge_ring", "llv", "lagrangian", "mukai", "degeneration"}
#: section -> the modules a cold request of it loads
LOADS = {
    "fujiki": {"fujiki", "qfield"},
    "ring": {"fujiki", "hodge_ring", "qfield"},
    "relations": {"fujiki", "hodge_ring", "qfield"},
    "betti": {"llv"},
    "euler": {"llv"},
    "lagrangian": ALL - {"degeneration", "mukai"},
    "fixed-locus": ALL - {"degeneration", "mukai"},
    "walls": {"degeneration", "mukai"},
    "pell": {"degeneration"},
    "ext": {"degeneration", "mukai"},
    "kuranishi": {"degeneration"},
    "symprod": {"degeneration"},
    "f3": ALL - {"mukai"},
    "report-all": ALL,
}
#: argv on the usage path (help or a usage error) -> its exit code and the
#: modules a cold run of it loads: the parser gets the options of the
#: section argv names alone, and of none when argv names no section; an
#: unknown top-level option before the section still names it
USAGE_LOADS = {
    ("--help",): (0, set()),
    ("ring", "--help"): (0, LOADS["ring"]),
    ("ring", "--q", "x"): (2, LOADS["ring"]),
    ("--bogus", "ring", "--q", "x"): (2, LOADS["ring"]),
    ("betti", "--case", "x"): (2, LOADS["betti"]),
    ("fixed-locus", "--bogus"): (2, ALL - {"degeneration", "mukai"}),
}
#: prints the epwcalc modules that are loaded, plain ``ModuleType``s, and
#: those still waiting for a first attribute read, as two JSON lists
_LOADED = (
    "import json, sys, types\n"
    "def loaded(lazy=False):\n"
    "    return sorted(n.partition('.')[2] for n, m in sys.modules.items()\n"
    "                  if n.startswith('epwcalc.') and (type(m) is types.ModuleType) != lazy)\n"
    "print(json.dumps([loaded(), loaded(lazy=True)]), file=sys.stderr)\n")


@pytest.mark.parametrize("section", cli._SECTIONS)
def test_a_cold_section_loads_only_its_modules(section):
    """``python -m epwcalc.cli <section> --json``, run through ``runpy`` as
    ``__main__``; at exit, the loaded modules are the section's and the rest
    are still lazy."""
    code, _, err = _cold("-S", "-c", (
        "import runpy, sys\n"
        f"sys.argv[1:] = [{section!r}, '--json']\n"
        "try:\n"
        "    runpy.run_module('epwcalc.cli', run_name='__main__')\n"
        "finally:\n" + "".join("    " + line + "\n" for line in _LOADED.splitlines())))
    assert code == 0, err
    loaded, lazy = json.loads(err)
    assert set(loaded) == LOADS[section]
    assert set(lazy) == ALL - LOADS[section]


@pytest.mark.parametrize("argv", USAGE_LOADS, ids=" ".join)
def test_help_or_a_usage_error_loads_only_the_named_sections_modules(argv):
    """``python -m epwcalc.cli <argv>`` for help or a usage error exits as
    argparse does, and loads only the modules that the options of the
    section argv names read their defaults from."""
    code, _, err = _cold("-S", "-c", (
        "import runpy, sys\n"
        f"sys.argv[1:] = {list(argv)!r}\n"
        "try:\n"
        "    runpy.run_module('epwcalc.cli', run_name='__main__')\n"
        "finally:\n" + "".join("    " + line + "\n" for line in _LOADED.splitlines())))
    expected_code, loads = USAGE_LOADS[argv]
    assert code == expected_code, err
    loaded, lazy = json.loads(err.splitlines()[-1])
    assert set(loaded) == loads
    assert set(lazy) == ALL - loads


def test_importing_cli_loads_no_section_module():
    """``import epwcalc.cli`` puts every module below it in ``sys.modules``
    and on the package, and loads none of them."""
    code, _, err = _cold("-S", "-c", (
        "import sys, epwcalc, epwcalc.cli\n"
        "assert all(getattr(epwcalc, n) is sys.modules['epwcalc.' + n]\n"
        f"           for n in {sorted(ALL)!r})\n" + _LOADED))
    assert code == 0, err
    assert json.loads(err) == [["cli"], sorted(ALL)]


def test_a_module_imported_before_cli_is_the_one_cli_binds():
    """``cli`` reuses a module already in ``sys.modules``: one ``llv``
    object, so a patch of it is seen through ``cli`` as well."""
    code, out, err = _cold("-S", "-c", (
        "import sys\n"
        "from epwcalc import llv\n"
        "from epwcalc import cli\n"
        "print(cli.llv is llv is sys.modules['epwcalc.llv'])\n"
        "llv.CASES = ('patched',)\n"
        "print(*cli.llv.CASES)\n"))
    assert (code, err) == (0, "")
    assert out.decode().split() == ["True", "patched"]


def test_the_traced_cold_child_runs():
    """The benchmark's traced child (``perfbench/layers.py <fd> <argv>``)
    imports ``cli`` and then patches every traced module by name from
    ``sys.modules``: the lazy modules load then, and the spans of the
    request and of ``llv`` reach the pipe."""
    read, write = os.pipe()
    try:
        proc = subprocess.run([sys.executable, "-B", str(LAYERS), str(write), "betti"],
                              capture_output=True, pass_fds=(write,))
    finally:
        os.close(write)
    with os.fdopen(read) as pipe:
        written = pipe.read()
    assert proc.returncode == 0, proc.stderr.decode()
    assert {"request", "llv"} <= set(json.loads(written))


def test_threads_that_make_the_first_requests_at_once_all_succeed():
    """Eight threads, released together and switching every microsecond,
    each make a fresh process's first ``fixed-locus`` request: each loads
    no module another is still loading (before Python 3.13 a lazy module
    read during its load lacks attributes), and each exits 0."""
    code, out, err = _cold("-S", "-c", (
        "import os, sys, threading\n"
        "from epwcalc import cli\n"
        "sys.setswitchinterval(1e-6)\n"
        "start, codes = threading.Barrier(8), []\n"
        "def client():\n"
        "    start.wait(timeout=60)\n"
        "    codes.append(cli.run(['fixed-locus', '--out', os.devnull]))\n"
        "threads = [threading.Thread(target=client) for _ in range(8)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(timeout=60)\n"
        "print(*codes)\n"))
    assert err == ""
    assert (code, out.decode().split()) == (0, ["0"] * 8)
