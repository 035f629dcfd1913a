"""The process entry, what a process prints, and the import footprint, each checked in a fresh interpreter.

The other CLI tests call main(argv) in-process; these start
`python -m quasilocal.cli` and the console-script entry as processes,
check that a process prints its report and nothing else, and read
sys.modules of a fresh interpreter to see what a command loads.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quasilocal
from quasilocal import energy
from quasilocal.cli import main

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(Path(quasilocal.__file__).resolve().parent.parent))
SPHERE = ["--schwarzschild", "m=1,r=4"]
NUMERICS = {"quasilocal.energy", "quasilocal.optimize", "quasilocal.verify"}


def cli(*argv):
    """One `python -m quasilocal.cli` process; stdout and stderr as bytes."""
    return subprocess.run(
        [sys.executable, "-m", "quasilocal.cli", *argv], env=ENV, capture_output=True, timeout=120
    )


def fresh(code: str) -> str:
    """Run code in a fresh interpreter and return its stdout; a failed assertion fails the test."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def in_process(argv, capsys) -> tuple:
    capsys.readouterr()
    status = main(argv)
    return status, capsys.readouterr().out


class TestProcessEntry:
    def test_report_is_byte_identical_to_main(self, capsys):
        proc = cli("energy", *SPHERE)
        status, out = in_process(["energy", *SPHERE], capsys)
        assert (proc.returncode, status) == (0, 0)
        assert proc.stdout == out.encode()
        assert proc.stderr == b""

    def test_failed_suite_exits_two(self):
        proc = cli("verify", "--suite", "theorem1", *SPHERE, "--tau", "0.01*P1")
        assert proc.returncode == 2
        assert b"\npass = false\n" in proc.stdout

    def test_rejected_input_exits_one(self):
        proc = cli("energy", *SPHERE, "--tau", "1e300")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: --tau:")

    def test_out_writes_the_whole_report(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        proc = cli("verify", "--suite", "theorem3", *SPHERE, "--out", str(path))
        status, out = in_process(["verify", "--suite", "theorem3", *SPHERE], capsys)
        assert (proc.returncode, status) == (0, 0)
        assert proc.stdout == f"wrote {path}\n".encode()
        assert path.read_text() == out

    def test_console_script_enters_at_run_and_exits_with_the_status(self):
        entry = re.search(r'^quasilocal = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
        module, _, function = entry.group(1).partition(":")
        assert (module, function) == ("quasilocal.cli", "run")
        argv = ["verify", "--suite", "theorem1", *SPHERE, "--tau", "0.01*P1"]
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {function}; sys.argv[1:] = {argv!r}; {function}()"],
            env=ENV, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "\npass = false\n" in proc.stdout

    def test_run_freezes_the_heap_and_keeps_atexit_handlers(self):
        out = fresh(
            "import atexit, gc, sys\n"
            "from quasilocal.cli import run\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            f"sys.argv[1:] = {['energy', *SPHERE]!r}\n"
            "run()\n"
        )
        assert out.startswith("artifact = quasilocal ")
        assert out.endswith("\nfrozen True\n")


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """The m = 1, r = 4 sphere's table, written by a gen-data process."""
    path = tmp_path_factory.mktemp("table") / "t.dat"
    proc = cli("gen-data", *SPHERE, "--out", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {path}\n".encode(), b"")
    return path


FAILS_ON_THE_GAP = ["worst_check = mean-curvature-gap", "worst_margin = 0"]
# argv, exit status and the lines the report must hold; {table} is the gen-data table
SILENT = [
    (["verify", "--suite", "identities", "--metric", "sphere:r=2"], 0, []),
    (["verify", "--suite", "identities", "--metric", "sphere:r=0.01"], 0, []),
    (["verify", "--suite", "lemma41", "--metric", "sphere:r=1e5"], 0, []),
    (["verify", "--suite", "lemma41", "--metric", "sphere:r=0.01", "--tau", "0.001*P1"], 0, []),
    (["verify", "--suite", "lemma41", "--metric", "sphere:r=1e-5", "--tau", "1e-6*P1"], 0, []),
    (["verify", "--suite", "lemma41", "--grid-n", "4", "--tau", "0.1*P1"], 0, []),
    (["verify", "--suite", "theorem1", "--data", "{table}"], 0, []),
    (["verify", "--suite", "theorem3", "--data", "{table}"], 0, []),
    (["verify", "--suite", "theorem1", "--schwarzschild", "m=0.1,r=1e8"], 0, []),
    (["verify", "--suite", "theorem3", "--schwarzschild", "m=0.1,r=1e8"], 0, []),
    (["verify", "--suite", "theorem3", "--schwarzschild", "m=0,r=1e-10"], 2, []),
    (["verify", "--suite", "theorem1", "--minkowski", "tau0=zero"], 2, FAILS_ON_THE_GAP),
    (["verify", "--suite", "theorem3", "--minkowski", "tau0=zero"], 2, FAILS_ON_THE_GAP),
    (["verify", "--suite", "theorem1", "--minkowski", "tau0=0.1*P1", "--tau", "0.1*P1"], 2,
     FAILS_ON_THE_GAP),
    (["verify", "--suite", "theorem3", "--grid-n", "4", *SPHERE], 2, ["samples = 2"]),
]


@pytest.mark.parametrize("argv, status, lines", SILENT, ids=[" ".join(argv) for argv, _, _ in SILENT])
def test_a_process_prints_its_report_and_nothing_else(argv, status, lines, table):
    # pytest makes a RuntimeWarning an error in-process, but what a process
    # prints only a process shows: nothing on stderr and no nan in the report
    proc = cli(*[arg.format(table=table) for arg in argv])
    assert proc.returncode == status
    assert proc.stderr == b""
    assert b"nan" not in proc.stdout
    assert set(lines) <= set(proc.stdout.decode().splitlines())


def loaded_after(statements: str) -> set:
    """The quasilocal modules a fresh interpreter holds after running statements."""
    out = fresh(
        f"import sys\n{statements}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('quasilocal'))))"
    )
    return set(out.split())


class TestImportFootprint:
    def test_package_import_loads_no_module(self):
        assert loaded_after("import quasilocal") == {"quasilocal"}

    @pytest.mark.parametrize(
        "argv, numerics",
        [
            (["gen-data", *SPHERE, "--out", "{tmp}/sphere.dat"], set()),
            (["gen-data", "--minkowski", "tau0=0.1*P1", "--out", "{tmp}/lift.dat"], set()),
            (["residual", *SPHERE], {"quasilocal.energy"}),
            (["energy", *SPHERE], {"quasilocal.energy"}),
            (["minimize", *SPHERE], {"quasilocal.energy", "quasilocal.optimize"}),
            (["verify", "--suite", "identities"], {"quasilocal.verify"}),
            (["verify", "--suite", "theorem1", *SPHERE], {"quasilocal.energy", "quasilocal.verify"}),
            (["verify", "--suite", "theorem3", *SPHERE], {"quasilocal.energy", "quasilocal.verify"}),
            (["verify", "--suite", "lemma41"], NUMERICS),
        ],
        ids=["gen-data", "gen-data-minkowski", "residual", "energy", "minimize", "verify-identities",
             "verify-theorem1", "verify-theorem3", "verify-lemma41"],
    )
    def test_a_command_loads_only_what_it_uses(self, argv, numerics, tmp_path):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        loaded = loaded_after(
            "import contextlib, io\n"
            "from quasilocal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
        )
        assert loaded & NUMERICS == numerics

    def test_every_public_name_is_its_module_object(self):
        fresh(
            "import sys, quasilocal\n"
            "for name in quasilocal.__all__[1:]:\n"
            "    value = getattr(quasilocal, name)\n"
            "    assert value is getattr(sys.modules[value.__module__], name), name\n"
            "assert quasilocal.qle is quasilocal.energy.qle\n"
            "assert set(quasilocal.__all__) <= set(dir(quasilocal))\n"
        )

    def test_dir_is_sorted_and_holds_every_public_name(self):
        names = dir(quasilocal)
        assert names == sorted(names)
        assert {"__version__", *quasilocal.__all__} <= set(names)

    def test_a_rebound_module_attribute_shows_through(self, monkeypatch):
        def stand_in():
            pass

        monkeypatch.setattr(energy, "qle", stand_in)
        assert quasilocal.qle is stand_in
        assert "qle" not in vars(quasilocal)

    def test_an_unknown_name_raises_attribute_error(self):
        fresh(
            "import quasilocal\n"
            "try:\n"
            "    quasilocal.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert \"has no attribute 'no_such_name'\" in str(exc)\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')\n"
        )

    def test_main_leaves_the_collector_alone(self):
        fresh(
            "import contextlib, gc, io\n"
            "from quasilocal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['energy', '--schwarzschild', 'm=1,r=4']) == 0\n"
            "assert gc.get_freeze_count() == 0\n"
        )
