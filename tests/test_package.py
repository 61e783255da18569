"""The package surface: lazy exports, and what each CLI subcommand loads."""

import os
import subprocess
import sys

import pytest

import seqfam

#: Prints the modules that ``code`` ran and the interpreter had not run before it.  A
#: module that the package registers to run on first use is a ModuleType subclass until
#: then, so only modules of type ModuleType count as run.
LOADED = """
import sys, types
def run():
    return {{name for name, module in sys.modules.items() if type(module) is types.ModuleType}}
before = run()
{code}
print(" ".join(sorted(run() - before)), file=sys.stderr)
"""

CLI = "import seqfam.cli as cli; cli.main({argv!r})"

HEAVY = {"dataclasses", "pickle", "hashlib"}
SUBCOMMAND_MODULES = {"seqfam.identities", "seqfam.floatcheck", "seqfam.oeis"}
SUBMODULES = SUBCOMMAND_MODULES | {"seqfam.exact", "seqfam.families"}


def python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def loaded(code, *flags):
    done = python(*flags, "-c", LOADED.format(code=code))
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


@pytest.mark.parametrize("code, absent, present", [
    ("import seqfam", HEAVY | SUBMODULES, set()),
    ("import seqfam.cli as cli; cli.build_parser()", HEAVY | SUBCOMMAND_MODULES,
     {"seqfam.cli", "seqfam.families"}),
    (CLI.format(argv=["table", "--family", "fib", "--n", "0..5", "--m", "-2..2"]),
     HEAVY | SUBCOMMAND_MODULES, {"seqfam.families"}),
    (CLI.format(argv=["verify", "--n", "1..4", "--m", "-2..2"]), {"seqfam.oeis", "hashlib"},
     {"seqfam.identities"}),
    (CLI.format(argv=["float-check", "--family", "fib", "--n", "1..4"]),
     HEAVY | {"seqfam.identities", "seqfam.oeis"}, {"seqfam.floatcheck"}),
    (CLI.format(argv=["oeis", "--family", "fib", "--column", "1", "--offline"]),
     {"hashlib", "seqfam.identities"}, {"seqfam.oeis"}),
], ids=["package", "parser", "table", "verify", "float-check", "oeis-offline"])
def test_a_process_loads_only_what_its_subcommand_runs(code, absent, present):
    modules = loaded(code)
    assert not modules & absent
    assert present <= modules


def test_the_package_registers_every_module_but_cli_without_running_it():
    code = ("import seqfam, types; print(*(name for name, module in sys.modules.items()"
            " if name.startswith('seqfam.') and type(module) is not types.ModuleType))")
    done = python("-c", LOADED.format(code=code))
    assert set(done.stderr.split()) == {"seqfam"}  # the package runs none of its modules...
    assert set(done.stdout.split()) == SUBMODULES  # ...but sys.modules holds them


def test_the_cli_runs_as_a_main_module_without_warnings():
    # runpy warns when the module it runs is in sys.modules once its package is imported
    done = python("-W", "error", "-m", "seqfam.cli", "table", "--family", "fib", "--n", "0..3",
                  "--m", "0..2")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1].split() == ["3", "0", "3", "12"]


def test_offline_oeis_reads_its_fixtures_without_importlib_resources():
    # -S: no site, so nothing has imported importlib.resources before the lookup
    code = CLI.format(argv=["oeis", "--family", "fib", "--column", "1", "--offline"])
    assert "importlib.resources" not in loaded(code, "-S")


def test_every_export_resolves():
    for name in seqfam.__all__:
        assert getattr(seqfam, name) is not None, name
    namespace = {}
    exec("from seqfam import *", namespace)
    assert set(seqfam.__all__) <= set(namespace)
    from seqfam import identities, sweep
    assert sweep is identities.sweep is namespace["sweep"]
    assert set(seqfam.__all__) <= set(dir(seqfam))


def test_an_unknown_export_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seqfam.no_such_name
    with pytest.raises(ImportError):
        exec("from seqfam import no_such_name", {})
