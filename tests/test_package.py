"""The package surface: lazy exports, and what each CLI subcommand loads."""

import os
import subprocess
import sys

import pytest

import seqfam

#: Prints the modules that ``code`` ran and the interpreter had not run before it.  A
#: module that seqfam.cli registers to run on first use is a ModuleType subclass until
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


def loaded(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", LOADED.format(code=code)], capture_output=True,
                          text=True, env=env, check=True)
    return set(done.stderr.split())


@pytest.mark.parametrize("code, absent, present", [
    ("import seqfam", HEAVY | SUBCOMMAND_MODULES | {"seqfam.families", "seqfam.exact"}, set()),
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
