"""Mutation check: small faults put into a copy of the package, which tests must catch.

Each mutant names a file under ``src/seqfam/``, a text that must occur there exactly
once, its replacement, and the tests (pytest node ids, parametrized or not) that must
each fail once it is applied.  Per mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a fresh temporary directory, applies the mutant there and runs
the named tests in that copy; the checkout is never edited.  Before any mutant it runs
every named test on an unmutated copy, where each must pass.

    python tests/mutants.py              # every mutant
    python tests/mutants.py REC_M power  # the mutants whose name holds one of the words

It exits 1 if a named test fails without a mutant, if a mutant's text does not occur
exactly once, or if a mutant survives (one of its tests passes), and 0 when every
mutant is killed.  It runs pytest once per mutant, so tier-1 does not collect it (its
name does not start with ``test_``); CI runs it as its own job.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
IDS = "tests/test_identities.py::"
FAMS = "tests/test_families.py::"
CLI = "tests/test_cli.py::"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/seqfam/
    text: str  # must occur exactly once
    replacement: str
    tests: Tuple[str, ...]  # each must fail on the mutated copy


#: The catalog entries' right sides off by one (times the kernel's clearing factor); the
#: root-sum term n(n+1)/2 is shared, so L1's mutant also moves L2_* and SCALE_ID.  A pass
#: skips the REC_M and SUBFAM_* points whose row's table holds, so their right sides and
#: windows show at one point (eval_identity) and where a corrupted member breaks a table.
MUTANTS = [
    Mutant("L1 right side", "identities.py", "n * (n + 1) // 2))", "n * (n + 1) // 2 + 1))",
           (IDS + "test_l1_point", IDS + "test_catalog_sound_on_family")),
    Mutant("L2_SHIFT right side: n*a as (n+1)*a", "identities.py",
           "half + n * m for m in ms]", "half + (n + 1) * m for m in ms]",
           (IDS + "test_catalog_sound_on_family",)),
    Mutant("L2_SCALE right side", "identities.py", "map((d * e).__mul__, terms)",
           "map((d * e).__mul__, [t + scale for t in terms])",
           (IDS + "test_catalog_sound_on_family",)),
    Mutant("REC_M right side: n! + 1", "identities.py", "fd, start = math.factorial(n) * d, ",
           "fd, start = math.factorial(n) * d + d, ",
           (IDS + "test_rec_m_point", IDS + "test_rec_m_window_edges_agree_with_oracle")),
    Mutant("SCALE_ID right side", "identities.py", "(plain + c * half).__sub__",
           "(plain + c * half + d).__sub__",
           (IDS + "test_scale_id_point", IDS + "test_catalog_sound_on_family")),
    Mutant("EXPL_POS right side: m!/(m-n)! + 1", "identities.py", "map(mul, ffs, ffs)",
           "map(mul, ffs, [f + (sign > 0) for f in ffs])",
           (IDS + "test_expl_pos_point", IDS + "test_catalog_sound_on_family")),
    Mutant("EXPL_NEG right side: (-1)^n m!/(m-n)! + 1", "identities.py", "map(mul, ffs, ffs)",
           "map(mul, ffs, [f + (sign < 0) for f in ffs])",
           (IDS + "test_catalog_sound_on_family",)),
    Mutant("SUBFAM_ZERO right side: 1, not 0", "identities.py",
           "rhs = (-1) ** n * math.factorial(n) * d if fact else 0",
           "rhs = (-1) ** n * math.factorial(n) * d if fact else d",
           (IDS + "test_subfam_zero_point", IDS + "test_subfam_window_edges_agree_with_oracle")),
    Mutant("SUBFAM_FACT right side: (-1)^n n! + 1", "identities.py",
           "rhs = (-1) ** n * math.factorial(n) * d if fact else 0",
           "rhs = (-1) ** n * math.factorial(n) * d + d if fact else 0",
           (IDS + "test_subfam_window_edges_agree_with_oracle",)),
    Mutant("FIB_POSNEG right side", "identities.py", "* (1 if compl else n % 2)",
           "* (1 if compl else n % 2) + d * (not compl)",
           (IDS + "test_fib_posneg_parity", IDS + "test_catalog_sound_on_family")),
    Mutant("FIB_POSNEG_COMPL right side", "identities.py", "* (1 if compl else n % 2)",
           "* (1 if compl else n % 2) + d * compl",
           (IDS + "test_fib_posneg_complement", IDS + "test_catalog_sound_on_family")),
    Mutant("FIB_POLY right side", "identities.py",
           "got = [fibonacci_polynomial(n, m) * d for m in ms]",
           "got = [(fibonacci_polynomial(n, m) + 1) * d for m in ms]",
           (IDS + "test_catalog_sound_on_family",)),
    Mutant("REC_M table span one label short", "identities.py",
           "lambda n, ms, p: (n, ms[0] - n + 1, ms[-1] + 1)",
           "lambda n, ms, p: (n, ms[0] - n + 1, ms[-1])",
           (IDS + "test_rec_m_point", IDS + "test_rec_m_window_edges_agree_with_oracle")),
    Mutant("SUBFAM_* window one label late", "identities.py",
           "ms[0] - n, len(ms))", "ms[0] - n + 1, len(ms))",
           (IDS + "test_subfam_window_edges_agree_with_oracle",)),
    Mutant("pass skips the points of a row whose table fails", "identities.py",
           "r in plan.spans and self._holds(r, d, row)",
           "r in plan.spans and (self._holds(r, d, row) or True)",
           (IDS + "test_rec_m_window_edges_agree_with_oracle",
            IDS + "test_subfam_window_edges_agree_with_oracle")),
    Mutant("forked child sends no checks", "identities.py",
           "pipe.write(marshal.dumps([_run_cell_star(task) for task in share]))",
           "pipe.write(marshal.dumps([(0, []) for task in share]))",
           (IDS + "test_sweep_workers_do_not_change_content",
            IDS + "test_workers_match_serial_on_a_corrupted_family")),
    Mutant("decimal labels from one bit past DECIMAL_FROM_BITS", "commands/table.py",
           ">= DECIMAL_FROM_BITS", "> DECIMAL_FROM_BITS",
           (CLI + "test_long_members_start_at_decimal_from_bits",)),
    Mutant("power step: row 2 one too large", "families.py",
           "lambda n, d, row, prev: (d * b, list(map(mul, row, factors))))",
           "lambda n, d, row, prev: (d * b, [v * f + d * b * (n == 2) "
           "for v, f in zip(row, factors)]))",
           (FAMS + "test_member_values_match_reference_grids",
            FAMS + "test_rows_are_the_members_over_a_common_denominator")),
    Mutant("pochhammer step: factor m + n + 1", "families.py",
           "[v * (m + n) for v, m in zip(row, labels)]",
           "[v * (m + n + 1) for v, m in zip(row, labels)]",
           (FAMS + "test_member_values_match_reference_grids",
            FAMS + "test_rows_are_the_members_over_a_common_denominator")),
    Mutant("lucas step: q + 1", "families.py",
           "[m * v - q * u for m, v, u in zip(labels, row, prev)]",
           "[m * v - (q + 1) * u for m, v, u in zip(labels, row, prev)]",
           (FAMS + "test_member_values_match_reference_grids",
            FAMS + "test_rows_are_the_members_over_a_common_denominator")),
    Mutant("roots family: X(2, 1) one too large", "families.py",
           "start=1) for m in labels]", "start=1) + (n == 2 and m == 1) for m in labels]",
           (FAMS + "test_explicit_roots_replicate_dedicated_evaluators",
            IDS + "test_explicit_roots_sweep_matches_dedicated_family")),
]


def copy_tree(to: Path) -> None:
    """src/, tests/ and pyproject.toml of the checkout, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, to / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", to / "pyproject.toml")


def failed_tests(where: Path, tests: List[str]) -> Tuple[set, str]:
    """The named tests that fail (any of their parametrizations) in the copy at where, and
    pytest's output."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-rfE", *tests], cwd=where, env=env, capture_output=True, text=True)
    ids = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return {t for t in tests if any(i == t or i.startswith(t + "[") for i in ids)}, done.stdout


def imports_the_copy(where: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    done = subprocess.run([sys.executable, "-c", "import seqfam; print(seqfam.__file__)"],
                          cwd=where, env=env, capture_output=True, text=True)
    return done.returncode == 0 and Path(done.stdout.strip()).is_relative_to(where)


def run(mutants: List[Mutant]) -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp)
        copy_tree(clean)
        if not imports_the_copy(clean):
            print("seqfam is not imported from the copy: a mutant could not show")
            return 1
        tests = sorted({t for mutant in mutants for t in mutant.tests})
        failing, out = failed_tests(clean, tests)
        if failing:
            print(f"fail without a mutant: {', '.join(sorted(failing))}\n{out}")
            return 1
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            where = Path(tmp)
            copy_tree(where)
            path = where / "src" / "seqfam" / mutant.file
            source = path.read_text()
            count = source.count(mutant.text)
            if count != 1:
                print(f"MISSING  {mutant.name}: its text occurs {count} times in {mutant.file}")
                bad += 1
                continue
            path.write_text(source.replace(mutant.text, mutant.replacement))
            failing, out = failed_tests(where, list(mutant.tests))
        survived = [t for t in mutant.tests if t not in failing]
        if survived:
            print(f"SURVIVED {mutant.name}: {', '.join(survived)} passed\n{out}")
            bad += 1
        else:
            print(f"killed   {mutant.name}")
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    words = sys.argv[1:]
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    sys.exit(run(chosen))
