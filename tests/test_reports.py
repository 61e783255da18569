"""Every report of the corpus in report_hashes.json is byte-identical to the one recorded."""

import pytest

import reports


def case_id(case) -> str:
    if "argv" in case:
        return " ".join(case["argv"])
    at = " m {}..{}".format(*case["m"]) if "m" in case else ""
    return "sweep X{} corrupted{}".format(tuple(case["corrupt"]), at)


@pytest.mark.parametrize("case", reports.load(), ids=case_id)
def test_report_is_byte_identical(case):
    assert reports.digest(case) == case["sha256"]


def test_masking_leaves_only_the_wall_time_out():
    text = 'checks:     10 (0 failed) in 0.25s\n{"wall_time_s": 0.031, "total_checks": 10}'
    assert reports.masked(text) == (
        'checks:     10 (0 failed) in ?s\n{"wall_time_s": 0, "total_checks": 10}')
