"""Tests for the catalog bridge: fixtures, cache, fake network, b-files.

No test here touches the real network; the transport is always either unused
(offline / fixture hits) or a local fake.
"""

import json
import os
import threading

import pytest

from seqfam.families import FIB, PochhammerFamily, PowerFamily
from seqfam.oeis import (OeisClient, ParseError, TransportError, cross_check,
                         parse_b_file, window_terms)


def offline_client():
    return OeisClient(offline=True, transport=_forbidden_transport)


def _forbidden_transport(url):
    raise AssertionError(f"offline test touched the network: {url}")


def _canned_transport(responses):
    calls = []

    def transport(url):
        calls.append(url)
        for key, value in responses.items():
            if key in url:
                if isinstance(value, Exception):
                    raise value
                return value
        raise TransportError(f"no canned response for {url}")

    transport.calls = calls
    return transport


def search_payload(number, data):
    return json.dumps({"results": [{"number": number, "data": ",".join(map(str, data))}]})


# -- fixtures / offline --

def test_squares_row_matches_fixture():
    terms = window_terms(PowerFamily(0), "row", 2, (0, 9))
    assert terms == [0, 1, 4, 9, 16, 25, 36, 49, 64, 81]
    match = offline_client().search_by_terms(terms)
    assert "A000290" in match.ids and match.source == "fixture"


def test_fibonacci_row_two_matches_fixture():
    terms = window_terms(FIB, "row", 2, (0, 9))
    assert terms == [1, 2, 5, 10, 17, 26, 37, 50, 65, 82]
    match = offline_client().search_by_terms(terms)
    assert "A002522" in match.ids


def test_degenerate_query_is_ambiguous_not_an_error():
    match = offline_client().search_by_terms([0] * 10)
    assert match.ambiguous
    assert isinstance(match.ids, tuple)


def test_two_distinct_terms_are_not_ambiguous():
    match = offline_client().search_by_terms([0, 1] * 5)
    assert not match.ambiguous


def test_minimum_term_count_enforced():
    with pytest.raises(ValueError):
        offline_client().search_by_terms([1, 2, 3, 4, 5, 6, 7])


def test_cross_check_columns():
    client = offline_client()
    match, verdict = cross_check(FIB, "column", 1, (0, 11), client)
    assert verdict and "A000045" in match.ids
    match, verdict = cross_check(FIB, "column", 2, (0, 11), client)
    assert verdict and "A000129" in match.ids


def test_cross_check_oblong_row():
    match, verdict = cross_check(PochhammerFamily(), "row", 2, (0, 9), offline_client())
    assert verdict and "A002378" in match.ids


def test_cross_check_rejects_short_ranges():
    with pytest.raises(ValueError):
        cross_check(FIB, "column", 1, (0, 5), offline_client())


def test_window_terms_rejects_rational_families():
    from fractions import Fraction
    with pytest.raises(ValueError):
        window_terms(PowerFamily(Fraction(1, 2)), "row", 2, (0, 9))


def test_window_terms_rejects_unknown_axis():
    with pytest.raises(ValueError):
        window_terms(FIB, "diagonal", 1, (0, 9))


# -- cache round-trip through a fake network --

def test_cache_round_trip(tmp_path):
    terms = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]  # matches no fixture
    transport = _canned_transport({"search": search_payload(999999, terms + [5, 8, 9, 7])})

    client = OeisClient(cache_dir=tmp_path, transport=transport, min_interval=0.0)
    first = client.search_by_terms(terms)
    assert first.source == "network" and first.ids == ("A999999",)
    assert len(transport.calls) == 1

    second = client.search_by_terms(terms)
    assert second.source == "cache" and second.ids == first.ids
    assert len(transport.calls) == 1  # no second request

    # a fresh client sees the same cache directory
    third = OeisClient(cache_dir=tmp_path, transport=_forbidden_transport).search_by_terms(terms)
    assert third.source == "cache" and third.ids == first.ids


def test_cache_round_trips_terms_past_the_digit_limit(tmp_path):
    terms = [12 ** n for n in range(4000, 4008)]  # 4,317 digits and more
    transport = _canned_transport({"search": json.dumps({"results": None})})
    client = OeisClient(cache_dir=tmp_path, transport=transport, min_interval=0.0)
    assert client.search_by_terms(terms).source == "network"
    again = client.search_by_terms(terms)
    assert again.source == "cache" and again.terms == tuple(terms) and again.ids == ()
    assert len(transport.calls) == 1


def test_fixture_hit_short_circuits_network(tmp_path):
    terms = window_terms(PowerFamily(0), "row", 3, (0, 9))
    client = OeisClient(cache_dir=tmp_path, transport=_forbidden_transport)
    match = client.search_by_terms(terms)
    assert match.source == "fixture" and "A000578" in match.ids


def test_network_failure_is_an_explicit_error(tmp_path):
    transport = _canned_transport({"search": TransportError("boom")})
    client = OeisClient(cache_dir=tmp_path, transport=transport, min_interval=0.0)
    with pytest.raises(TransportError):
        client.search_by_terms([3, 1, 4, 1, 5, 9, 2, 6])
    assert len(transport.calls) == 3  # retried with backoff before giving up


def test_malformed_response_keeps_payload(tmp_path):
    transport = _canned_transport({"search": "<html>not json</html>"})
    client = OeisClient(cache_dir=tmp_path, transport=transport, min_interval=0.0)
    with pytest.raises(ParseError) as err:
        client.search_by_terms([3, 1, 4, 1, 5, 9, 2, 6])
    assert err.value.payload.startswith("<html>")


def test_candidate_confirmed_through_b_file(tmp_path):
    # search result data too short to contain the query; b-file completes it
    terms = [11, 13, 17, 19, 23, 29, 31, 37]
    b_file = "# comment\n" + "\n".join(f"{i} {v}" for i, v in enumerate([7] + terms))
    transport = _canned_transport({
        "search": search_payload(777777, [7, 11, 13]),
        "b777777": b_file,
    })
    client = OeisClient(cache_dir=tmp_path, transport=transport, min_interval=0.0)
    match = client.search_by_terms(terms)
    assert match.ids == ("A777777",)


@pytest.mark.parametrize("b_file, attempts", [(TransportError("down"), 3), ("0 7\n11\n", 1),
                                              ("0 7\n1 eleven\n", 1)],
                         ids=["transport-error", "malformed", "not-an-integer"])
def test_unreadable_b_file_rules_the_candidate_out(tmp_path, b_file, attempts):
    # the search data lacks the query, and the b-file that could confirm it cannot be read
    terms = [11, 13, 17, 19, 23, 29, 31, 37]
    transport = _canned_transport({
        "search": search_payload(777777, [7, 11, 13]),
        "b777777": b_file,
    })
    client = OeisClient(cache_dir=tmp_path, transport=transport, min_interval=0.0)
    match = client.search_by_terms(terms)
    assert match.ids == () and match.source == "network"
    assert sum("b777777" in url for url in transport.calls) == attempts


def test_parse_b_file():
    values = parse_b_file("# header\n\n0 0\n1 1\n2 1\n3 2\n")
    assert values == [0, 1, 1, 2]
    with pytest.raises(ParseError):
        parse_b_file("0\n")
    with pytest.raises(ParseError, match="not an integer") as err:
        parse_b_file("0 7\n1 eleven\n")
    assert err.value.payload == "0 7\n1 eleven\n"


def test_module_level_search_offline():
    match = OeisClient(offline=True).search_by_terms([0, 1, 4, 9, 16, 25, 36, 49])
    assert "A000290" in match.ids


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SEQFAM_CACHE_DIR", str(tmp_path / "envcache"))
    terms = [2, 7, 1, 8, 2, 8, 1, 8]
    transport = _canned_transport({"search": search_payload(123456, terms)})
    client = OeisClient(transport=transport, min_interval=0.0)
    client.search_by_terms(terms)
    assert list((tmp_path / "envcache").glob("terms-*.json"))


def test_concurrent_cache_writers_do_not_collide(tmp_path, monkeypatch):
    # two clients answer the same query at once; both write their record
    # before either moves it into place
    terms = [2, 7, 1, 8, 2, 8, 1, 8]
    meet = threading.Barrier(2, timeout=10)
    real_replace = os.replace

    def replace(src, dst):
        meet.wait()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    errors = []

    def lookup():
        transport = _canned_transport({"search": search_payload(123456, terms)})
        client = OeisClient(cache_dir=tmp_path, transport=transport, min_interval=0.0)
        try:
            client.search_by_terms(terms)
        except Exception as exc:  # noqa: BLE001 - collected for the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=lookup) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir() if not p.name.startswith("terms-")] == []
    reader = OeisClient(cache_dir=tmp_path, transport=_forbidden_transport)
    assert reader.search_by_terms(terms).ids == ("A123456",)


def test_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        OeisClient(cache_dir=tmp_path)._cache_write([1, 2, 3, 4, 5, 6, 7, 8], ["A000001"])
    assert list(tmp_path.iterdir()) == []


# -- cache records of the wrong shape, and the request spacing --

#: Records that are not an object with the query's terms and a list of string ids.
BAD_RECORDS = {
    "not-an-object": [],
    "ids-not-a-list": {"terms": [3, 1, 4, 1, 5, 9, 2, 6], "ids": 7},
    "ids-a-string": {"terms": [3, 1, 4, 1, 5, 9, 2, 6], "ids": "A000045"},
    "ids-not-strings": {"terms": [3, 1, 4, 1, 5, 9, 2, 6], "ids": [45]},
    "ids-missing": {"terms": [3, 1, 4, 1, 5, 9, 2, 6]},
    "other-terms": {"terms": [3, 1, 4, 1, 5, 9, 2, 7], "ids": ["A000001"]},
}


@pytest.mark.parametrize("record", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_a_cache_record_of_the_wrong_shape_is_a_miss_and_is_rewritten(tmp_path, record):
    terms = [3, 1, 4, 1, 5, 9, 2, 6]  # matches no fixture
    transport = _canned_transport({"search": search_payload(999999, terms)})
    client = OeisClient(cache_dir=tmp_path, transport=transport, min_interval=0.0)
    path = client._cache_path(terms)
    path.write_text(json.dumps(record))
    match = client.search_by_terms(terms)
    assert (match.source, match.ids, len(transport.calls)) == ("network", ("A999999",), 1)
    assert json.loads(path.read_text())["ids"] == ["A999999"]
    assert client.search_by_terms(terms).source == "cache"


def test_a_second_request_waits_out_the_interval(monkeypatch):
    clock, sleeps = [100.0], []
    monkeypatch.setattr("seqfam.oeis.time.monotonic", lambda: clock[0])
    monkeypatch.setattr("seqfam.oeis.time.sleep", sleeps.append)
    client = OeisClient(transport=lambda url: "ok", min_interval=1.0)
    assert client._fetch("first") == "ok" and sleeps == []
    clock[0] += 0.25
    assert client._fetch("second") == "ok" and sleeps == [0.75]


@pytest.mark.parametrize("interval, backoff", [(1.0, [1.0, 2.0, 4.0]), (0.5, [0.5, 1.0, 2.0])])
def test_a_failing_request_backs_off_doubling_and_not_after_its_last_attempt(monkeypatch, interval,
                                                                             backoff):
    clock, sleeps = [100.0], []

    def sleep(seconds):
        sleeps.append(seconds)
        clock[0] += seconds

    monkeypatch.setattr("seqfam.oeis.time.monotonic", lambda: clock[0])
    monkeypatch.setattr("seqfam.oeis.time.sleep", sleep)
    monkeypatch.setattr("seqfam.oeis.MAX_ATTEMPTS", 4)
    transport = _canned_transport({})  # every request fails
    client = OeisClient(transport=transport, min_interval=interval)
    with pytest.raises(TransportError, match="after 4 attempts"):
        client._fetch("search")
    # each backoff already spaces the next request: no throttle sleep, not even of 0
    assert sleeps == backoff and len(transport.calls) == 4
