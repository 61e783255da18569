"""Leading-term lookup of generated sequences against the OEIS catalog.

Lookups go through three layers: an on-disk cache of previous network
answers, a bundled fixture snapshot of the catalog entries this package's
families are known to generate, and finally the public search endpoint.
Offline mode (the default for the test suite) uses the fixtures only, so no
test ever needs the network.

A query is a list of at least 8 leading terms; an entry matches when the
query appears as a consecutive run of its terms.  Matching is by terms only;
the catalog identifiers carried in fixtures and responses are opaque labels.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact import format_exact, unlimited_digits
from .families import Family, table

SEARCH_URL = "https://oeis.org/search?q=signed:{terms}&fmt=json"
B_FILE_URL = "https://oeis.org/{ident}/b{digits}.txt"

MIN_QUERY_TERMS = 8
MIN_REQUEST_INTERVAL_S = 1.0
MAX_ATTEMPTS = 3


class TransportError(RuntimeError):
    """The network layer failed; never silently reported as 'no match'."""


class ParseError(ValueError):
    """The endpoint answered with something unparseable; raw payload kept."""

    def __init__(self, message: str, payload: str):
        super().__init__(message)
        self.payload = payload


class OeisMatch(NamedTuple):
    """Outcome of one query: the terms submitted, ids matched, and where from."""

    terms: Tuple[int, ...]
    ids: Tuple[str, ...]
    source: str  # "network" | "cache" | "fixture"
    ambiguous: bool = False

    def to_json_dict(self) -> dict:
        return {
            "terms": list(self.terms),
            "ids": list(self.ids),
            "source": self.source,
            "ambiguous": self.ambiguous,
        }


def _contains_run(haystack: Sequence[int], needle: Sequence[int]) -> bool:
    k = len(needle)
    if k == 0 or k > len(haystack):
        return False
    first = needle[0]
    for i in range(len(haystack) - k + 1):
        if haystack[i] == first and list(haystack[i:i + k]) == list(needle):
            return True
    return False


@functools.cache
def fixture_entries() -> List[Dict]:
    """The bundled catalog snapshot, read once per process."""
    text = (Path(__file__).parent / "data" / "oeis_fixtures.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def default_cache_dir() -> Path:
    env = os.environ.get("SEQFAM_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "seqfam"


def _requests_transport(url: str) -> str:
    import requests

    try:
        response = requests.get(url, timeout=30)
        response.raise_for_status()
        return response.text
    except requests.RequestException as exc:  # noqa: BLE001 - single network seam
        raise TransportError(f"request failed: {url}: {exc}") from exc


class OeisClient:
    """Rate-limited catalog client with cache, fixtures and offline mode.

    ``transport`` maps a URL to response text and exists so tests can fake
    the network; the default uses requests.  Network requests are serialized
    through one gate and spaced at least ``min_interval`` seconds apart, with
    exponential backoff on failure.
    """

    def __init__(self, offline: bool = False, cache_dir: Optional[Path] = None,
                 transport: Optional[Callable[[str], str]] = None,
                 min_interval: float = MIN_REQUEST_INTERVAL_S):
        self.offline = offline
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self._transport = transport or _requests_transport
        self._min_interval = min_interval
        self._gate = threading.Lock()
        self._last_request = 0.0

    # -- cache ------------------------------------------------------------

    def _cache_path(self, terms: Sequence[int]) -> Path:
        import hashlib  # loads OpenSSL, which only this cache needs

        digest = hashlib.sha256(",".join(map(format_exact, terms)).encode()).hexdigest()[:24]
        return self.cache_dir / f"terms-{digest}.json"

    def _cache_read(self, terms: Sequence[int]) -> Optional[Tuple[str, ...]]:
        path = self._cache_path(terms)
        try:
            with unlimited_digits():  # the cache holds this program's own output
                record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if record.get("terms") != list(terms):
            return None
        return tuple(record.get("ids", ()))

    def _cache_write(self, terms: Sequence[int], ids: Sequence[str]) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(terms)
        record = {"terms": list(terms), "ids": list(ids), "captured_at": time.time()}
        with unlimited_digits():
            text = json.dumps(record) + "\n"
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")  # one per writer
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- network ----------------------------------------------------------

    def _fetch(self, url: str) -> str:
        with self._gate:
            error: Optional[Exception] = None
            for attempt in range(MAX_ATTEMPTS):
                wait = self._min_interval - (time.monotonic() - self._last_request)
                if wait > 0:
                    time.sleep(wait)
                self._last_request = time.monotonic()
                try:
                    return self._transport(url)
                except TransportError as exc:
                    error = exc
                    if attempt + 1 < MAX_ATTEMPTS:
                        time.sleep(self._min_interval * 2 ** attempt)
            raise TransportError(f"giving up on {url} after {MAX_ATTEMPTS} attempts") from error

    def _search_network(self, terms: Sequence[int]) -> Tuple[str, ...]:
        url = SEARCH_URL.format(terms=",".join(map(format_exact, terms)))
        payload = self._fetch(url)
        try:
            body = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ParseError(f"unparseable search response: {exc}", payload) from exc
        results = body.get("results") if isinstance(body, dict) else None
        if results is None:
            return ()
        ids = []
        for entry in results:
            try:
                number = int(entry["number"])
                data = [int(t) for t in str(entry.get("data", "")).split(",") if t.strip()]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"malformed search entry: {exc}", payload) from exc
            ident = f"A{number:06d}"
            if _contains_run(data, terms) or self._b_file_contains(ident, terms):
                ids.append(ident)
        return tuple(ids)

    def _b_file_contains(self, ident: str, terms: Sequence[int]) -> bool:
        url = B_FILE_URL.format(ident=ident, digits=ident.lstrip("A"))
        try:
            values = parse_b_file(self._fetch(url))
        except (TransportError, ParseError):
            return False
        return _contains_run(values, terms)

    # -- lookup -----------------------------------------------------------

    def search_by_terms(self, terms: Sequence[int]) -> OeisMatch:
        """Match the given leading terms against the catalog.

        Consults the cache, then the fixture snapshot, then (if online) the
        search endpoint.  Degenerate queries (a single repeated value) are
        flagged ambiguous rather than treated as errors.
        """
        terms = tuple(int(t) for t in terms)
        if len(terms) < MIN_QUERY_TERMS:
            raise ValueError(f"need at least {MIN_QUERY_TERMS} terms, got {len(terms)}")
        ambiguous = len(set(terms)) < 2

        if not self.offline:
            cached = self._cache_read(terms)
            if cached is not None:
                return OeisMatch(terms=terms, ids=cached, source="cache", ambiguous=ambiguous)

        fixture_ids = tuple(
            entry["id"] for entry in fixture_entries()
            if _contains_run(entry["terms"], terms)
        )
        if fixture_ids or self.offline:
            return OeisMatch(terms=terms, ids=fixture_ids, source="fixture", ambiguous=ambiguous)

        ids = self._search_network(terms)
        self._cache_write(terms, ids)
        return OeisMatch(terms=terms, ids=ids, source="network", ambiguous=ambiguous)


def parse_b_file(text: str) -> List[int]:
    """Parse b-file text: '#' comments and blank lines skipped, 'n a(n)' rows."""
    values = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ParseError(f"malformed b-file line: {line!r}", text)
        try:
            values.append(int(parts[1]))
        except ValueError:
            raise ParseError(f"b-file value is not an integer: {line!r}", text) from None
    return values


def window_terms(family: Family, axis: str, fixed: int, rng: Tuple[int, int]) -> List[int]:
    """Integer terms of one row (fixed n, m varying) or column (fixed m, n varying)."""
    if axis == "row":
        values = table(family, (fixed, fixed), rng).values[0]
    elif axis == "column":
        values = [row[0] for row in table(family, rng, (fixed, fixed)).values]
    else:
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    if not all(isinstance(value, int) for value in values):
        raise ValueError(f"{family.label()} produces non-integer terms; cannot query the catalog")
    return list(values)


def cross_check(family: Family, axis: str, fixed: int, rng: Tuple[int, int],
                client: Optional[OeisClient] = None) -> Tuple[OeisMatch, bool]:
    """Generate a row or column window, query it, and report (match, verdict).

    The verdict is true iff at least one catalog entry matched.
    """
    terms = window_terms(family, axis, fixed, rng)
    client = client or OeisClient()
    match = client.search_by_terms(terms)
    return match, bool(match.ids)
