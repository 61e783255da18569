"""In-memory spans and the self times derived from them.

A span is a dict with an id, a name, start and end times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so times taken in different
processes of one machine line up), the id of the span that caused it and the
id of the benchmark run.  Spans recorded in a child process are adopted into
the parent's list under the span that timed the child from outside.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                  "end": None, "parent": self._open[-1] if self._open else None,
                  "run": self.run}
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: List[Dict], parent: int) -> None:
        """Append a child process's spans, re-numbered, under ``parent``."""
        offset = len(self.spans)
        for span in spans:
            span = dict(span, id=span["id"] + offset, run=self.run)
            span["parent"] = parent if span["parent"] is None else span["parent"] + offset
            self.spans.append(span)


def duration(span: Dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: List[Dict]) -> Dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[Optional[int], List[Dict]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = duration(span) - covered
    return out


def totals_by_name(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Count, total time and self time of the spans sharing each name."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0,
                                                            "self_s": 0.0})
    for span in spans:
        row = out[span["name"]]
        row["count"] += 1
        row["total_s"] += duration(span)
        row["self_s"] += own[span["id"]]
    return dict(out)
