"""Named metrics with units and sample counts, and the percentile rule."""

from __future__ import annotations

import math
import statistics


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def has_tail(values, q: float) -> bool:
    """At least ten samples lie beyond the q-quantile."""
    return len(values) - math.ceil(q * len(values)) >= 10


class Report:
    """Ordered metrics with unit, sample count and whether they are exact
    (a pure function of the seed) rather than host timings."""

    def __init__(self):
        self.entries = {}

    def add(self, name, value, unit, n=None, note="", exact=False):
        self.entries[name] = {"value": value, "unit": unit, "n": n, "exact": exact, "note": note}

    def percentiles(self, stem, values, unit, note="", exact=False):
        """p50, then p95 and p99 where at least ten samples lie beyond them."""
        if not values:
            return
        self.add(f"{stem}_p50_{unit}", statistics.median(values), unit, len(values), note, exact)
        for q in (0.95, 0.99):
            if has_tail(values, q):
                self.add(f"{stem}_p{round(q * 100)}_{unit}", quantile(values, q), unit,
                         len(values), note, exact)

    def value(self, name):
        return self.entries[name]["value"]

    def json_metrics(self, names):
        return {k: {"value": self.entries[k]["value"], "unit": self.entries[k]["unit"]} for k in names}

    def lines(self):
        for name, e in self.entries.items():
            count = "" if e["n"] is None else f"n={e['n']}"
            note = ", ".join(x for x in ("exact" if e["exact"] else "", e["note"]) if x)
            yield f"  {name:<40} {e['value']:>14.6g} {e['unit']:<6} {count:<8} {note}".rstrip()
