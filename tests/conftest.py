from coverpierce.core import (
    CoverageInstance,
    Cross,
    InstanceError,
    Interval,
    PiercingInstance,
    normalize_ranks,
)
from coverpierce.piercing import _grid_hits

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def oracle_grid_points(instance) -> list:
    """All piercing points on the endpoint grid (for boundary-anomaly checks)."""
    xs, ys, lo, hi = _grid_hits(instance)
    return [(x, ys[j]) for x, j_lo, j_hi in zip(xs, lo, hi) for j in range(j_lo, j_hi)]


def _as_ranks(pairs):
    """Flatten one axis worth of [lo, hi] pairs to ints, ranking if any is fractional."""
    flat = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            raise InstanceError(f"expected a [lo, hi] pair, got {pair!r}")
        flat += pair
    kinds = set(map(type, flat)) - {int, float}
    if kinds:
        names = sorted(k.__name__ for k in kinds)
        raise InstanceError(f"coordinates must be numbers, not {names}")
    if all(type(v) is int or v.is_integer() for v in flat):
        return [int(v) for v in flat]
    rank_map, _ = normalize_ranks(flat)
    return [rank_map[v] for v in flat]


def reference_instance_from_dict(obj):
    """The loader's reference: each member is parsed and built as an
    :class:`Interval` or :class:`Cross` object, one at a time."""
    try:
        problem = obj["problem"]
        if problem == "coverage":
            ranks = _as_ranks([obj["domain"], *obj["intervals"]])
            domain = Interval(ranks[0], ranks[1])
            ivs = [Interval(ranks[i], ranks[i + 1]) for i in range(2, len(ranks), 2)]
            return CoverageInstance(domain, ivs)
        if problem == "piercing":
            xr = _as_ranks([obj["xdomain"], *(cr["h"] for cr in obj["crosses"])])
            yr = _as_ranks([obj["ydomain"], *(cr["v"] for cr in obj["crosses"])])
            xdomain = Interval(xr[0], xr[1])
            ydomain = Interval(yr[0], yr[1])
            crosses = [
                Cross(Interval(xr[2 + 2 * i], xr[3 + 2 * i]),
                      Interval(yr[2 + 2 * i], yr[3 + 2 * i]))
                for i in range(len(obj["crosses"]))
            ]
            return PiercingInstance(xdomain, ydomain, crosses)
        raise InstanceError(f"unknown problem kind {problem!r}")
    except (KeyError, TypeError, IndexError) as exc:
        raise InstanceError(f"malformed instance object: {exc}") from exc


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
