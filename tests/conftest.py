from coverpierce.piercing import _grid_hits

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def oracle_grid_points(instance) -> list:
    """All piercing points on the endpoint grid (for boundary-anomaly checks)."""
    xs, ys, lo, hi = _grid_hits(instance)
    return [(x, ys[j]) for x, j_lo, j_hi in zip(xs, lo, hi) for j in range(j_lo, j_hi)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
