"""Benchmark configuration and shared helpers.

Every benchmark regenerates one of the paper's figures at a laptop-friendly
scale and prints the rows/series the paper reports.  Set ``REPRO_SCALE`` (a
float, default 1.0) to scale flow counts and switch resources up toward the
paper's testbed sizes; the default keeps the whole suite in the minutes range.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# Reference implementations kept in the test tree (e.g. fermat_reference).
TESTS = os.path.join(os.path.dirname(SRC), "tests")
if TESTS not in sys.path:
    sys.path.append(TESTS)

#: Global knob: 1.0 = laptop scale (default), larger values approach the paper.
SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an experiment size by REPRO_SCALE."""
    return max(minimum, int(value * SCALE))


def run_figure(name, overrides=None, seed=None, jobs=1):
    """Run a registered scenario (the single implementation of each figure)."""
    from repro.scenarios import run_scenario

    return run_scenario(name, overrides=overrides, seed=seed, jobs=jobs)


def rows_where(result, **filters):
    """Rows of a SweepResult matching all ``key=value`` filters."""
    return [
        row
        for row in result.rows()
        if all(row.get(key) == value for key, value in filters.items())
    ]


def print_table(title: str, headers, rows) -> None:
    """Print one figure's data as an aligned text table."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0)) for i, h in enumerate(headers)]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
