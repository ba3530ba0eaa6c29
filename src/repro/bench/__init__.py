"""Benchmark harness regenerating the paper's figures.

:mod:`repro.bench.harness` holds the figure table and its one timing
loop; :mod:`repro.bench.metrics` holds the result types.  Run
``python -m repro.bench.harness --figure all`` to print every series.

The package does not import the harness, so ``python -m`` executes
that module once, as ``__main__`` only.
"""

from repro.bench.metrics import FigureResult, Series

__all__ = ["FigureResult", "Series"]
