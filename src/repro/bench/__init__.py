"""Benchmark harness regenerating every figure of the paper's evaluation."""

from repro.bench.harness import FigureData, improvement, print_figure
from repro.bench import figures

__all__ = ["FigureData", "figures", "improvement", "print_figure"]
