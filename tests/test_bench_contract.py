"""The names that ``bench/spans.py`` wraps still exist in the package.

``Tracer.install`` looks each measured function up by module and name,
each graph builder on ``liccilab.graphs`` and each measured method on
``MonomialIdeal``.  A rename in the package would otherwise surface only
as a crash of ``bench/run.py --trace 1``.  The bench file is read and run
as a script (``runpy``), so nothing under ``bench/`` is written.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from liccilab.monomial import MonomialIdeal

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))


@pytest.mark.parametrize("span", sorted(SPANS["FUNCTIONS"]))
def test_measured_function_resolves(span):
    module, name = SPANS["FUNCTIONS"][span]
    assert callable(getattr(importlib.import_module(f"liccilab.{module}"), name))


@pytest.mark.parametrize("name", SPANS["GRAPH_BUILDERS"])
def test_graph_builder_resolves(name):
    assert callable(getattr(importlib.import_module("liccilab.graphs"), name))


@pytest.mark.parametrize("span", sorted(SPANS["METHODS"]))
def test_measured_method_resolves(span):
    assert callable(getattr(MonomialIdeal, SPANS["METHODS"][span]))
