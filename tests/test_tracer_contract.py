"""The benchmark's tracer (perfbench/layers.py) patches epwcalc functions
and ParametricScalar methods by name.  Renaming one breaks traced runs;
this test makes that show up in the ordinary test suite."""

import importlib.util
from pathlib import Path

from test_render import _fresh_pell_tables

from epwcalc import cli, hodge_ring
from epwcalc.qfield import ParametricScalar

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_every_span_and_uninstalls(capsys, monkeypatch):
    layers = _load_layers()
    multiply, init = hodge_ring.multiply, ParametricScalar.__dict__["__init__"]
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert hodge_ring.multiply is not multiply
        # a warm report-all multiplies no ring classes, builds no scalar and
        # walks no Pell branch: the Chern products are cached and the bound
        # walked, so rebuild both under the tracer
        hodge_ring._chern_products.cache_clear()
        _fresh_pell_tables(monkeypatch)
        assert cli.run(["report-all", "--json"]) == 0
        assert cli.run(["report-all"]) == 0
        # a well-formed argv never reaches build_parser; an error does
        assert cli.run(["ring", "--q", "x"]) == 2
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert hodge_ring.multiply is multiply
    assert ParametricScalar.__dict__["__init__"] is init
    recorded = layers.aggregate(tracer.spans)
    assert set(layers.SPANS) <= set(recorded)
