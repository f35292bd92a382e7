"""Every name the benchmark's tracer wraps still exists where it looks for it.

`perfbench/tracer.py` finds each traced function as an attribute of its
module, and each traced method in its class's ``__dict__``; a name that was
renamed or deleted makes ``Tracer.install`` fail and the traced benchmark
run with it.  The file is only loaded here, never changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from leavitt import Graph, build_oracle, ideal_generated_by
from leavitt.gfp import rref_pivots

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module_name, qualname, is_generator", _traced())
def test_traced_name_resolves(module_name, qualname, is_generator):
    home = importlib.import_module(f"leavitt.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        fn = vars(getattr(home, cls_name)).get(attr)
    else:
        fn = getattr(home, qualname, None)
    assert callable(fn), f"{module_name}.{qualname} is gone"
    # install wraps generators step by step and everything else call by call
    assert inspect.isgeneratorfunction(fn) == is_generator



def test_generated_ideals_expose_what_the_tracer_reads():
    # the ideal_generated_by hook reads the result's dim and hashes the bytes
    # of its whole-algebra RREF basis
    algebra = build_oracle(Graph(("a", "b", "c"), (("e", "a", "b"),)), 2)
    dims = []
    for vertices in ((), ("c",), ("a", "c")):
        ideal = ideal_generated_by(algebra, [algebra.vertex_image(v) for v in vertices])
        assert ideal.basis.shape == (ideal.dim, algebra.dimension)
        assert len(rref_pivots(ideal.basis)) == ideal.dim
        dims.append(ideal.dim)
    assert dims == [0, 1, algebra.dimension]
