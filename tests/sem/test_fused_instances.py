"""The fused kernels' literal-order instances are the runtime-order loops.

``ORDER_INSTANCES`` compiles each of ``ac_block``, ``ac_block3`` and
``el_block3`` (the 3D stress-form body ``stress_block3`` with its
15-coefficient isotropic stress) twice: once with ``n1`` the literal
``FIXED_N1`` (order 4) and once with the runtime ``n1``.  The
anisotropic blocks, ``an_block3`` the same body with the general stress,
have the runtime copy only.  Every fused golden pin in
``tests/core/test_newmark.py`` was recorded on the runtime loops, so the
order-4 instances must reproduce them bit for bit.  Here the same source
is built a second time with ``FIXED_N1`` matching no order, so that
build runs order 4 on the runtime loop, and one bound plan's arguments
go to both builds' entry points: the outputs must be the same bytes.
"""

import numpy as np
import pytest

from repro.mesh import uniform_grid
from repro.sem import ElasticSemND, SemND, fused

LITERAL = "#define FIXED_N1 5 /* order 4 */"


@pytest.fixture(scope="module")
def runtime_only(tmp_path_factory):
    """The kernels built with no literal-order instance, in a cache of
    their own."""
    if not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    assert LITERAL in fused._SOURCE
    cc = fused._compiler()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        mp.setattr(fused, "_SOURCE", fused._SOURCE.replace(LITERAL, "#define FIXED_N1 -1"))
        lib = fused._build(cc, fused.accepted_cflags(cc))
    assert lib is not None, fused.failure_reason()
    return lib


PRODUCTS = {
    "ac_apply": lambda: SemND(uniform_grid((4, 3)), order=4),
    "ac_apply3": lambda: SemND(uniform_grid((3, 2, 2)), order=4),
    "el_apply3": lambda: ElasticSemND(uniform_grid((3, 2, 2)), order=4),
}


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("symbol", sorted(PRODUCTS))
def test_order4_instance_is_the_runtime_loop(runtime_only, symbol, masked):
    sem = PRODUCTS[symbol]()
    op = sem.operator("matfree", use_fused=True)
    rng = np.random.default_rng(4)
    if masked:  # a level's product: an input mask on a subset of elements
        op = op.masked_subset(rng.random(sem.n_dof) < 0.4)
    plan = op._plan
    assert plan._symbol == symbol and plan.n1 == 5
    assert (plan._gmask is not None) == masked
    u = rng.standard_normal(sem.n_dof)
    literal, runtime = np.empty(sem.n_dof), np.empty(sem.n_dof)
    plan._fn(u.ctypes.data, literal.ctypes.data, *plan._args)
    getattr(runtime_only, symbol)(u.ctypes.data, runtime.ctypes.data, *plan._args)
    assert np.any(literal != 0.0)
    assert literal.tobytes() == runtime.tobytes()
