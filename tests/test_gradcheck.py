"""Central finite differences against every primitive's analytic gradients
and a CoPa stack built from them (the cases selfcheck runs too)."""

import numpy as np
import pytest

from copanet import engine, selfcheck
from copanet.engine import Tensor


@pytest.mark.parametrize("name,case", selfcheck.GRADIENT_CASES,
                         ids=[n for n, _ in selfcheck.GRADIENT_CASES])
def test_primitive_gradients(f64, name, case):
    case()


def test_dropout_training_gradient_is_kept_mask(f64):
    rng = np.random.default_rng(44)
    x = Tensor(np.full(1000, 2.5), requires_grad=True)
    out = engine.dropout(x, 0.4, training=True, rng=rng)
    kept = out.data != 0
    engine.sum_all(out).backward()
    assert np.array_equal(x.grad, kept.astype(np.float64))
