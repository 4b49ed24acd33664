import numpy as np
import pytest
from hypothesis import strategies as st

from slicereg import qarray
from slicereg.moebius import BlaschkeProduct, FunctionExpr, blaschke_to_expr
from slicereg.quaternion import Quaternion
from slicereg.series import TaylorSeries

components = st.floats(min_value=-1.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False)


@st.composite
def quaternions(draw, max_norm=None):
    q = Quaternion(draw(components), draw(components),
                   draw(components), draw(components))
    if max_norm is not None and abs(q) >= max_norm:
        scale = draw(st.floats(min_value=0.0, max_value=0.99))
        n = abs(q)
        q = q * (scale * max_norm / n) if n > 0 else Quaternion(0.0)
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(20250825)


def random_blaschke_expr(rng: np.random.Generator, degree: int) -> FunctionExpr:
    """Random Blaschke product of the given degree: zeros in the 0.7-ball
    and a random unimodular constant."""
    factors = [qarray.to_quaternion(x)
               for x in qarray.uniform_ball(rng, degree, 0.7)]
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    return blaschke_to_expr(BlaschkeProduct(factors, qarray.to_quaternion(u)))


def random_series_self_map(rng: np.random.Generator, order: int = 12) -> TaylorSeries:
    """Random exact series self-map: coefficient norms summing to <= 0.95."""
    raw = rng.standard_normal((order + 1, 4)) * (0.5 ** np.arange(order + 1))[:, None]
    total = np.linalg.norm(raw, axis=1).sum()
    return TaylorSeries(raw / max(total / 0.95, 1.0), exact=True)
