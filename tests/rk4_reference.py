"""Reference RK4 step for the kernel tests."""

from typing import Callable

from nitm import State3
from nitm._kernels_py import BLOWUP_LIMIT
from nitm.errors import BlowupError

Rhs = Callable[[float, State3], tuple]


def rk4_step(rhs: Rhs, eta: float, state: State3, h: float) -> State3:
    """One classical four-stage RK4 update of size h.

    The textbook reference for the kernels: it mirrors their arithmetic
    exactly, so stepping it over a grid agrees bit for bit with the
    specialized Blasius-family fill.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    cf, cp, cq = state
    h2 = 0.5 * h
    h6 = h / 6.0
    k1f, k1p, k1q = rhs(eta, State3(cf, cp, cq))
    tf = cf + h2 * k1f
    tp = cp + h2 * k1p
    tq = cq + h2 * k1q
    k2f, k2p, k2q = rhs(eta + h2, State3(tf, tp, tq))
    tf = cf + h2 * k2f
    tp = cp + h2 * k2p
    tq = cq + h2 * k2q
    k3f, k3p, k3q = rhs(eta + h2, State3(tf, tp, tq))
    tf = cf + h * k3f
    tp = cp + h * k3p
    tq = cq + h * k3q
    k4f, k4p, k4q = rhs(eta + h, State3(tf, tp, tq))
    nf = cf + h6 * (k1f + 2.0 * (k2f + k3f) + k4f)
    np_ = cp + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
    nq = cq + h6 * (k1q + 2.0 * (k2q + k3q) + k4q)
    if not (abs(nf) <= BLOWUP_LIMIT and abs(np_) <= BLOWUP_LIMIT
            and abs(nq) <= BLOWUP_LIMIT):
        raise BlowupError(eta + h)
    return State3(nf, np_, nq)
