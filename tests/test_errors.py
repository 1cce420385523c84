"""Package errors: every ``Kg5dError`` survives a pickle round trip.

A forked worker (``numerics.beside``) sends its exception back pickled, and
the CLI prints ``str(exc)`` as its one-line reason, so type, message and
attributes must all come back unchanged.
"""

import pickle

import pytest

from kg5d import errors
from kg5d.errors import Kg5dError, LaguerreOverflowError, NonConvergenceError, QuadratureError

_CLASSES = sorted((c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, Kg5dError)),
                  key=lambda c: c.__name__)

_SPECIAL = {
    NonConvergenceError: NonConvergenceError("ran out", estimate=1.25, error_bound=0.5),
    QuadratureError: QuadratureError("panels", estimate=2.0, error_bound=1e-3),
    LaguerreOverflowError: LaguerreOverflowError(5, 3.0),
}


def _instance(cls):
    return _SPECIAL.get(cls) or cls(f"{cls.__name__} reason")


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_error_survives_pickling(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and "\n" not in str(back)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_laguerre_overflow_keeps_its_attributes():
    # its constructor takes (n, x), not the message it stores in args
    back = pickle.loads(pickle.dumps(LaguerreOverflowError(5, 3.0)))
    assert (back.n, back.x) == (5, 3.0)
    assert str(back) == "Laguerre recurrence overflowed at n=5, x=3.0"
    custom = pickle.loads(pickle.dumps(LaguerreOverflowError(7, 2.5, "assembly not finite")))
    assert (custom.n, custom.x, str(custom)) == (7, 2.5, "assembly not finite")


def test_non_convergence_keeps_estimate_and_bound():
    back = pickle.loads(pickle.dumps(_SPECIAL[QuadratureError]))
    assert (back.estimate, back.error_bound) == (2.0, 1e-3)
