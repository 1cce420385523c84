"""Package errors: every ``Kg5dError`` has a one-line message.

The CLI prints ``str(exc)`` as a command's one-line reason.
"""

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


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_error_message_is_one_line(cls):
    exc = _SPECIAL.get(cls) or cls(f"{cls.__name__} reason")
    assert type(exc) is cls
    assert str(exc) and "\n" not in str(exc)
