import doctest

import toricbound.bounded
import toricbound.cones
import toricbound.fans
import toricbound.hilbert
import toricbound.intlin
import toricbound.linalg


def test_module_doctests():
    for mod in (
        toricbound.linalg,
        toricbound.cones,
        toricbound.hilbert,
        toricbound.intlin,
        toricbound.fans,
        toricbound.bounded,
    ):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
