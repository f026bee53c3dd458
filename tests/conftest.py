from fractions import Fraction as F

import pytest

from gtmodules.tableau import BaseVector, Shift
from gtmodules.structure import Window


@pytest.fixture(scope="session")
def v_fin2():
    """gl(2) finite family, highest weight (1, 0), top row (1, -1)."""
    return BaseVector.from_weight([1, 0])


@pytest.fixture(scope="session")
def v_fin3_210():
    return BaseVector.from_weight([2, 1, 0])


@pytest.fixture(scope="session")
def v_gen3():
    """Fully generic gl(3): no two anchors shared anywhere."""
    return BaseVector.from_rows([[F(1, 2), F(1, 3), F(1, 5)], [F(1, 7), F(1, 11)], [F(1, 13)]])


@pytest.fixture(scope="session")
def v_gen3_chain():
    """Generic gl(3) with a cross-row anchor chain (x, ., . | x-1, . | x+1)."""
    x = F(1, 7)
    return BaseVector.from_rows([[x, F(1, 3), F(1, 5)], [x - 1, F(1, 11)], [x + 1]])


@pytest.fixture(scope="session")
def v_gen4_chain():
    """Generic gl(4) with a cross-row anchor chain through every row."""
    x = F(1, 7)
    return BaseVector.from_rows([[x, F(1, 3), F(1, 5), F(1, 13)], [x - 1, F(1, 11), F(1, 17)], [x + 1, F(1, 19)], [x]])


@pytest.fixture(scope="session")
def v_rem():
    """The reducible one-singular gl(3) vector (a, b, c | x, x | x)."""
    a, b, c, x = F(1, 2), F(1, 3), F(1, 5), F(1, 7)
    return BaseVector.from_rows([[a, b, c], [x, x], [x]])


@pytest.fixture(scope="session")
def v_sing_irr():
    """Irreducible one-singular gl(3): no neighboring-row integral pairs."""
    a, b, c, x, d = F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)
    return BaseVector.from_rows([[a, b, c], [x, x], [d]])


@pytest.fixture(scope="session")
def v_sing_top():
    """One-singular gl(3) whose top row shares the singular anchor."""
    b, c, x, d = F(1, 3), F(1, 5), F(1, 7), F(1, 11)
    return BaseVector.from_rows([[x + 1, b, c], [x, x], [d]])


@pytest.fixture(scope="session")
def v_sing4():
    """One-singular gl(4), singular pair in row 2, all other anchors fresh."""
    q = [F(k, 19) for k in range(1, 10)]
    return BaseVector.from_rows([[q[0], q[1], q[2], q[3]], [q[4], q[5], q[6]], [q[7], q[7]], [q[8]]])


@pytest.fixture(scope="session")
def v_sing4_rem():
    """One-singular gl(4), the singular pair in row 2 aligned with row 1."""
    q = [F(k, 19) for k in range(1, 10)]
    return BaseVector.from_rows([[q[0], q[1], q[2], q[3]], [q[4], q[5], q[6]], [q[7], q[7]], [q[7]]])


@pytest.fixture(scope="session")
def v_sing4_row3():
    """One-singular gl(4) with a non-adjacent coincident pair in row 3."""
    q = [F(k, 23) for k in range(1, 11)]
    return BaseVector.from_rows([[q[0], q[1], q[2], q[3]], [q[4], q[5], q[4]], [q[6], q[7]], [q[8]]])


@pytest.fixture(scope="session")
def v_two_pairs4():
    """gl(4) with same-anchor pairs in rows 3 and 2: no supported family."""
    q = [F(k, 29) for k in range(1, 9)]
    return BaseVector.from_rows([[q[0], q[1], q[2], q[3]], [q[4], q[4], q[5]], [q[5], q[5]], [q[6]]])


@pytest.fixture(scope="session")
def win3():
    return Window(center=Shift.zero(3), radius=2, margin=1)


@pytest.fixture(scope="session")
def win3_r1():
    return Window(center=Shift.zero(3), radius=1, margin=1)
