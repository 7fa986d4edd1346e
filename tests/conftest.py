import pytest

from falk3 import complete_doubled, loop_apex_triangle
from helpers import hub4_mixed


@pytest.fixture
def looped_wedge():
    return loop_apex_triangle()


@pytest.fixture
def doubled_triangle_loop():
    return complete_doubled(3, loops=(1,))


@pytest.fixture
def hub4():
    return hub4_mixed()
