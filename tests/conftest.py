import os
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from liesym import Sym, Ufunc, add, fun, jet, mul, pow_, rat
from liesym.jets import load_pde
from liesym.liealg import reference_basis
from importlib import resources


@pytest.fixture(autouse=True)
def no_child_left():
    """A test must reap every child process it starts."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped: {left}")


@pytest.fixture(scope="session")
def pde():
    return load_pde(resources.files("liesym.data").joinpath("kdv31.pde").read_text())


@pytest.fixture(scope="session")
def basis(pde):
    return reference_basis(pde)


# leaves of the random expression trees shared by the property tests
TREE_SYMBOLS = tuple(Sym(n) for n in ("x", "y", "t"))
TREE_JETS = (jet("u", ()), jet("u", "x"), jet("u", "xxt"), jet("v", "y"))


def expr_trees(depth, walker=False):
    """Random trees; walker=True adds jets and unknown functions with slot
    orders, which parse/print round trips do not cover."""
    leaf = st.one_of(
        st.sampled_from(TREE_SYMBOLS),
        st.integers(-3, 3).map(rat),
        st.tuples(st.integers(1, 5), st.integers(1, 4)).map(lambda p: rat(*p)),
        *([st.sampled_from(TREE_JETS)] if walker else []),
    )
    if depth == 0:
        return leaf
    sub = expr_trees(depth - 1, walker)
    nodes = [
        leaf,
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: add(*xs)),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: mul(*xs)),
        st.tuples(sub, st.sampled_from([2, 3])).map(lambda p: pow_(*p)),
        sub.map(lambda e: fun("tanh", e)),
        sub.map(lambda e: fun("exp", e)),
    ]
    if walker:
        nodes.append(st.tuples(st.sampled_from("FG"), sub, sub, st.integers(0, 2),
                               st.integers(0, 2))
                     .map(lambda p: Ufunc(p[0], p[1:3], p[3:])))
    return st.one_of(*nodes)


def exact_number(v) -> bool:
    """How exact data holds a rational: an int, or a Fraction that is not
    integral (never a float, and never Fraction(n, 1))."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)
