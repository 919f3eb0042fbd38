import numpy as np
import pytest

from szego import aak, hankel
from szego.algebra import Poly, RationalFunction
from szego.hankel import Symbol


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def hand_symbol():
    """The polynomial 3 + 2z, whose 2x2 section is [[3, 2], [2, 0]]."""
    return Symbol(np.array([3.0, 2.0], dtype=complex))


@pytest.fixture
def rank_one_symbol():
    """0.75 / (1 - 0.5 z), a geometric symbol of Hankel rank one."""
    return Symbol.from_rational(
        RationalFunction(Poly([0.75]), Poly([1.0, -0.5])))


@pytest.fixture
def certificate_sections(monkeypatch):
    """Refuse FastHankel.dense outside aak._certify; the sizes of the
    sections the certificate forms collect in the returned list."""
    sizes, inside = [], []
    dense, certify = hankel.FastHankel.dense, aak._certify

    def guarded_dense(op):
        if not inside:
            raise AssertionError("an N x N matrix was formed")
        sizes.append(op.n)
        return dense(op)

    def guarded_certify(*args):
        inside.append(True)
        try:
            return certify(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(hankel.FastHankel, "dense", guarded_dense)
    monkeypatch.setattr(aak, "_certify", guarded_certify)
    return sizes
