import numpy as np
import pytest

from asyncopt.serial import SolverConfig, clamp_bounds
from asyncopt.vectors import (
    Hyperedge,
    LinfBall,
    ProblemConstants,
    sq_distance,
)


def test_hyperedge_dedups_and_validates():
    e = Hyperedge(0, np.array([2, 1, 2]))
    assert e.coords.tolist() == [1, 2]
    assert len(e) == 2
    with pytest.raises(ValueError):
        Hyperedge(0, np.array([], dtype=np.int64))


def test_problem_constants():
    c = ProblemConstants(L=4.0, m=2.0, M=1.0, n=10, d=3)
    assert c.kappa == 2.0
    assert c.strongly_convex
    assert c.L_term == 4.0  # defaults to L
    c0 = ProblemConstants(L=1.0, m=0.0, M=1.0, n=1, d=1)
    assert not c0.strongly_convex
    assert c0.kappa == np.inf
    with pytest.raises(ValueError):
        ProblemConstants(L=1.0, m=2.0, M=1.0, n=1, d=1)


def test_linf_ball_projection():
    class Obj:
        box = None

    assert not LinfBall().bounded
    assert clamp_bounds(Obj, SolverConfig(gamma=0.1)) == (None, None)
    ball = SolverConfig(gamma=0.1, linf=LinfBall(2.0))
    assert clamp_bounds(Obj, ball) == (-2.0, 2.0)
    Obj.box = (0.0, 1.0)  # the ball intersected with the objective's box
    assert clamp_bounds(Obj, ball) == (0.0, 1.0)
    with pytest.raises(ValueError):
        LinfBall(-1.0)


def test_sq_distance():
    assert sq_distance(np.array([1.0, 2.0]), np.array([1.0, 0.0])) == 4.0
    with pytest.raises(ValueError):
        sq_distance(np.zeros(2), np.zeros(3))
