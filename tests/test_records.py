"""The package's records are namedtuple subclasses: the checked ones
check however they are made, the certificate equals only itself, the
theta sequence caches its exps, and reprs read as before."""

import copy
import pickle

import numpy as np
import pytest

from secretary_lab import theta
from secretary_lab.dual import construct_dual
from secretary_lab.sim import ArrivalInstance
from secretary_lab.theta import ThetaSequence, generate_thetas
from secretary_lab.value import MonotonicityError, ThresholdMatrix

# Each way but calling the class to make a record of record's type from the
# fields of `fields`.
REMAKE = {
    "_replace": lambda record, fields: record._replace(**fields._asdict()),
    "_make": lambda record, fields: type(record)._make(fields),
    "pickle": lambda record, fields: pickle.loads(pickle.dumps(fields)),
    "deepcopy": lambda record, fields: copy.deepcopy(fields),
    "copy": lambda record, fields: copy.copy(fields),
}


def unchecked(cls, *fields):
    """A record of cls holding fields that its own checks would refuse."""
    return tuple.__new__(cls, fields)


@pytest.mark.parametrize("how", sorted(REMAKE))
def test_threshold_matrix_checks_its_order_however_made(how):
    good = ThresholdMatrix(1, 2, ((0.4, 0.5),))
    assert REMAKE[how](good, good) == good
    bad = unchecked(ThresholdMatrix, 1, 2, ((0.5, 0.4),))
    with pytest.raises(MonotonicityError, match="row 1 not increasing in k at k=1"):
        REMAKE[how](good, bad)


@pytest.mark.parametrize("how", sorted(REMAKE))
def test_arrival_instance_checks_its_ranks_however_made(how):
    good = ArrivalInstance(np.array([0.1, 0.2]), np.array([2, 1]))
    remade = REMAKE[how](good, good)
    assert remade.times.tolist() == [0.1, 0.2] and remade.ranks.tolist() == [2, 1]
    bad = unchecked(ArrivalInstance, np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(ValueError, match="permutation"):
        REMAKE[how](good, bad)


def test_certificate_equals_and_hashes_as_itself():
    """Its fields are arrays, so comparing them elementwise would raise."""
    cert = construct_dual(2, 2)
    twin = cert._replace()
    assert cert == cert and not cert != cert
    assert twin != cert and not twin == cert
    assert hash(cert) == object.__hash__(cert)
    assert len({cert, twin}) == 2


def test_theta_sequence_computes_each_exp_once_per_instance(monkeypatch):
    calls = []
    real = theta.exp_neg
    monkeypatch.setattr(theta, "exp_neg", lambda t: calls.append(t) or real(t))
    ts = generate_thetas(3)
    assert ts.exps is ts.exps
    assert calls == list(ts.thetas)
    again = ThetaSequence(ts.thetas)
    assert again == ts and again.exps == ts.exps
    assert calls == list(ts.thetas) * 2


def test_threshold_matrix_repr():
    assert repr(ThresholdMatrix(1, 1, ((0.5,),))) == "ThresholdMatrix(J=1, K=1, tau=((0.5,),))"
