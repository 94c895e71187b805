"""Verification reports: every check can fail and still be recorded."""

import json

from tlcat.morphism import domain_for, e, identity
from tlcat.report import VerificationReport
from tlcat.scalar import Specialization


def test_check_records_failures_that_cannot_be_subtracted():
    rep = VerificationReport("report")
    rational = domain_for(Specialization.rational(2))
    assert not rep.check("shapes differ", {}, identity(2), identity(3))
    assert not rep.check("domains differ", {}, identity(2), identity(2, dom=rational))
    assert not rep.check("matrices differ", {}, [[1]], [[2]])
    for case in rep.cases:
        assert case["status"] == "fail"
        witness = case["witness"]
        assert witness["lhs"] and witness["rhs"]
        assert witness["diff"] is None
    assert rep.n_fail == 3 and not rep.ok


def test_check_keeps_the_difference_of_comparable_sides():
    rep = VerificationReport("report")
    assert not rep.check("e_1 = 1", {}, e(1, 2), identity(2))
    assert rep.cases[0]["witness"]["diff"] == (e(1, 2) - identity(2)).to_text()
    assert rep.check("1 = 1", {}, identity(2), identity(2))
    assert "witness" not in rep.cases[1]


def test_check_names_each_differing_matrix_entry():
    rep = VerificationReport("report")
    lhs, rhs = [{0: 1, 2: 5}, {}, {1: 3}], [{0: 1, 2: 4}, {1: 2}, {1: 3}]
    assert not rep.check("rows differ", {}, lhs, rhs)
    witness = rep.cases[0]["witness"]
    assert witness == {"lhs": "[{0: 1, 2: 5}, {}, {1: 3}]",
                       "rhs": "[{0: 1, 2: 4}, {1: 2}, {1: 3}]",
                       "diff": ["(0, 2): 1", "(1, 1): -2"]}
    assert not rep.check("heights differ", {}, lhs, rhs[:2])
    assert rep.cases[1]["witness"]["diff"] is None
    assert rep.check("equal rows", {}, lhs, [dict(row) for row in lhs])
    assert "witness" not in rep.cases[2]
    json.loads(rep.dumps())
