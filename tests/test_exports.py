"""Every name a module lists in __all__ resolves to an attribute."""

import importlib
import pkgutil

import pytest

import postfeas

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(postfeas.__path__))


def test_package_all_resolves():
    missing = [name for name in postfeas.__all__ if not hasattr(postfeas, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"postfeas.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("owner, name", [
    ("lp", "problem_to_json"),
    ("certification", "certificate_from_json"),
    ("stats.Rng", "clone"),
    ("cli.RunManifest", "from_json"),
    ("lp", "brute_force_lp"),
])
def test_no_test_only_names(owner, name):
    # Only tests called these.  They build and read JSON with json directly,
    # and the brute-force oracle lives in tests/lp_oracle.py.
    module, _, attr = owner.partition(".")
    obj = importlib.import_module(f"postfeas.{module}")
    obj = getattr(obj, attr) if attr else obj
    assert not hasattr(obj, name)
    assert name not in postfeas.__all__


@pytest.mark.parametrize("owner, name", [
    ("posterior", "OlsFit"),
    ("posterior", "NigPosterior"),
    ("posterior", "NigPrior"),
    ("posterior.StudentTRhs", "from_ols"),
    ("posterior", "_chol_with_jitter"),
    ("stats", "normal_array"),
    ("stats", "uniform_array"),
    ("scenario", "violation_bound"),
    ("lp.LpProblem", "_with_rhs"),
    ("lp._BoundedSimplex", "_reduced_costs"),
    ("lp._BoundedSimplex", "_set_status"),
    ("lp", "_ROW_ENTRIES"),
    ("lp", "_violation"),
])
def test_no_folded_names(owner, name):
    # One Nig type serves as prior, posterior and least-squares fit, and
    # StudentTRhs.from_nig gives every predictive; a precision that is
    # not positive definite raises rather than taking a jitter; callers
    # draw from rng.generator and take the scenario bound from
    # stats.binomial_tail; a simplex takes a new rhs through replace_rhs,
    # prices from the reduced costs its tableau keeps, stands a column at
    # a value rather than a status code, and checks a row through its
    # logical, in max_violation as in solution().
    module, _, attr = owner.partition(".")
    obj = importlib.import_module(f"postfeas.{module}")
    obj = getattr(obj, attr) if attr else obj
    assert not hasattr(obj, name)
    assert name not in postfeas.__all__
    assert not hasattr(postfeas, name)


@pytest.mark.parametrize("owner, name", [
    ("cli", "_read_json"),
    ("cli", "_require"),
    ("cli", "_require_list"),
    ("cli", "_certify_replay"),
    ("lp", "_loads"),
    ("posterior", "_parse_number"),
    ("posterior", "_numbers_only"),
    ("experiments", "_finite"),
    ("experiments", "_check_open_unit"),
])
def test_one_reader_for_every_document(owner, name):
    # Every input document is read by postfeas._reader, whose is_number is
    # the one test of a number; no module keeps a parser of its own.
    assert not hasattr(importlib.import_module(f"postfeas.{owner}"), name)
