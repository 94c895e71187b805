"""Every name a tlcat module exports in ``__all__`` exists, so a deletion
cannot leave a stale export behind, and every public function or class a
module defines is in its ``__all__``, so an entry point cannot fall out.
Each name has one home: a submodule exports only the functions and
classes it defines, and no constant is exported by two submodules (the
package ``tlcat`` gathers them all).
The verifiers of the braid, twist, dilute and integrable suites prove
their identities over Q(s) (with u, v, w) and take no coefficient domain;
the four entry points the benchmark passes ``dom=`` to accept the generic
domain alone."""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import tlcat
from tlcat.braid import verify_braid_suite
from tlcat.dilute import verify_dilute_braiding
from tlcat.integrable import FaceOperator, transfer_matrix, verify_integrable_suite
from tlcat.morphism import domain_for
from tlcat.scalar import Specialization

MODULES = ["tlcat"] + [f"tlcat.{m.name}" for m in pkgutil.iter_modules(tlcat.__path__)]
SUBMODULES = MODULES[1:]
GENERIC_ONLY = ["tlcat.braid", "tlcat.twist", "tlcat.dilute", "tlcat.integrable"]
KEEPS_DOM = {
    "verify_braid_suite": lambda dom: verify_braid_suite(dom=dom),
    "verify_dilute_braiding": lambda dom: verify_dilute_braiding(dom=dom),
    "verify_integrable_suite": lambda dom: verify_integrable_suite(dom=dom),
    "transfer_matrix": lambda dom: transfer_matrix(2, dom=dom),
}


def _is_code(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_exported(name):
    module = importlib.import_module(name)
    unlisted = [n for n, obj in vars(module).items()
                if _is_code(obj) and obj.__module__ == name and not n.startswith("_")
                and n not in module.__all__]
    assert not unlisted


@pytest.mark.parametrize("name", SUBMODULES)
def test_functions_and_classes_are_exported_where_defined(name):
    module = importlib.import_module(name)
    foreign = [n for n in getattr(module, "__all__", ())
               if _is_code(getattr(module, n)) and getattr(module, n).__module__ != name]
    assert not foreign


def test_no_constant_is_exported_twice():
    homes = {}
    for name in SUBMODULES:
        module = importlib.import_module(name)
        for n in getattr(module, "__all__", ()):
            if not _is_code(getattr(module, n)):
                homes.setdefault(n, []).append(name)
    assert {n: h for n, h in homes.items() if len(h) > 1} == {}


@pytest.mark.parametrize("name", GENERIC_ONLY)
def test_generic_only_verifiers_take_no_domain(name):
    module = importlib.import_module(name)
    names = [n for n, f in vars(module).items()
             if inspect.isfunction(f) and f.__module__ == name
             and (n.startswith("verify_") or n in ("face", "monodromy_noncentral_witness"))]
    assert names
    with_dom = [n for n in names if "dom" in inspect.signature(getattr(module, n)).parameters]
    assert sorted(with_dom) == sorted(n for n in KEEPS_DOM if n in names)


def test_face_operator_has_no_domain():
    assert "dom" not in {f.name for f in dataclasses.fields(FaceOperator)}


@pytest.mark.parametrize("name", sorted(KEEPS_DOM))
def test_benchmark_entry_points_refuse_a_specialised_domain(name):
    with pytest.raises(ValueError, match="Q\\(s\\) only"):
        KEEPS_DOM[name](domain_for(Specialization.rational(Fraction(5, 3))))
