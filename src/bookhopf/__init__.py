"""Exact computational kernel for the book Hopf algebras H(p, s).

H(p, s) is the p^3-dimensional Hopf algebra over Q(zeta_p) generated by a
group-like g of order p and two skew-primitives x, y subject to q-commutation
relations (q = zeta_p a primitive p-th root of unity).  The package provides:

- exact cyclotomic scalars (``cyclotomic``),
- the PBW basis x^b y^c g^a with closed-form structure constants (``pbw``),
- the structure maps Delta, eps, S and their iterates (``hopf``),
- checkers for all Hopf-algebra axioms, each proved on the live tables or
  swept exhaustively, none of them sampled (``axioms``),
- a brute-force classifier for modular pairs in involution, cross-checked
  against closed-form congruences (``mpi``),
- a command-line front end (``cli``).

Everything is computed in exact arithmetic; no floats, no numerical error.
"""

from importlib import import_module

# each public name -> the submodule that owns it, imported on the name's first access (``__getattr__``),
# so that ``import bookhopf`` loads no submodule and a command loads only the modules it runs
_OWNER = {
    **dict.fromkeys((
        "AxiomReport", "AxiomResult", "Violation", "check_antipode_law", "check_associativity",
        "check_bialgebra_compat", "check_coassociativity", "check_counit_law", "check_relations", "run_all",
    ), "axioms"),
    **dict.fromkeys(("Cyclotomic", "cyc_one", "cyc_zero", "is_odd_prime", "root_power"), "cyclotomic"),
    "BookAlgebra": "hopf",
    "negative_control_matches": "lanes",
    **dict.fromkeys((
        "Character", "Classification", "ConsistencyError", "GroupLike", "PairReport", "check_convolution_inverse",
        "classify", "closed_form_predicate", "enumerate_characters", "enumerate_group_likes",
        "implements_s_squared", "is_stable", "twist",
    ), "mpi"),
    **dict.fromkeys(("Element", "Monomial", "Tensor2", "Tensor3", "mono_mul", "mono_mul_exp"), "pbw"),
}

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "AxiomResult", "BookAlgebra", "Character", "Classification", "ConsistencyError",
    "Cyclotomic", "Element", "GroupLike", "Monomial", "PairReport", "Tensor2", "Tensor3", "Violation",
    "check_antipode_law", "check_associativity", "check_bialgebra_compat", "check_coassociativity",
    "check_convolution_inverse", "check_counit_law", "check_relations", "classify", "closed_form_predicate",
    "cyc_one", "cyc_zero", "enumerate_characters", "enumerate_group_likes", "implements_s_squared",
    "is_odd_prime", "is_stable", "mono_mul", "mono_mul_exp", "negative_control_matches", "root_power",
    "run_all", "twist",
]


def __getattr__(name):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{owner}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
