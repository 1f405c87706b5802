"""Exact arithmetic in rings of divided-power differential operators on
Laurent polynomials over F_p, and their order preserving automorphisms.

`import dividedops` loads no submodule: each public name is imported
from its home module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it, each name listed once
_HOMES = {name: home for home, names in {
    "autgroup": "FactoredAut GeneratorImages MonomialAut ShiftVector apply_images "
                "compose_images extract_digits factorize matrix_shift monomial_apply "
                "monomial_generator_images shift_apply shift_compose_images "
                "shift_generator_images validate_generator_images",
    "diffop": "DiffOp normal_form_from_action",
    "errors": "DividedOpsError InconsistentAction InsufficientPrecision InvalidAutomorphism "
              "MismatchError NotAUnit NotGL NotInStabilizer NotSigmaForm NumberTooLong "
              "ParseError PrecisionMismatch WindowTooLarge",
    "expr": "eval_laurent eval_operator parse",
    "laurent": "LaurentPoly",
    "oracles": "ExponentWindow action_equiv_check kernel_bruteforce relation_suite",
    "scalars": "FpScalar PadicInt Prime binom_int_mod_p binom_padic padic_length",
}.items() for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # looked up in the home module on every access and never stored here,
    # so a name rebound there (a test's patch, a tracer's wrapper) reads through
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_HOMES})
