"""Bit-exact interchange formats for operators and generator images.

Operators serialize as {p, n, terms: [{coeff, x_exp, d_exp}]} with terms
in canonical order (divided index by total degree then lex, descending;
exponent vectors lex descending inside a part).  Generator image files
embed full operator objects.  JSON rendering is pinned (sorted keys,
two-space indent, trailing newline) so golden files compare byte for
byte.  The readers accept nothing else: a missing field, a wrongly
shaped one, a non-integer number or a repeated term raises MismatchError.
"""

from __future__ import annotations

import json

from .autgroup import GeneratorImages, ShiftVector
from .diffop import DiffOp
from .errors import MismatchError
from .laurent import LaurentPoly
from .scalars import Prime, as_prime


def op_to_dict(op: DiffOp) -> dict:
    terms = []
    for beta, f in op.sorted_parts():
        for exps, c in f.sorted_terms():
            terms.append({"coeff": c, "x_exp": list(exps), "d_exp": list(beta)})
    return {"p": op.p.p, "n": op.n, "terms": terms}


def _field(data, key: str, kind: type):
    """data[key], which must exist and be of JSON kind `kind`; integers
    must be genuine ones (no bool, no float)."""
    if not isinstance(data, dict) or key not in data:
        raise MismatchError(f"expected an object with field {key!r}")
    value = data[key]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise MismatchError(f"field {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _exponents(entry, key: str, n: int) -> tuple[int, ...]:
    value = _field(entry, key, list)
    if len(value) != n or any(type(e) is not int for e in value):
        raise MismatchError(f"field {key!r} must hold {n} integers, got {value!r}")
    return tuple(value)


def _header(data) -> tuple[Prime, int]:
    try:
        p = as_prime(_field(data, "p", int))
    except ValueError as exc:
        raise MismatchError(str(exc)) from None
    n = _field(data, "n", int)
    if n < 1:
        raise MismatchError(f"need n at least 1, got {n}")
    return p, n


def op_from_dict(data: dict) -> DiffOp:
    p, n = _header(data)
    parts: dict[tuple[int, ...], dict] = {}
    for entry in _field(data, "terms", list):
        beta = _exponents(entry, "d_exp", n)
        exps = _exponents(entry, "x_exp", n)
        terms = parts.setdefault(beta, {})
        if exps in terms:
            raise MismatchError(f"repeated term with x_exp {list(exps)} and d_exp {list(beta)}")
        terms[exps] = _field(entry, "coeff", int)
    return DiffOp(p, n, {b: LaurentPoly(p, n, t) for b, t in parts.items()})


def poly_to_dict(f: LaurentPoly) -> dict:
    return {
        "p": f.p.p,
        "n": f.n,
        "terms": [{"coeff": c, "x_exp": list(e)} for e, c in f.sorted_terms()],
    }


def images_to_dict(g: GeneratorImages) -> dict:
    return {
        "p": g.p.p,
        "n": g.n,
        "precision": g.precision,
        "x_images": [op_to_dict(img) for img in g.x_images],
        "xinv_images": [op_to_dict(img) for img in g.xinv_images],
        "d_images": [[op_to_dict(img) for img in row] for row in g.d_images],
    }


def images_from_dict(data: dict) -> GeneratorImages:
    p, n = _header(data)
    precision = _field(data, "precision", int)
    if precision < 1:
        raise MismatchError(f"need precision at least 1, got {precision}")

    rows = _field(data, "d_images", list)
    if not all(isinstance(row, list) for row in rows):
        raise MismatchError("field 'd_images' must be a list of lists")
    # GeneratorImages rejects embedded operators that disagree with p and n
    return GeneratorImages(
        p,
        n,
        precision,
        tuple(op_from_dict(e) for e in _field(data, "x_images", list)),
        tuple(op_from_dict(e) for e in _field(data, "xinv_images", list)),
        tuple(tuple(op_from_dict(e) for e in row) for row in rows),
    )


def shift_to_dict(s: ShiftVector) -> dict:
    return {
        "p": s.p.p,
        "n": s.n,
        "precision": s.precision,
        "digits": s.digit_rows(),
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)
