"""Bit-exact interchange formats for operators and generator images.

Operators serialize as {p, n, terms: [{coeff, x_exp, d_exp}]} with terms
in canonical order (divided index by total degree then lex, descending;
exponent vectors lex descending inside a part).  Generator image files
embed full operator objects.  JSON rendering is pinned (sorted keys,
two-space indent, trailing newline) so golden files compare byte for
byte; `dumps` writes that format itself, each term object from one
format string, and is byte for byte `json.dumps(obj, indent=2,
sort_keys=True)` plus a newline.  The readers accept nothing else: a
missing or unknown field, a wrongly shaped one, a non-integer number, a
coefficient outside 1..p-1 or a repeated term raises MismatchError,
and `loads` raises ParseError on text that is not JSON.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .diffop import DiffOp
from .errors import MismatchError, NumberTooLong, ParseError
from .laurent import LaurentPoly
from .scalars import Prime, read_prime

if TYPE_CHECKING:  # writing needs no autgroup; only images_from_dict builds one
    from .autgroup import GeneratorImages, ShiftVector

_OP_FIELDS = frozenset(("p", "n", "terms"))
_TERM_FIELDS = frozenset(("coeff", "d_exp", "x_exp"))
_IMAGES_FIELDS = frozenset(("p", "n", "precision", "x_images", "xinv_images", "d_images"))
_INT_ONLY = frozenset((int,))


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


def _header(data, prime: Prime | None = None) -> tuple[Prime, int]:
    """(p, n) of an object; a p equal to the given `prime` reuses it."""
    value = _field(data, "p", int)
    p = prime if prime is not None and value == prime.p else read_prime(value)
    n = _field(data, "n", int)
    if n < 1:
        raise MismatchError(f"need n at least 1, got {n}")
    return p, n


def _known_fields(data: dict, fields: frozenset, what: str):
    unknown = data.keys() - fields
    if unknown:
        raise MismatchError(f"unknown field {min(unknown, key=repr)!r} in {what}")


def _plain_term(value: dict):
    """(coeff, d_exp, x_exp) of a dict with exactly those fields, an int
    coefficient and two lists of ints (no bools); None for any other."""
    if value.keys() == _TERM_FIELDS:
        c, beta, exps = value["coeff"], value["d_exp"], value["x_exp"]
        if (type(beta) is list and type(exps) is list
                and {type(c), *map(type, beta), *map(type, exps)} == _INT_ONLY):
            return c, beta, exps
    return None


def _term(entry, n: int, pp: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(d_exp, x_exp, coeff) of one term object, which must hold exactly
    those fields: two lists of n integers and a residue in 1..p-1."""
    term = _plain_term(entry) if type(entry) is dict else None
    if term is not None:
        c, beta, exps = term
        if len(beta) == len(exps) == n and 0 < c < pp:
            return tuple(beta), tuple(exps), c
    # the same checks one at a time, to name the first that fails
    beta = _exponents(entry, "d_exp", n)
    exps = _exponents(entry, "x_exp", n)
    c = _field(entry, "coeff", int)
    if not 0 < c < pp:
        raise MismatchError(f"field 'coeff' must be a residue in 1..{pp - 1}, got {c}")
    _known_fields(entry, _TERM_FIELDS, "a term")
    return beta, exps, c


def op_from_dict(data: dict, prime: Prime | None = None) -> DiffOp:
    """The operator of data; `prime`, if given, is reused for an equal p."""
    p, n = _header(data, prime)
    _known_fields(data, _OP_FIELDS, "an operator")
    parts: dict[tuple[int, ...], dict] = {}
    for entry in _field(data, "terms", list):
        beta, exps, c = _term(entry, n, p.p)
        terms = parts.setdefault(beta, {})
        if exps in terms:
            raise MismatchError(f"repeated term with x_exp {list(exps)} and d_exp {list(beta)}")
        terms[exps] = c
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
    from .autgroup import GeneratorImages

    p, n = _header(data)
    _known_fields(data, _IMAGES_FIELDS, "generator images")
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
        tuple(op_from_dict(e, p) for e in _field(data, "x_images", list)),
        tuple(op_from_dict(e, p) for e in _field(data, "xinv_images", list)),
        tuple(tuple(op_from_dict(e, p) for e in row) for row in rows),
    )


def shift_to_dict(s: ShiftVector) -> dict:
    return {
        "p": s.p.p,
        "n": s.n,
        "precision": s.precision,
        "digits": s.digit_rows(),
    }


def dumps(obj: dict) -> str:
    """obj as JSON text in the pinned format: byte for byte
    json.dumps(obj, indent=2, sort_keys=True) + "\n".  A non-string key
    raises TypeError; an int past str()'s digit limit, NumberTooLong."""
    out: list[str] = []
    try:
        _write(obj, "\n", out, {})
    except ValueError:  # an int past str()'s digit limit
        raise NumberTooLong() from None
    out.append("\n")
    return "".join(out)


def _write(value, nl: str, out: list, templates: dict):
    """Append the JSON text of value, whose lines are indented as `nl`
    (a newline and the indent) is; `templates` caches term formats."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        term = _plain_term(value)
        if term is not None:
            c, beta, exps = term
            key = (nl, len(beta), len(exps))
            template = templates.get(key)
            if template is None:
                template = templates[key] = _term_template(nl, len(beta), len(exps))
            out.append(template % (c, *beta, *exps))
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(json.encoder.encode_basestring_ascii(key))
            out.append(": ")
            _write(value[key], inner, out, templates)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out, templates)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(value))


def _term_template(nl: str, nd: int, nx: int) -> str:
    """The %-format of a term object {coeff, d_exp, x_exp} with nd and nx
    exponents, indented as `nl` is."""
    inner = nl + "  "

    def array(k: int) -> str:
        if not k:
            return "[]"
        item = inner + "  "
        return "[" + item + ("," + item).join(["%s"] * k) + inner + "]"

    return (f'{{{inner}"coeff": %s,{inner}"d_exp": {array(nd)},'
            f'{inner}"x_exp": {array(nx)}{nl}}}')


def loads(text: str, source: str = "the input"):
    """The JSON value of text; text that is not JSON, or holds an integer too
    long for int() or nesting too deep to read, raises ParseError naming source."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {source}: {exc.msg}", exc.pos) from None
    except ValueError as exc:  # an integer too long for int()
        raise ParseError(f"bad JSON in {source}: {exc}", 0) from None
    except RecursionError:
        raise ParseError(f"JSON in {source} is nested too deeply to read", 0) from None
