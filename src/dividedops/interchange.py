"""Bit-exact interchange formats for operators and generator images.

Operators serialize as {p, n, terms: [{coeff, x_exp, d_exp}]} with terms
in canonical order (divided index by total degree then lex, descending;
exponent vectors lex descending inside a part).  Generator image files
embed full operator objects.  JSON rendering is pinned (sorted keys,
two-space indent, trailing newline) so golden files compare byte for
byte; `dumps` writes that format itself and is byte for byte
`json.dumps(obj, indent=2, sort_keys=True)` plus a newline.  The readers
accept nothing else: a missing or unknown field, a wrongly shaped one, a
non-integer number, a coefficient outside 1..p-1 or a repeated term
raises MismatchError, and `loads` raises ParseError on text that is not
JSON.

Term lists cross the boundary as one unit, and so do the term lists of a
list of operator objects (an image file's x images, say).  `_columns`
takes the fields of a list of dicts one column at a time, and a few
passes over the columns check them all at once: exact dicts of exactly
the fields, genuine ints (no bools), lists of ints.  The writer then
formats each term from one %-format string per indent and shape, and
each operator from one more; the reader checks lengths, residues and
signs over the columns, groups the terms by divided index, finds a
repeated term as it groups, and wraps the parts as they are, with no
second normalization.  Any other list goes item by item, as before the
list-level pass: the generic writer, and on reading one operator at a
time and `_term`, which checks the fields of one entry in turn, so
every error names the first faulty entry.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
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
_TERM_GETTERS = tuple(map(itemgetter, ("coeff", "d_exp", "x_exp")))
_OP_GETTERS = tuple(map(itemgetter, ("n", "p", "terms")))


def op_to_dict(op: DiffOp) -> dict:
    # most parts of a deep level image hold one term, which needs no sort
    terms = [{"coeff": c, "x_exp": [*exps], "d_exp": [*beta]} for beta, f in op.sorted_parts()
             for exps, c in (f.sorted_terms() if len(f.terms) > 1 else f.terms.items())]
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


def _columns(items: list, getters: tuple):
    """One list per field of a list of dicts that each hold exactly the
    fields of `getters`; None for any other list, or an empty one."""
    try:
        columns = [[*map(get, items)] for get in getters]
    except (KeyError, TypeError):  # an item with no such field, or not a mapping
        return None
    if {*map(type, items), *map(len, items)} != {dict, len(getters)}:
        return None
    return columns


def _term_columns(items: list):
    """The coefficients, d_exp lists and x_exp lists of a list of plain term
    objects: an int coefficient and two lists of ints (no bools); None for
    any other list."""
    columns = _columns(items, _TERM_GETTERS)
    if columns is None:
        return None
    coeffs, betas, exps = columns
    if ({*map(type, betas), *map(type, exps)} != {list}
            or {*map(type, coeffs), *map(type, chain(*betas, *exps))} != {int}):
        return None
    return columns


def _op_columns(items: list):
    """The n's, p's and term lists of a list of plain operator objects: int
    n and p (no bools) and a list of terms; None for any other list."""
    columns = _columns(items, _OP_GETTERS)
    if columns is None:
        return None
    ns, ps, lists = columns
    if {*map(type, lists)} != {list} or {*map(type, ns), *map(type, ps)} != {int}:
        return None
    return columns


def _term(entry, n: int, pp: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(d_exp, x_exp, coeff) of one term object, which must hold exactly
    those fields: two lists of n integers and a residue in 1..p-1.  The
    checks run one at a time, to name the first that fails."""
    beta = _exponents(entry, "d_exp", n)
    exps = _exponents(entry, "x_exp", n)
    c = _field(entry, "coeff", int)
    if not 0 < c < pp:
        raise MismatchError(f"field 'coeff' must be a residue in 1..{pp - 1}, got {c}")
    _known_fields(entry, _TERM_FIELDS, "a term")
    return beta, exps, c


def _parts(entries: list, sizes: list, n: int, pp: int) -> list | None:
    """The parts {d_exp: {x_exp: coeff}} of each run of `sizes` entries of
    a term list that passes every check of `_term`, with no negative
    divided index and no term repeated in a run, all checked over the
    whole list at once; None for any other list."""
    columns = _term_columns(entries)
    if columns is None:
        return None
    coeffs, betas, exps = columns
    if ({*map(len, betas), *map(len, exps)} != {n} or not 0 < min(coeffs) <= max(coeffs) < pp
            or min(chain(*betas)) < 0):
        return None
    rows = zip(map(tuple, betas), map(tuple, exps), coeffs)
    runs = []
    for size in sizes:
        parts: dict[tuple[int, ...], dict] = {}
        for beta, e, c in islice(rows, size):
            terms = parts.get(beta)
            if terms is None:
                parts[beta] = {e: c}
            elif e in terms:
                return None  # a repeated term
            else:
                terms[e] = c
        runs.append(parts)
    return runs


def _operators(runs: list, p: Prime, n: int) -> list:
    """The operators of the parts that `_parts` read, wrapped as they are."""
    proto, zero = LaurentPoly.zero(p, n), DiffOp.zero(p, n)
    return [zero._wrap({b: proto._wrap(t) for b, t in parts.items()}) for parts in runs]


def _read_ops(entries: list, p: Prime, n: int) -> list | None:
    """The operators of a list of operator objects of this p and n, their
    term lists read as one by `_parts`; None for any other list."""
    columns = _op_columns(entries)
    if columns is None or {*columns[0]} != {n} or {*columns[1]} != {p.p}:
        return None
    lists = columns[2]
    runs = _parts([*chain(*lists)], [*map(len, lists)], n, p.p)
    return None if runs is None else _operators(runs, p, n)


def op_from_dict(data: dict, prime: Prime | None = None) -> DiffOp:
    """The operator of data; `prime`, if given, is reused for an equal p.
    A term list that `_parts` takes is read at once; any other goes term
    by term, so that the first faulty entry is the one named."""
    p, n = _header(data, prime)
    _known_fields(data, _OP_FIELDS, "an operator")
    entries = _field(data, "terms", list)
    runs = _parts(entries, [len(entries)], n, p.p)
    if runs is not None:
        return _operators(runs, p, n)[0]
    parts = {}
    for entry in entries:
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
    # all operators at once when every one is well formed, with this p and
    # n; else one at a time, to name the first fault.  GeneratorImages
    # rejects embedded operators that disagree with p and n
    xs, xinvs = data.get("x_images"), data.get("xinv_images")
    ops = _read_ops([*xs, *xinvs, *chain(*rows)], p, n) if (
        type(xs) is list and type(xinvs) is list) else None
    if ops is None:
        xs = tuple(op_from_dict(e, p) for e in _field(data, "x_images", list))
        xinvs = tuple(op_from_dict(e, p) for e in _field(data, "xinv_images", list))
        rows = tuple(tuple(op_from_dict(e, p) for e in row) for row in rows)
    else:
        ops = iter(ops)
        xs, xinvs = tuple(islice(ops, len(xs))), tuple(islice(ops, len(xinvs)))
        rows = tuple(tuple(islice(ops, len(row))) for row in rows)
    return GeneratorImages(p, n, precision, xs, xinvs, rows)


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
        _write(obj, "\n", out)
    except ValueError:  # an int past str()'s digit limit
        raise NumberTooLong() from None
    out.append("\n")
    return "".join(out)


def _write(value, nl: str, out: list):
    """Append the JSON text of value, whose lines are indented as `nl`
    (a newline and the indent) is."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        texts = _op_texts([value], nl)
        if texts:
            out.append(texts[0])
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(json.encoder.encode_basestring_ascii(key))
            out.append(": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        texts = type(value) is list and _op_texts(value, inner)
        if texts:
            out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(int.__repr__(value) if type(value) is int else json.dumps(value))


def _op_texts(items: list, nl: str) -> list | None:
    """The texts of a list of plain operator objects, indented as `nl` is,
    whose term lists together are plain and of one shape, each term from
    one %-format; None for any other list."""
    columns = _op_columns(items)
    terms = columns and _term_columns([*chain(*columns[2])])
    if not terms:
        return None
    coeffs, betas, exps = terms
    nd, nx = {*map(len, betas)}, {*map(len, exps)}
    if len(nd) != 1 or len(nx) != 1:
        return None
    key, item = nl + "  ", nl + "    "
    template = _term_template(item, *nd, *nx)
    texts = [template % (c, *b, *e) for c, b, e in zip(coeffs, betas, exps)]
    head = f'{{{key}"n": %s,{key}"p": %s,{key}"terms": '
    ops, start = [], 0
    for n, p, size in zip(columns[0], columns[1], map(len, columns[2])):
        body = ("," + item).join(texts[start:start + size])
        ops.append(head % (n, p) + ("[" + item + body + key + "]" if size else "[]") + nl + "}")
        start += size
    return ops


@lru_cache(maxsize=64)  # one format per indent and shape; a file uses a few
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
