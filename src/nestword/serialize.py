"""JSON serialization for machines.

One document per machine: a `kind` field selects the schema, list-valued
fields are emitted in a sorted canonical order, and transition rows are

    fsa   [src, symbol, dst]
    pda   [src, symbol-or-null, stack symbol, dst, [push...]]
    vpa   [src, "<a", dst, push]  /  [src, "a", dst]  /  [src, "a>", stack symbol, dst]
    nvpa  as vpa, one row per nondeterministic choice

The VPA bottom symbol is serialized under "bottom" and may appear as the
stack symbol of return rows.  Tuple-shaped labels (pair-FSA symbols) become
JSON arrays and are read back as tuples.  A float label must be finite:
JSON has no NaN or infinity, so `dumps` refuses such a label and
`parse_json` (which `loads` reads through) refuses the constants NaN,
Infinity and -Infinity.  Every list-valued field, every row and every
push word must be a JSON array.  In an fsa, pda or vpa document a row may
repeat, but two different rows for one key are an error.

Byte contract: where `dumps(m)` succeeds it is exactly `json.dumps(doc,
indent=2, sort_keys=True) + "\\n"` of the document, where label sets and
transition rows are ordered by their compact JSON text (`json.dumps(value)`
with the default separators), and the alphabet keeps the machine's order,
so parse-then-print is the identity on printed documents.  The writer
prints that layout itself.  It encodes each label once per document,
floats (0.0 equals -0.0) and tuples excepted, and each token once per
letter.  When every label is a scalar, it prints the rows straight from
the machine's tables: one string per row, which sorts as the row's
compact text does (`_rows`), one sort, one join.  Tuple labels, and a
pda's push words, are printed by `_printed`.

The reader (`from_doc`) reads a vpa's or an nvpa's rows in one pass, in
document order (`_vpa_deltas`): each token goes through the token memo
that `parse_word` uses, and each row is unpacked once and written
straight into its table, so of several faulty rows the first is the one
reported.  A vpa's rows are read again, keeping each key's first target,
only where its tables end with fewer keys than there are rows.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import isfinite

from .machines import Fsa, Nvpa, Pda, Vpa
from .words import Tag, _parse_token


class SerializationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# writing


class _Texts(dict):
    """label -> its compact JSON text: how a scalar label prints, and the
    sort key of a tuple label or of a row of tuples.  A string label's
    text is cached under the label; an integer's, boolean's or None's in
    `typed` under (exact type, label), because labels that compare equal
    (1 and True) must keep their own text.  Floats are not cached, as 0.0
    and -0.0 are equal and of one type, nor are tuples."""

    def __init__(self):
        super().__init__()
        self.typed: dict = {}  # (type, label) -> text

    def __missing__(self, label) -> str:
        text = self.typed.get((type(label), label))
        if text is not None:
            return text
        if isinstance(label, tuple):
            return "[" + ", ".join([self[v] for v in label]) + "]"
        if isinstance(label, str):
            text = self[label] = encode_basestring_ascii(label)
            return text
        if isinstance(label, float):
            if not isfinite(label):
                raise SerializationError(f"label {label!r} has no JSON form: NaN and infinities are not JSON")
            return json.dumps(label)
        if isinstance(label, int) or label is None:
            text = self.typed[type(label), label] = json.dumps(label)
            return text
        raise SerializationError(
            f"label {label!r} is not JSON-serializable; canonicalize() the machine first"
        )


def _array(items: list, pad: str) -> str:
    """An indent-2 JSON array of already printed items; `pad` is the
    newline and indent of the line that closes it."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _printed(value, pad: str, texts: _Texts) -> str:
    """The indent-2 text of a label or row whose closing line is at `pad`."""
    if isinstance(value, tuple):
        return _array([_printed(v, pad + "  ", texts) for v in value], pad)
    return texts[value]


def _rows(keys: list) -> str:
    """The transitions field of a machine whose labels are all scalars,
    from its rows' keys.  A row's key is its printed text with its closing
    line cut to a bare "]".  Keys sort as the rows' compact texts do.  A
    key differs from the compact text only in its opening, which every key
    shares, and in what follows each "," between labels.  A comparison
    reaches that part of one key only where the other key has a "," at
    the same place, and then the other key is between labels too: no
    scalar's text is a proper prefix of another's followed by ",".  The
    "]" after the last label sorts [1, 12] before [1, 1], as compact text
    does."""
    if not keys:
        return "[]"
    keys.sort()
    rows = [key[:-1] for key in keys]
    rows[0] = "[\n    " + rows[0]
    rows[-1] += "\n    ]\n  ]"
    return "\n    ],\n    ".join(rows)


def _printed_rows(rows: list, texts: _Texts) -> str:
    """Transition rows that may hold a tuple label (a pda's push words are
    tuples), ordered by their compact text."""
    keys = [texts[row] for row in rows]
    order = sorted(range(len(rows)), key=keys.__getitem__)
    return _array([_printed(rows[i], "\n    ", texts) for i in order], "\n  ")


def _fsa_rows(m: Fsa, texts: _Texts, nested: bool) -> str:
    if nested:
        return _printed_rows([(q, a, dst) for (q, a), dst in m.delta.items()], texts)
    t = texts
    return _rows([f"[\n      {t[q]},\n      {t[a]},\n      {t[dst]}]" for (q, a), dst in m.delta.items()])


def _vpa_rows(m, texts: _Texts, nested: bool) -> str:
    """A Vpa's or an Nvpa's rows, the tokens' texts made once per letter."""
    calls, internals, returns = (
        (m.delta_c.items(), m.delta_i.items(), m.delta_r.items()) if isinstance(m, Vpa)
        else ([(key, move) for key, moves in table.items() for move in moves]
              for table in (m.delta_c, m.delta_i, m.delta_r))
    )
    if nested:
        rows = [(q, "<" + a, dst, g) for (q, a), (dst, g) in calls]
        rows += [(q, a, dst) for (q, a), dst in internals]
        rows += [(q, a + ">", g, dst) for (q, a, g), dst in returns]
        return _printed_rows(rows, texts)
    t = texts
    call = {a: encode_basestring_ascii("<" + a) for a in m.alphabet}
    ret = {a: encode_basestring_ascii(a + ">") for a in m.alphabet}
    keys = [f"[\n      {t[q]},\n      {call[a]},\n      {t[dst]},\n      {t[g]}]" for (q, a), (dst, g) in calls]
    keys += [f"[\n      {t[q]},\n      {t[a]},\n      {t[dst]}]" for (q, a), dst in internals]
    keys += [f"[\n      {t[q]},\n      {ret[a]},\n      {t[g]},\n      {t[dst]}]" for (q, a, g), dst in returns]
    return _rows(keys)


def _fields(m, texts: _Texts) -> dict:
    """Each top-level field of m's document, printed."""
    if not isinstance(m, (Fsa, Pda, Vpa, Nvpa)):
        raise SerializationError(f"cannot serialize {type(m).__name__}")
    # each row label is equal to a letter, a state, a stack symbol or the
    # bottom, and only a tuple is equal to a tuple
    sets = (m.alphabet, m.states) if isinstance(m, Fsa) else (m.alphabet, m.states, m.stack_alphabet, (m.bottom,))
    nested = any(isinstance(v, tuple) for v in chain.from_iterable(sets))

    def label(v):
        return _printed(v, "\n  ", texts)

    def labels(vs):  # a label set, ordered by compact text
        return _array([_printed(v, "\n    ", texts) for v in sorted(vs, key=texts.__getitem__)], "\n  ")

    def alphabet():
        return _array([_printed(a, "\n    ", texts) for a in m.alphabet], "\n  ")

    if isinstance(m, Fsa):
        return {
            "alphabet": alphabet(),
            "states": labels(m.states),
            "initial": label(m.initial),
            "accepts": labels(m.accepts),
            "transitions": _fsa_rows(m, texts, nested),
        }
    if isinstance(m, Pda):
        return {
            "alphabet": alphabet(),
            "states": labels(m.states),
            "stack_alphabet": labels(m.stack_alphabet),
            "initial": label(m.initial),
            "bottom": label(m.bottom),
            "accepts": labels(m.accepts),
            "transitions": _printed_rows([(q, a, g, dst, push) for (q, a, g), (dst, push) in m.delta.items()], texts),
        }
    fields = {
        "alphabet": alphabet(),
        "states": labels(m.states),
        "stack_alphabet": labels(m.stack_alphabet),
        "bottom": label(m.bottom),
        "accepts": labels(m.accepts),
        "accept_stack": labels(m.accept_stack),
        "transitions": _vpa_rows(m, texts, nested),
    }
    if isinstance(m, Vpa):
        fields["initial"] = label(m.initial)
    else:
        fields["initials"] = labels(m.initials)
    return fields


def dumps(m) -> str:
    texts = _Texts()
    fields = _fields(m, texts)
    fields["kind"] = texts[m.kind]
    parts = []
    for name in sorted(fields):
        parts += (',\n  "', name, '": ', fields[name])
    parts[0] = '{\n  "'
    parts.append("\n}\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# reading


def _tuple(value: list) -> tuple:
    """A JSON array label as a tuple, nested arrays included."""
    return tuple([_tuple(v) if type(v) is list else v for v in value])


def _label(value):
    """For a label that parsing puts into no set or key: hashing it here
    turns a JSON object into an error on its field, not a later one."""
    if type(value) is list:
        value = _tuple(value)
    hash(value)
    return value


def _array_of(value) -> list:
    if type(value) is not list:
        raise TypeError(f"expected an array, got {value!r}")
    return value


def _labels(values) -> frozenset:
    return frozenset([_tuple(v) if type(v) is list else v for v in _array_of(values)])


def _alphabet(values) -> tuple:
    return tuple(map(_label, _array_of(values)))


def _row_arrays(rows, tuples: bool) -> list:
    """The transition rows, each a JSON array, checked once over the whole
    document; with `tuples`, their array labels become tuples."""
    rows = _array_of(rows)
    if not {*map(type, rows)} <= {list}:
        bad = next(row for row in rows if type(row) is not list)
        raise TypeError(f"transition row {bad!r} is not an array")
    if tuples:
        rows = [[_tuple(v) if type(v) is list else v for v in row] if list in map(type, row) else row for row in rows]
    return rows


def _field(doc: dict, name: str, convert=_label):
    """doc[name] through convert; a missing or malformed field raises a
    SerializationError that names it."""
    try:
        value = doc[name]
    except KeyError:
        raise SerializationError(f"{doc['kind']} document has no {name!r} field") from None
    try:
        return convert(value)
    except SerializationError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad {name!r} field in {doc['kind']} document: {exc}") from None


def _deterministic(moves: list, kind: str) -> dict:
    """The table of (key, target) moves, in order, for a deterministic
    machine: a repeated move loads, a second, different target for a key
    is an error.  The first target of a key is kept."""
    table: dict = {}
    for key, value in moves:
        old = table.setdefault(key, value)
        if old is not value and old != value:
            raise SerializationError(f"{kind} document is nondeterministic at {key!r}")
    return table


def _fsa_delta(rows, tuples: bool) -> dict:
    rows = _row_arrays(rows, tuples)
    delta = {(q, sym): dst for q, sym, dst in rows}
    if len(delta) < len(rows):  # a key repeats: a conflict, or rows that repeat
        delta = _deterministic([((q, sym), dst) for q, sym, dst in rows], "fsa")
    return delta


def _pda_delta(rows) -> dict:
    moves = []
    for q, sym, g, dst, push in _row_arrays(rows, True):  # every push word is an array
        if type(push) is not tuple:
            raise TypeError(f"push word {push!r} is not an array")
        moves.append(((q, sym, g), (_label(dst), _label(push))))
    return _deterministic(moves, "pda")


def _vpa_deltas(rows, single: bool, tuples: bool, first: bool = False) -> tuple:
    """Call, internal and return tables, read in one pass over the rows in
    document order.  Each row's token goes through the token memo
    (`words._parse_token`), and the row is unpacked once and written
    straight into its table, so the first row that cannot be read is the
    one reported.  An nvpa table maps each key to the set of its targets.
    A `single` (vpa) table maps each key to its one target, the last one
    read.  Where those tables end with fewer keys than there are rows, a
    key repeats, and the rows are read again with `first`, which keeps
    each key's first target and raises at a second, different one, as
    `_deterministic` does."""
    rows = _row_arrays(rows, tuples)
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}
    call, internal = Tag.CALL, Tag.INTERNAL
    try:
        for row in rows:
            base, tag = _parse_token(row[1])
            if tag is call:
                src, _, dst, g = row
                table, key, move = delta_c, (src, base), (dst, g)
            elif tag is internal:
                src, _, dst = row
                table, key, move = delta_i, (src, base), dst
            else:
                src, _, g, dst = row
                table, key, move = delta_r, (src, base, g), dst
            if not single:
                targets = table.get(key)
                if targets is None:
                    table[key] = {move}
                else:
                    targets.add(move)
            elif not first:
                table[key] = move
            else:
                old = table.setdefault(key, move)
                if old is not move and old != move:
                    raise SerializationError(f"vpa document is nondeterministic at {key!r}")
    except (AttributeError, TypeError):
        # a token that is not a string misses the memo, whose keys are all
        # strings, and parse_token fails on it; an unhashable label fails
        # as itself
        token = row[1]
        if type(token) is not str:
            raise TypeError(f"token {token!r} is not a string") from None
        raise
    if single and not first and len(delta_c) + len(delta_i) + len(delta_r) < len(rows):
        return _vpa_deltas(rows, True, False, first=True)  # rows that repeat, or a conflict
    return delta_c, delta_i, delta_r


def _machine(doc: dict, tuples: bool):
    """The machine doc describes; with `tuples`, array labels in its rows
    are read as tuples."""
    kind = doc["kind"]
    if kind == "fsa":
        return Fsa(
            alphabet=_field(doc, "alphabet", _alphabet),
            states=_field(doc, "states", _labels),
            initial=_field(doc, "initial"),
            accepts=_field(doc, "accepts", _labels),
            delta=_field(doc, "transitions", lambda rows: _fsa_delta(rows, tuples)),
        )
    if kind == "pda":
        return Pda(
            alphabet=_field(doc, "alphabet", _alphabet),
            states=_field(doc, "states", _labels),
            stack_alphabet=_field(doc, "stack_alphabet", _labels),
            initial=_field(doc, "initial"),
            bottom=_field(doc, "bottom"),
            accepts=_field(doc, "accepts", _labels),
            delta=_field(doc, "transitions", _pda_delta),
        )
    if kind in ("vpa", "nvpa"):
        single = kind == "vpa"
        delta_c, delta_i, delta_r = _field(doc, "transitions", lambda rows: _vpa_deltas(rows, single, tuples))
        common = dict(
            alphabet=_field(doc, "alphabet", _alphabet),
            states=_field(doc, "states", _labels),
            stack_alphabet=_field(doc, "stack_alphabet", _labels),
            bottom=_field(doc, "bottom"),
            accepts=_field(doc, "accepts", _labels),
            accept_stack=_field(doc, "accept_stack", _labels),
            delta_c=delta_c,
            delta_i=delta_i,
            delta_r=delta_r,
        )
        if single:
            return Vpa(initial=_field(doc, "initial"), **common)
        return Nvpa(initials=_field(doc, "initials", _labels), **common)
    raise SerializationError(f"unknown machine kind {kind!r}")


def from_doc(doc: dict):
    """The machine a parsed document describes.  Every malformed document
    raises SerializationError, a ValueError."""
    try:
        doc["kind"]
    except (TypeError, KeyError):
        raise SerializationError("document has no 'kind' field") from None
    try:
        try:
            return _machine(doc, False)
        except (TypeError, ValueError):
            # A row label is hashed or looked up in a label set, so a row
            # that holds an array fails above.  Reading the rows again with
            # array labels as tuples loads such a document or names its
            # fault; documents with no array in their rows skip that pass.
            return _machine(doc, True)
    except SerializationError:
        raise
    except RecursionError:  # _tuple on a label nested deeper than Python recurses
        raise SerializationError("document nests arrays too deeply") from None
    except (TypeError, ValueError) as exc:  # the machine's own validation
        raise SerializationError(f"invalid {doc['kind']} document: {exc}") from None


def _refuse_constant(name: str):
    """Python's json reads NaN, Infinity and -Infinity; JSON has none."""
    raise SerializationError(f"not a JSON document: {name} is not JSON")


# one decoder for every call: json.loads builds a new one whenever it is
# given a keyword such as parse_constant
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def parse_json(text: str | bytes | bytearray):
    """The value of a strict JSON document; NaN, the infinities, nesting
    deeper than Python recurses and any malformed text raise SerializationError.
    Like json.loads, it reads str, and bytes or bytearray in UTF-8, -16 or
    -32, and raises TypeError on anything else."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    elif not isinstance(text, str):
        raise TypeError(f"the JSON object must be str, bytes or bytearray, not {type(text).__name__}")
    elif text.startswith("\ufeff"):
        bom = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raise SerializationError(f"not a JSON document: {bom}")
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"not a JSON document: {exc}") from None
    except RecursionError:
        raise SerializationError("document nests arrays too deeply") from None


def loads(text: str | bytes | bytearray):
    """The machine a JSON document describes: from_doc(parse_json(text))."""
    return from_doc(parse_json(text))


def save(m, path) -> None:
    text = dumps(m)  # before opening: a failing dumps leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
