"""JSON serialization for machines.

One document per machine: a `kind` field selects the schema, list-valued
fields are emitted in a sorted canonical order, and transition rows are

    fsa   [src, symbol, dst]
    pda   [src, symbol-or-null, stack symbol, dst, [push...]]
    vpa   [src, "<a", dst, push]  /  [src, "a", dst]  /  [src, "a>", stack symbol, dst]
    nvpa  as vpa, one row per nondeterministic choice

The VPA bottom symbol is serialized under "bottom" and may appear as the
stack symbol of return rows.  Tuple-shaped labels (pair-FSA symbols) become
JSON arrays; printing is deterministic, so parse-then-print is the identity
on printed documents.
"""

from __future__ import annotations

import json
from typing import Any

from .machines import Fsa, Nvpa, Pda, Vpa, transition_rows
from .words import Tag, parse_token, token_str, TaggedSymbol


class SerializationError(ValueError):
    pass


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise SerializationError(
        f"label {value!r} is not JSON-serializable; canonicalize() the machine first"
    )


def _unjsonable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_unjsonable(v) for v in value)
    return value


def _sorted_json(values) -> list:
    return sorted((_jsonable(v) for v in values), key=lambda v: json.dumps(v))


def to_doc(m) -> dict:
    if isinstance(m, Fsa):
        return {
            "kind": "fsa",
            "alphabet": [_jsonable(a) for a in m.alphabet],
            "states": _sorted_json(m.states),
            "initial": _jsonable(m.initial),
            "accepts": _sorted_json(m.accepts),
            "transitions": sorted(
                ([_jsonable(q), _jsonable(sym), _jsonable(dst)] for (q, sym), dst in m.delta.items()),
                key=json.dumps,
            ),
        }
    if isinstance(m, Pda):
        return {
            "kind": "pda",
            "alphabet": list(m.alphabet),
            "states": _sorted_json(m.states),
            "stack_alphabet": _sorted_json(m.stack_alphabet),
            "initial": _jsonable(m.initial),
            "bottom": _jsonable(m.bottom),
            "accepts": _sorted_json(m.accepts),
            "transitions": sorted(
                (
                    [_jsonable(q), sym, _jsonable(g), _jsonable(dst), [_jsonable(p) for p in push]]
                    for (q, sym, g), (dst, push) in m.delta.items()
                ),
                key=json.dumps,
            ),
        }
    if isinstance(m, (Vpa, Nvpa)):
        calls, internals, returns = transition_rows(m)
        rows = [
            [_jsonable(q), token_str(TaggedSymbol(base, Tag.CALL)), _jsonable(dst), _jsonable(g)]
            for q, base, dst, g in calls
        ]
        rows.extend([_jsonable(q), base, _jsonable(dst)] for q, base, dst in internals)
        rows.extend(
            [_jsonable(q), token_str(TaggedSymbol(base, Tag.RETURN)), _jsonable(g), _jsonable(dst)]
            for q, base, g, dst in returns
        )
        doc = {
            "kind": m.kind,
            "alphabet": list(m.alphabet),
            "states": _sorted_json(m.states),
            "stack_alphabet": _sorted_json(m.stack_alphabet),
            "bottom": _jsonable(m.bottom),
            "accepts": _sorted_json(m.accepts),
            "accept_stack": _sorted_json(m.accept_stack),
            "transitions": sorted(rows, key=json.dumps),
        }
        if isinstance(m, Vpa):
            doc["initial"] = _jsonable(m.initial)
        else:
            doc["initials"] = _sorted_json(m.initials)
        return doc
    raise SerializationError(f"cannot serialize {type(m).__name__}")


def _label(value: Any) -> Any:
    """For a label that parsing puts into no set or key: hashing it here
    turns a JSON object into an error on its field, not a later one."""
    label = _unjsonable(value)
    hash(label)
    return label


def _labels(values) -> frozenset:
    return frozenset(_unjsonable(v) for v in values)


def _field(doc: dict, name: str, convert=_label) -> Any:
    """doc[name] through convert; a missing or malformed field raises a
    SerializationError that names it."""
    try:
        value = doc[name]
    except KeyError:
        raise SerializationError(f"{doc['kind']} document has no {name!r} field") from None
    try:
        return convert(value)
    except (LookupError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad {name!r} field in {doc['kind']} document: {exc}") from None


def _fsa_delta(rows) -> dict:
    return {(_unjsonable(q), _unjsonable(sym)): _label(dst) for q, sym, dst in rows}


def _pda_delta(rows) -> dict:
    return {
        (_unjsonable(q), sym, _unjsonable(g)): (_label(dst), tuple(_label(p) for p in push))
        for q, sym, g, dst, push in rows
    }


def _vpa_deltas(rows) -> tuple:
    """Call, internal and return tables, each mapping to a set of targets."""
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}
    for row in rows:
        src = _unjsonable(row[0])
        if not isinstance(row[1], str):
            raise TypeError(f"token {row[1]!r} is not a string")
        sym = parse_token(row[1])
        if sym.tag is Tag.CALL:
            _, _, dst, g = row
            delta_c.setdefault((src, sym.base), set()).add((_unjsonable(dst), _unjsonable(g)))
        elif sym.tag is Tag.INTERNAL:
            _, _, dst = row
            delta_i.setdefault((src, sym.base), set()).add(_unjsonable(dst))
        else:
            _, _, g, dst = row
            delta_r.setdefault((src, sym.base, _unjsonable(g)), set()).add(_unjsonable(dst))
    return delta_c, delta_i, delta_r


def from_doc(doc: dict):
    try:
        kind = doc["kind"]
    except (TypeError, KeyError):
        raise SerializationError("document has no 'kind' field")
    if kind == "fsa":
        return Fsa(
            alphabet=_field(doc, "alphabet", lambda v: tuple(map(_label, v))),
            states=_field(doc, "states", _labels),
            initial=_field(doc, "initial"),
            accepts=_field(doc, "accepts", _labels),
            delta=_field(doc, "transitions", _fsa_delta),
        )
    if kind == "pda":
        return Pda(
            alphabet=_field(doc, "alphabet", tuple),
            states=_field(doc, "states", _labels),
            stack_alphabet=_field(doc, "stack_alphabet", _labels),
            initial=_field(doc, "initial"),
            bottom=_field(doc, "bottom"),
            accepts=_field(doc, "accepts", _labels),
            delta=_field(doc, "transitions", _pda_delta),
        )
    if kind in ("vpa", "nvpa"):
        delta_c, delta_i, delta_r = _field(doc, "transitions", _vpa_deltas)
        common = dict(
            alphabet=_field(doc, "alphabet", tuple),
            states=_field(doc, "states", _labels),
            stack_alphabet=_field(doc, "stack_alphabet", _labels),
            bottom=_field(doc, "bottom"),
            accepts=_field(doc, "accepts", _labels),
            accept_stack=_field(doc, "accept_stack", _labels),
        )
        if kind == "nvpa":
            return Nvpa(
                initials=_field(doc, "initials", _labels),
                delta_c=delta_c,
                delta_i=delta_i,
                delta_r=delta_r,
                **common,
            )
        for table in (delta_c, delta_i, delta_r):
            for key, targets in table.items():
                if len(targets) > 1:
                    raise SerializationError(f"vpa document is nondeterministic at {key!r}")
        return Vpa(
            initial=_field(doc, "initial"),
            delta_c={k: next(iter(v)) for k, v in delta_c.items()},
            delta_i={k: next(iter(v)) for k, v in delta_i.items()},
            delta_r={k: next(iter(v)) for k, v in delta_r.items()},
            **common,
        )
    raise SerializationError(f"unknown machine kind {kind!r}")


def dumps(m) -> str:
    return json.dumps(to_doc(m), indent=2, sort_keys=True) + "\n"


def loads(text: str):
    return from_doc(json.loads(text))


def save(m, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(m))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
