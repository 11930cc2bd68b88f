"""The JSON writer and reader against the reference in oracles.py: the same
bytes out, the same machines back, and nothing but SerializationError out
of `loads` on a malformed document."""

import copy
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    REPEATED_KEY_DOCUMENTS,
    anbn_pda,
    astar_bstar_fsa,
    nvpa_from_vpa,
    random_fsa,
    random_vpa,
    reader_disagreement,
    reference_dumps,
    reference_loads,
    rename_machine,
    tricky_label_machines,
    wide_alphabet_machines,
)
from nestword import serialize, words
from nestword.cli import main as cli_main
from nestword.groups import build_semidirect
from nestword.machines import Fsa, Nvpa, Pda, Vpa
from nestword.words import TokenError, check_letter

# labels that stress escaping and the row order: `", "` and "]" inside a
# string, quotes, backslashes, control and non-ASCII characters, a lone
# surrogate, and the token syntax characters
TRICKY = ['", "', "]", "[", '"', "\\", '\\"', "\n", "\x00", "\x1f", "\x7f", "é", "☃",
          "\U0001f600", "\ud800", "a, b", "", " ", "<a", "a>", "q0"]

scalars = st.one_of(
    st.sampled_from(TRICKY),
    st.text(max_size=3),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.floats(),
)
labels = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=5)
# machines refuse the state label None, which their tables would read as a
# missing move
state_labels = labels.filter(lambda label: label is not None)


def _is_letter(name: str) -> bool:
    try:
        check_letter(name)
    except TokenError:
        return False
    return True


letters = st.one_of(st.sampled_from(TRICKY), st.text(min_size=1, max_size=3)).filter(_is_letter)


@st.composite
def fsas(draw):
    states = draw(st.lists(state_labels, min_size=1, max_size=4, unique=True))
    alphabet = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    state = st.sampled_from(states)
    delta = {(q, a): draw(state) for q in states for a in alphabet if draw(st.booleans())}
    return Fsa(alphabet, states, draw(state), draw(st.lists(state, max_size=3)), delta)


@st.composite
def pdas(draw):
    states = draw(st.lists(state_labels, min_size=1, max_size=3, unique=True))
    stack = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    alphabet = draw(st.lists(letters, min_size=1, max_size=2, unique=True))
    state, symbol = st.sampled_from(states), st.sampled_from(stack)

    def move():
        return draw(state), tuple(draw(st.lists(symbol, max_size=2)))

    delta = {}
    for q in states:
        for g in stack:
            if draw(st.booleans()):
                delta[q, None, g] = move()
            else:
                delta.update(((q, a, g), move()) for a in alphabet if draw(st.booleans()))
    return Pda(alphabet, states, stack, draw(state), draw(symbol), draw(st.lists(state, max_size=2)), delta)


@st.composite
def visibly_pushdown(draw, nondeterministic: bool):
    states = draw(st.lists(state_labels, min_size=1, max_size=3, unique=True))
    stack = draw(st.lists(labels, max_size=3, unique=True))
    bottom = draw(labels.filter(lambda b: b not in stack))
    alphabet = draw(st.lists(letters, min_size=1, max_size=2, unique=True))
    state = st.sampled_from(states)
    push = st.tuples(state, st.sampled_from(stack)) if stack else st.nothing()

    def targets(move):
        if nondeterministic:
            return draw(st.lists(move, min_size=1, max_size=2).map(frozenset))
        return draw(move)

    delta_c, delta_i, delta_r = {}, {}, {}
    for q in states:
        for a in alphabet:
            if stack and draw(st.booleans()):
                delta_c[q, a] = targets(push)
            if draw(st.booleans()):
                delta_i[q, a] = targets(state)
            for g in [*stack, bottom]:
                if draw(st.booleans()):
                    delta_r[q, a, g] = targets(state)
    accepts = draw(st.lists(state, max_size=2))
    accept_stack = draw(st.lists(st.sampled_from(stack), max_size=2)) if stack else []
    if nondeterministic:
        initials = draw(st.lists(state, max_size=2))
        return Nvpa(alphabet, states, stack, bottom, initials, accepts, accept_stack, delta_c, delta_i, delta_r)
    return Vpa(alphabet, states, stack, bottom, draw(state), accepts, accept_stack, delta_c, delta_i, delta_r)


machines = st.one_of(fsas(), pdas(), visibly_pushdown(False), visibly_pushdown(True))


def _non_finite(text: str) -> list:
    """The NaN and infinity constants in a reference text, which JSON lacks."""
    found: list = []
    json.loads(text, parse_constant=found.append)
    return found


@settings(max_examples=400, deadline=None)
@given(machines)
def test_dumps_and_loads_match_the_reference(m):
    reference = reference_dumps(m)
    if _non_finite(reference):
        # the reference prints NaN and infinities, which are not JSON and
        # read back as other machines (distinct NaN labels become one)
        with pytest.raises(serialize.SerializationError, match=r"label (nan|inf|-inf) has no JSON form"):
            serialize.dumps(m)
        return
    text = serialize.dumps(m)
    assert text == reference
    got = serialize.loads(text)
    assert type(got) is type(m)
    assert got == reference_loads(text)
    assert serialize.dumps(got) == text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_dumps_names_a_nan_or_infinite_label(bad):
    fsa = Fsa(("a",), {bad, 1.0}, 1.0, set(), {(1.0, "a"): bad})
    vpa = Vpa(("a",), {"p"}, {("g", bad)}, "$", "p", set(), set(), {("p", "a"): ("p", ("g", bad))}, {}, {})
    for m in (fsa, vpa):
        with pytest.raises(serialize.SerializationError, match=f"label {bad!r} has no JSON form"):
            serialize.dumps(m)


def _round_trips_as_the_reference(m) -> str:
    text = serialize.dumps(m)
    assert text == reference_dumps(m)
    got = serialize.loads(text)
    assert got == reference_loads(text) == m
    assert serialize.dumps(got) == text
    return text


def test_dumps_matches_the_reference_on_seeded_machines():
    rng = random.Random(5)
    pairs = Fsa((("a", "a"), ("a", "b")), {"p"}, "p", {"p"}, {("p", ("a", "a")): "p", ("p", ("a", "b")): "p"})
    tuple_states = Vpa(("a",), {("q", 1), ("q", True)}, {("g",)}, "$", ("q", 1), set(), set(),
                       {(("q", 1), "a"): (("q", True), ("g",))}, {}, {(("q", True), "a", ("g",)): ("q", 1)})
    ms = [anbn_pda(), astar_bstar_fsa(), pairs, tuple_states]
    for _ in range(5):
        m = random_vpa(rng, 1 + rng.randrange(6), n_stack=1 + rng.randrange(3))
        ms += [m, nvpa_from_vpa(m), random_fsa(rng, 1 + rng.randrange(4))]
    for m in ms:
        _round_trips_as_the_reference(m)


def test_dumps_orders_rows_that_differ_in_their_last_label_as_the_reference():
    # in compact text "]" sorts after a digit and ".", before "e": the row
    # ending in 12 comes before the one ending in 1, and 1e+16 after it
    numbers = [1, 12, 1.5, -1, -12, 1e16]
    m = Nvpa(("a",), set(numbers), {"g"}, "$", {1}, {12}, set(),
             {(1, "a"): {(q, "g") for q in numbers}}, {(1, "a"): set(numbers)},
             {(1, "a", "g"): set(numbers), (1, "a", "$"): set(numbers)})
    text = _round_trips_as_the_reference(m)
    internals = [row for row in json.loads(text)["transitions"] if row[1] == "a"]
    assert [row[2] for row in internals] == [-12, -1, 1.5, 12, 1, 1e16]


def test_dumps_prints_each_row_with_its_own_label_objects():
    # 1.0 and True are equal to the state 1 but print as themselves
    m = Vpa(("a", "b"), {1, 2}, {"g"}, "$", 1, {2}, set(),
            {(1, "b"): (True, "g")}, {(1, "a"): 1.0, (2, "a"): True}, {(2, "b", "g"): 1.0, (1, "b", "$"): 2})
    text = _round_trips_as_the_reference(m)
    assert "1.0" in text and "true" in text


def test_dumps_matches_the_reference_on_tricky_labels():
    for seed in range(100):
        for m in tricky_label_machines(random.Random(seed)):
            _round_trips_as_the_reference(m)


def test_dumps_prints_integer_labels_as_the_reference():
    # integer, boolean and null texts are encoded once per document, each
    # label keeping its own text beside equal labels of other types
    m = build_semidirect(3, 3).automaton
    stack = sorted(m.stack_alphabet) + [m.bottom]
    numbered = rename_machine(m, dict(zip(sorted(m.states), itertools.count())), dict(zip(stack, itertools.count())))
    _round_trips_as_the_reference(numbered)
    mixed = Vpa(("a", "b"), {0, 1, 2}, {None, 7}, -1, 0, {1}, {None},
                {(0, "a"): (1, None), (1, "a"): (True, 7), (2, "a"): (False, None)},
                {(0, "b"): 0.0, (1, "b"): -0.0, (2, "b"): 1.0},
                {(1, "b", None): False, (2, "b", 7): True, (0, "a", -1): 2, (1, "a", 7): 1})
    text = _round_trips_as_the_reference(mixed)
    assert all(word in text for word in ("true", "false", "null", "-0.0", "1.0"))


def test_dumps_prints_string_and_tuple_labels_as_the_reference():
    strings = Vpa(("a", "b"), {", ", "]", "\\", "a, b]"}, {"g, h", "]\\"}, ", ", "]", {"\\"}, {"]\\"},
                  {("]", "a"): ("a, b]", "g, h"), (", ", "a"): ("\\", "]\\")},
                  {("\\", "b"): ", ", ("a, b]", "b"): "]"},
                  {("a, b]", "b", "g, h"): "\\", (", ", "a", ", "): "]", ("]", "b", "]\\"): "a, b]"})
    pairs = Fsa((("a", 1), ("a", "]")), {("p", ", "), ("q",), "r"}, ("q",), {"r"},
                {(("q",), ("a", 1)): ("p", ", "), (("p", ", "), ("a", "]")): "r", ("r", ("a", 1)): "r"})
    for m in (strings, pairs):
        _round_trips_as_the_reference(m)


# ---------------------------------------------------------------------------
# a string or object where an array is required


FSA = {"kind": "fsa", "alphabet": ["a", "b"], "states": ["p", "q"], "initial": "p",
       "accepts": ["q"], "transitions": [["p", "a", "q"]]}
PDA = {"kind": "pda", "alphabet": ["a", "b"], "states": ["p", "q"], "stack_alphabet": ["Z"],
       "initial": "p", "bottom": "Z", "accepts": ["q"], "transitions": [["p", "a", "Z", "q", ["Z"]]]}
VPA = {"kind": "vpa", "alphabet": ["a", "b"], "states": ["p", "q"], "stack_alphabet": ["g"],
       "bottom": "$", "initial": "p", "accepts": ["q"], "accept_stack": [],
       "transitions": [["p", "a", "q"]]}
NVPA = {**{k: v for k, v in VPA.items() if k != "initial"}, "kind": "nvpa", "initials": ["p"]}

# (document, field, value): each loaded before, unpacked letter by letter
STRING_FOR_ARRAY = [
    (FSA, "transitions", ["paq"]),
    (FSA, "states", "pq"),
    (FSA, "alphabet", "ab"),
    (PDA, "transitions", ["paZqZ"]),
    (PDA, "transitions", [["p", "a", "Z", "q", "Z"]]),
    (PDA, "states", "pq"),
    (PDA, "alphabet", "ab"),
    (VPA, "transitions", ["paq"]),
    (VPA, "states", "pq"),
    (VPA, "alphabet", "ab"),
    (NVPA, "transitions", ["paq"]),
    (NVPA, "states", "pq"),
    (NVPA, "alphabet", "ab"),
    (NVPA, "initials", "p"),
    (VPA, "accepts", {"q": 1}),
]


@pytest.mark.parametrize("kind", ["fsa", "pda", "vpa", "nvpa"])
def test_loads_rejects_a_string_for_an_array(kind):
    cases = [(doc, field, value) for doc, field, value in STRING_FOR_ARRAY if doc["kind"] == kind]
    assert cases
    for doc, field, value in cases:
        text = json.dumps({**doc, field: value})
        reference_loads(text)  # the reference reader unpacks it
        with pytest.raises(serialize.SerializationError, match=f"'{field}'"):
            serialize.loads(text)
        assert serialize.loads(json.dumps(doc)) == reference_loads(json.dumps(doc))


def test_cli_reports_a_string_for_an_array(tmp_path):
    path = tmp_path / "strings.json"
    path.write_text(json.dumps({**VPA, "states": "pq"}))
    assert cli_main(["check", "--automaton", str(path), "a"]) == 2


NON_JSON_FSA = '{"kind":"fsa","alphabet":["a"],"states":[%s,1.0],"initial":1.0,"accepts":[],"transitions":[]}'


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_loads_refuses_the_non_json_constants(constant, tmp_path, capsys):
    text = NON_JSON_FSA % constant
    with pytest.raises(serialize.SerializationError, match=f"not a JSON document: {constant} is not JSON"):
        serialize.loads(text)
    path = tmp_path / "constant.json"
    path.write_text(text)
    assert cli_main(["check", "--automaton", str(path), "a"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and constant in err, err


def test_loads_reads_what_json_loads_reads():
    text = json.dumps(FSA)
    want = serialize.loads(text)
    for data in (text.encode(), bytearray(text.encode()), text.encode("utf-16"), text.encode("utf-8-sig")):
        assert serialize.loads(data) == want
    for constant in ("NaN", "Infinity"):
        for data in ((NON_JSON_FSA % constant).encode(), bytearray((NON_JSON_FSA % constant).encode())):
            with pytest.raises(serialize.SerializationError, match=f"not a JSON document: {constant} is not JSON"):
                serialize.loads(data)
    with pytest.raises(serialize.SerializationError, match=r"not a JSON document: Unexpected UTF-8 BOM"):
        serialize.loads("\ufeff" + text)
    for bad in (5, None, [text]):
        with pytest.raises(TypeError) as want_error:
            json.loads(bad)
        with pytest.raises(TypeError) as got_error:
            serialize.loads(bad)
        assert str(got_error.value) == str(want_error.value)


def test_fsa_and_pda_documents_repeated_row_loads_conflicting_row_raises():
    m = serialize.loads(json.dumps({**FSA, "transitions": [["p", "a", "q"], ["p", "a", "q"]]}))
    assert m.delta == {("p", "a"): "q"}
    with pytest.raises(serialize.SerializationError, match=r"fsa document is nondeterministic at \('p', 'a'\)"):
        serialize.loads(json.dumps({**FSA, "transitions": [["p", "a", "q"], ["p", "a", "p"]]}))
    row = ["p", "a", "Z", "q", ["Z"]]
    assert serialize.loads(json.dumps({**PDA, "transitions": [row, row]})).delta == {("p", "a", "Z"): ("q", ("Z",))}
    for other in (["p", "a", "Z", "p", ["Z"]], ["p", "a", "Z", "q", []]):
        with pytest.raises(serialize.SerializationError, match=r"pda document is nondeterministic at \('p', 'a', 'Z'\)"):
            serialize.loads(json.dumps({**PDA, "transitions": [row, other]}))


def test_vpa_document_repeated_row_loads_conflicting_row_raises():
    m = serialize.loads(json.dumps({**VPA, "transitions": [["p", "a", "q"], ["p", "a", "q"]]}))
    assert m.delta_i == {("p", "a"): "q"}
    with pytest.raises(serialize.SerializationError, match=r"vpa document is nondeterministic at \('p', 'a'\)"):
        serialize.loads(json.dumps({**VPA, "transitions": [["p", "a", "q"], ["p", "a", "p"]]}))
    calls = [["p", "<a", "q", "g"], ["p", "<a", "q", "g"], ["q", "b>", "g", "p"]]
    assert serialize.loads(json.dumps({**VPA, "transitions": calls})).delta_c == {("p", "a"): ("q", "g")}
    with pytest.raises(serialize.SerializationError, match="nondeterministic"):
        serialize.loads(json.dumps({**VPA, "transitions": [["p", "<a", "q", "g"], ["p", "<a", "p", "g"]]}))
    # rows that repeat, then conflict: the first row in document order
    # that conflicts is reported, whichever table its key is in
    rows = [["p", "b", "q"], ["p", "b", "q"], ["p", "<a", "q", "g"], ["p", "b", "p"], ["p", "<a", "p", "g"]]
    orders = [(rows, "('p', 'b')"), ([rows[2], rows[4], *rows[:4]], "('p', 'a')"),
              ([rows[2], rows[0], rows[3], rows[4]], "('p', 'b')")]
    for order, key in orders:
        with pytest.raises(serialize.SerializationError) as error:
            serialize.loads(json.dumps({**VPA, "transitions": order}))
        assert str(error.value) == f"vpa document is nondeterministic at {key}"


def test_loads_reads_repeated_keys_as_the_reference():
    for text in REPEATED_KEY_DOCUMENTS:
        assert reader_disagreement(text) is None, text
    vpa, nvpa = map(serialize.loads, REPEATED_KEY_DOCUMENTS)
    # a vpa keeps each key's first target, not an equal one read later
    assert [type(vpa.delta_i[1, "a"]), type(vpa.delta_r[2, "b", "g"])] == [int, int]
    assert vpa.delta_r[2, "b", "g"] is not True
    assert nvpa.delta_i[1, "a"] == {1, 2} and {type(q) for q in nvpa.delta_i[1, "a"]} == {int}
    assert nvpa.delta_c[1, "a"] == {(1, "g"), (2, "g")}
    assert nvpa.delta_r[2, "a", "g"] == {1, 2} and {type(q) for q in nvpa.delta_r[2, "a", "g"]} == {int}


def test_loads_reads_more_distinct_tokens_than_the_token_memo_keeps():
    for m in wide_alphabet_machines():
        text = _round_trips_as_the_reference(m)
        tokens = {row[1] for row in json.loads(text)["transitions"]}
        assert len(tokens) > words._TOKEN_CACHE_SIZE  # the memo restarts mid-read
        assert reader_disagreement(text) is None


# (document, two faulty rows, the message of the first, the message of the
# second): each order reports its first faulty row
TWO_FAULTS = [
    (VPA, ["p", "<a", "q"], ["p", 5, "q"],
     "not enough values to unpack (expected 4, got 3)", "token 5 is not a string"),
    (NVPA, ["p", "<", "q"], ["p", "a>", "g"],
     "bad letter name: ''", "not enough values to unpack (expected 4, got 3)"),
    (VPA, ["p"], ["p", "a", "q", "q"], "list index out of range", "too many values to unpack (expected 3)"),
    (NVPA, ["p", ["a"], "q"], ["p", "a b", "q"], "token ('a',) is not a string", "bad letter name: 'a b'"),
]


@pytest.mark.parametrize("doc, one, two, first, second", TWO_FAULTS)
def test_loads_reports_the_first_faulty_row_in_document_order(doc, one, two, first, second):
    prefix = f"bad 'transitions' field in {doc['kind']} document: "
    for rows, message in (([one, two], first), ([two, one], second)):
        text = json.dumps({**doc, "transitions": [["p", "b", "q"], *rows, ["q", "b", "p"]]})
        with pytest.raises(Exception):
            reference_loads(text)  # the reference rejects it too
        with pytest.raises(serialize.SerializationError) as error:
            serialize.loads(text)
        assert str(error.value) == prefix + message


# (document, its rows, the whole message of the error): one fault each
ROW_ERRORS = [
    (FSA, [["p", "a", "q"], "paq"], "bad 'transitions' field in fsa document: transition row 'paq' is not an array"),
    (VPA, [["p", "a", "q"], 5], "bad 'transitions' field in vpa document: transition row 5 is not an array"),
    (FSA, [["p", "a"]], "bad 'transitions' field in fsa document: not enough values to unpack (expected 3, got 2)"),
    (FSA, [["p", "a", "q", "q"]], "bad 'transitions' field in fsa document: too many values to unpack (expected 3)"),
    (PDA, [["p", "a", "Z", "q"]], "bad 'transitions' field in pda document: not enough values to unpack (expected 5, got 4)"),
    (VPA, [["p"]], "bad 'transitions' field in vpa document: list index out of range"),
    (VPA, [["p", "a"]], "bad 'transitions' field in vpa document: not enough values to unpack (expected 3, got 2)"),
    (VPA, [["p", "<a", "q"]], "bad 'transitions' field in vpa document: not enough values to unpack (expected 4, got 3)"),
    (NVPA, [["p", "a>", "g"]], "bad 'transitions' field in nvpa document: not enough values to unpack (expected 4, got 3)"),
    (VPA, [["p", 5, "q"]], "bad 'transitions' field in vpa document: token 5 is not a string"),
    (NVPA, [["p", ["a"], "q"]], "bad 'transitions' field in nvpa document: token ('a',) is not a string"),
    (VPA, [["p", {}, "q"]], "bad 'transitions' field in vpa document: token {} is not a string"),
    (FSA, [["p", "a", "q"], ["p", "a", "p"]], "fsa document is nondeterministic at ('p', 'a')"),
    (PDA, [["p", "a", "Z", "q", ["Z"]], ["p", "a", "Z", "q", []]], "pda document is nondeterministic at ('p', 'a', 'Z')"),
    (VPA, [["p", "a>", "g", "q"], ["p", "a>", "g", "p"]], "vpa document is nondeterministic at ('p', 'a', 'g')"),
    (PDA, [["p", "a", "Z", "q", "Z"]], "bad 'transitions' field in pda document: push word 'Z' is not an array"),
]


@pytest.mark.parametrize("doc, rows, message", ROW_ERRORS)
def test_loads_names_the_faulty_row(doc, rows, message):
    with pytest.raises(serialize.SerializationError) as error:
        serialize.loads(json.dumps({**doc, "transitions": rows}))
    assert str(error.value) == message


# each kind's fields in reading order: its rows, then its label fields in
# the order its machine class lists them
READING_ORDER = [
    (FSA, ("transitions", "alphabet", "states", "initial", "accepts")),
    (PDA, ("transitions", "alphabet", "states", "stack_alphabet", "initial", "bottom", "accepts")),
    (VPA, ("transitions", "alphabet", "states", "stack_alphabet", "bottom", "initial", "accepts", "accept_stack")),
    (NVPA, ("transitions", "alphabet", "states", "stack_alphabet", "bottom", "initials", "accepts", "accept_stack")),
]


@pytest.mark.parametrize("doc, order", READING_ORDER, ids=[doc["kind"] for doc, _ in READING_ORDER])
def test_loads_names_the_first_missing_field_in_reading_order(doc, order):
    assert sorted(order) == sorted(set(doc) - {"kind"})
    for k, name in enumerate(order):
        partial = {"kind": doc["kind"], **{field: doc[field] for field in order[:k]}}
        with pytest.raises(serialize.SerializationError) as error:
            serialize.loads(json.dumps(partial))
        assert str(error.value) == f"{doc['kind']} document has no {name!r} field"
    assert serialize.loads(json.dumps(doc)) == reference_loads(json.dumps(doc))


# (document, its rows, the whole message of the error): an array label that
# no label set holds, reported as the tuple it reads as
ARRAY_LABEL_ERRORS = [
    (VPA, [["p", "a", ["q"]]], "invalid vpa document: transition into unknown state ('q',)"),
    (VPA, [[["p"], "a", "q"]], "invalid vpa document: bad internal transition (('p',), 'a')"),
    (FSA, [["p", "a", ["q"]]], "invalid fsa document: transition ('p','a')->('q',) leaves state set"),
    (NVPA, [["p", "<a", "q", ["g"]]], "invalid nvpa document: call pushes unknown symbol ('g',)"),
]


@pytest.mark.parametrize("doc, rows, message", ARRAY_LABEL_ERRORS)
def test_loads_names_an_array_label_no_set_holds(doc, rows, message):
    with pytest.raises(serialize.SerializationError) as error:
        serialize.loads(json.dumps({**doc, "transitions": [["p", "b", "q"], *rows]}))
    assert str(error.value) == message


def test_loads_reads_a_repeated_row_and_nested_array_labels():
    for doc, row in ((FSA, ["p", "a", "q"]), (PDA, ["p", "a", "Z", "q", ["Z"]]), (VPA, ["p", "<a", "q", "g"]),
                     (NVPA, ["p", "a>", "$", "q"])):
        text = json.dumps({**doc, "transitions": [row, row]})
        assert serialize.loads(text) == reference_loads(text)
    nested = {**FSA, "states": [["p", ["x", 1]], "q"], "initial": ["p", ["x", 1]],
              "transitions": [[["p", ["x", 1]], "a", "q"], ["q", "b", ["p", ["x", 1]]]]}
    m = serialize.loads(json.dumps(nested))
    p = ("p", ("x", 1))
    assert m.states == {p, "q"} and m.initial == p
    assert m.delta == {(p, "a"): "q", ("q", "b"): p}


def test_loads_reports_deep_nesting_and_bad_json():
    for text in ("[" * 100_000, "{", json.dumps({**FSA, "initial": json.loads("[" * 600 + "]" * 600)})):
        with pytest.raises(serialize.SerializationError):
            serialize.loads(text)


def test_from_doc_reports_a_label_nested_too_deeply():
    label: list = []
    for _ in range(100_000):
        label = [label]
    with pytest.raises(serialize.SerializationError, match="too deeply"):
        serialize.from_doc({**FSA, "initial": label})


def test_dumps_writes_a_subclass_as_its_machine_kind_and_refuses_other_objects():
    class Machine(Fsa):
        pass

    m = astar_bstar_fsa()
    twin = Machine(m.alphabet, m.states, m.initial, m.accepts, m.delta)
    assert serialize.dumps(twin) == serialize.dumps(m) == reference_dumps(m)
    for other in (object(), {"kind": "fsa"}, 3):
        with pytest.raises(serialize.SerializationError, match=f"^cannot serialize {type(other).__name__}$"):
            serialize.dumps(other)


def test_save_keeps_the_old_file_when_dumps_raises(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("old content\n")
    q = frozenset({"q"})
    with pytest.raises(serialize.SerializationError):
        serialize.save(Vpa(("a",), {q}, set(), "$", q, set(), set(), {}, {}, {}), path)
    assert path.read_text() == "old content\n"


# ---------------------------------------------------------------------------
# mutation fuzz


MUTANTS = ["pq", "ab", "paq", "<a", "a>", "b>", "", "q0", "g0", "$", 0, 1, True, False, None,
           2.5, [], ["q0"], [["q0", "g0"]], {}, {"q0": 1}, ["q0", "a", "q1"], ["q0", "<a", "q1", "g0"]]


def _seed_documents() -> list:
    rng = random.Random(11)
    ms = [anbn_pda(), astar_bstar_fsa(), Vpa(("a",), {("q", 1)}, set(), "$", ("q", 1), set(), set(), {}, {}, {})]
    for _ in range(3):
        m = random_vpa(rng, 3, n_stack=2)
        ms += [m, nvpa_from_vpa(m), random_fsa(rng, 3)]
    return [json.loads(serialize.dumps(m)) for m in ms]


def _slots(node, out):
    """Every (container, key) under node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


def _mutate(rng: random.Random, doc):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = rng.choice(slots)
        op = rng.randrange(5)
        if op == 0:
            node[key] = copy.deepcopy(rng.choice(MUTANTS))
        elif op == 1:  # a value from elsewhere in the document
            node[key] = copy.deepcopy(rng.choice(slots)[0])
        elif op == 2:
            del node[key]
        elif op == 3 and isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
        elif isinstance(node[key], list):  # an array as a string of its items
            node[key] = "".join(str(v) for v in node[key])
    return doc


ARRAY_FIELDS = {
    "fsa": ("alphabet", "states", "accepts", "transitions"),
    "pda": ("alphabet", "states", "stack_alphabet", "accepts", "transitions"),
    "vpa": ("alphabet", "states", "stack_alphabet", "accepts", "accept_stack", "transitions"),
    "nvpa": ("alphabet", "states", "stack_alphabet", "accepts", "accept_stack", "initials", "transitions"),
}


def _array_slot_holds_non_array(doc) -> bool:
    """A field, row or push word that must be an array and is not."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in ARRAY_FIELDS:
        return False
    if any(name in doc and not isinstance(doc[name], list) for name in ARRAY_FIELDS[kind]):
        return True
    rows = doc.get("transitions", [])
    if any(not isinstance(row, list) for row in rows):
        return True
    return kind == "pda" and any(len(row) == 5 and not isinstance(row[4], list) for row in rows)


def _freeze(value):
    return tuple(map(_freeze, value)) if isinstance(value, list) else value


def _conflicting_rows(doc) -> bool:
    """An fsa or pda document with two different rows for one key, where
    the reference keeps the last and `loads` raises."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    rows = doc.get("transitions") if kind in ("fsa", "pda") else None
    if not isinstance(rows, list):
        return False
    width = 2 if kind == "fsa" else 3
    targets: dict = {}
    for row in map(_freeze, rows):
        try:
            if targets.setdefault(row[:width], row[width:]) != row[width:]:
                return True
        except TypeError:  # an unhashable label
            return False
    return False


def _with_conflict(rng: random.Random, doc):
    """doc with a copy of one of its rows, its target or push word replaced,
    inserted anywhere among the rows."""
    doc = copy.deepcopy(doc)
    rows = doc["transitions"]
    row = copy.deepcopy(rng.choice(rows))
    slot = rng.randrange(2 if doc["kind"] == "fsa" else 3, len(row))
    row[slot] = copy.deepcopy(rng.choice(MUTANTS + [other[slot] for other in rows]))
    rows.insert(rng.randrange(len(rows) + 1), row)
    return doc


def _replaced(node, old, new):
    """node with every value equal to `old` (of the same type) replaced by `new`."""
    if isinstance(node, dict):
        return {key: _replaced(value, old, new) for key, value in node.items()}
    if isinstance(node, list):
        return [_replaced(value, old, new) for value in node]
    return new if type(node) is type(old) and node == old else node


def _with_null_state(rng: random.Random, doc):
    """doc with one of its states renamed null wherever its label appears."""
    return _replaced(doc, rng.choice(doc["states"]), None)


NULL_STATE = "None is not a state label"


def test_mutation_fuzz_only_serialization_errors_and_agreement():
    rng = random.Random(20261018)
    seeds = _seed_documents()
    outcomes = {"both reject": 0, "null state": 0, "newly rejected": 0, "conflicting rows": 0, "both load": 0}

    def judge(doc) -> None:
        text = json.dumps(doc)
        try:
            want = reference_loads(text)
        except Exception:  # any failure of the reference counts as a rejection
            want = None
        try:
            got = serialize.loads(text)
        except serialize.SerializationError as exc:  # anything else fails the test
            got, error = None, str(exc)
        if want is None and got is None and NULL_STATE in error:
            # the machines refuse a null state, which both readers pass on
            assert None in doc["states"], text
            outcomes["null state"] += 1
        elif want is None:
            assert got is None, text
            outcomes["both reject"] += 1
        elif got is None and _conflicting_rows(doc):
            outcomes["conflicting rows"] += 1
        elif got is None:
            assert _array_slot_holds_non_array(doc), text
            outcomes["newly rejected"] += 1
        else:
            assert type(got) is type(want) and got == want, text
            outcomes["both load"] += 1

    for _ in range(3000):
        judge(_mutate(rng, rng.choice(seeds)))
    # two rows for one key: the reference keeps the last, `loads` raises
    fsa_pda = [doc for doc in seeds if doc["kind"] in ("fsa", "pda")]
    for _ in range(300):
        judge(_with_conflict(rng, rng.choice(fsa_pda)))
    for _ in range(100):
        judge(_with_null_state(rng, rng.choice(seeds)))
    assert min(outcomes.values()) >= 30, outcomes  # each outcome is exercised
