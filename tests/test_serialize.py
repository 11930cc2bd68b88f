"""The JSON writer and reader against the reference in oracles.py: the same
bytes out, the same machines back, and nothing but SerializationError out
of `loads` on a malformed document."""

import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_fsa, random_vpa, reference_dumps, reference_loads
from nestword import serialize
from nestword.cli import main as cli_main
from nestword.machines import Fsa, Nvpa, Pda, Vpa, anbn_pda, astar_bstar_fsa, nvpa_from_vpa
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


def _is_letter(name: str) -> bool:
    try:
        check_letter(name)
    except TokenError:
        return False
    return True


letters = st.one_of(st.sampled_from(TRICKY), st.text(min_size=1, max_size=3)).filter(_is_letter)


@st.composite
def fsas(draw):
    states = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    alphabet = draw(st.lists(labels, max_size=3, unique=True))
    state = st.sampled_from(states)
    delta = {(q, a): draw(state) for q in states for a in alphabet if draw(st.booleans())}
    return Fsa(alphabet, states, draw(state), draw(st.lists(state, max_size=3)), delta)


@st.composite
def pdas(draw):
    states = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
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
    states = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
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


@settings(max_examples=400, deadline=None)
@given(machines)
def test_dumps_and_loads_match_the_reference(m):
    text = serialize.dumps(m)
    assert text == reference_dumps(m)
    # distinct NaN labels all read back as one NaN, which can shrink a set or
    # break the machine's own checks (a bottom among the pushable symbols)
    collapses = "NaN" in text
    try:
        want = reference_loads(text)
    except ValueError:
        assert collapses
        with pytest.raises(serialize.SerializationError):
            serialize.loads(text)
        return
    got = serialize.loads(text)
    assert type(got) is type(m)
    assert got == want
    assert serialize.dumps(got) == text or collapses


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
        text = serialize.dumps(m)
        assert text == reference_dumps(m)
        assert serialize.loads(text) == reference_loads(text) == m


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


def test_vpa_document_repeated_row_loads_conflicting_row_raises():
    m = serialize.loads(json.dumps({**VPA, "transitions": [["p", "a", "q"], ["p", "a", "q"]]}))
    assert m.delta_i == {("p", "a"): "q"}
    with pytest.raises(serialize.SerializationError, match=r"vpa document is nondeterministic at \('p', 'a'\)"):
        serialize.loads(json.dumps({**VPA, "transitions": [["p", "a", "q"], ["p", "a", "p"]]}))
    calls = [["p", "<a", "q", "g"], ["p", "<a", "q", "g"], ["q", "b>", "g", "p"]]
    assert serialize.loads(json.dumps({**VPA, "transitions": calls})).delta_c == {("p", "a"): ("q", "g")}
    with pytest.raises(serialize.SerializationError, match="nondeterministic"):
        serialize.loads(json.dumps({**VPA, "transitions": [["p", "<a", "q", "g"], ["p", "<a", "p", "g"]]}))


def test_loads_reports_deep_nesting_and_bad_json():
    for text in ("[" * 100_000, "{", json.dumps({**FSA, "initial": json.loads("[" * 600 + "]" * 600)})):
        with pytest.raises(serialize.SerializationError):
            serialize.loads(text)


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


def test_mutation_fuzz_only_serialization_errors_and_agreement():
    rng = random.Random(20261018)
    seeds = _seed_documents()
    outcomes = {"both reject": 0, "newly rejected": 0, "both load": 0}
    for _ in range(3000):
        doc = _mutate(rng, rng.choice(seeds))
        text = json.dumps(doc)
        try:
            want = reference_loads(text)
        except Exception:  # any failure of the reference counts as a rejection
            want = None
        try:
            got = serialize.loads(text)
        except serialize.SerializationError:  # anything else fails the test
            got = None
        if want is None:
            assert got is None, text
            outcomes["both reject"] += 1
        elif got is None:
            assert _array_slot_holds_non_array(doc), text
            outcomes["newly rejected"] += 1
        else:
            assert type(got) is type(want) and got == want, text
            outcomes["both load"] += 1
    assert min(outcomes.values()) >= 30, outcomes  # each outcome is exercised
