"""Group evaluators, recognizer builders, and canonical annotation."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    PRODUCT_SPECS,
    SPEC_KINDS,
    direct_oracle,
    group_inverse,
    group_letters,
    perm_compose,
    perm_inverse,
    reference_annotate_word,
    reference_build_product,
    reference_finite_fsa,
    reference_is_identity,
    reference_symmetric_group,
    semidirect_oracle,
    semidirect_relabeling,
    trivial_word,
)
from nestword import serialize
from nestword.closures import NonDisjointAlphabets, relabel_image, shuffle
from nestword.groups import (
    BoundExceeded,
    DirectProductSpec,
    FiniteGroupSpec,
    FreeGroupSpec,
    InvalidTable,
    SemidirectProductSpec,
    annotate_word,
    build_direct_product,
    build_finite_fsa,
    build_free_vpa,
    build_recognizer,
    build_semidirect,
    canonical_matching,
    cyclic_group,
    enumerate_taggings,
    free_letters,
    free_reduce,
    group_spec_from_doc,
    invert_letter,
    is_identity,
    perm_by_name,
    psi_action,
    symmetric_group,
)
from nestword.machines import Vpa, canonicalize, nvpa_run, vpa_run
from nestword.words import (
    POS_INF,
    NEG_INF,
    NestedWord,
    Tag,
    TaggedSymbol,
    all_tagged_words,
    decode,
    format_word,
    parse_word,
    validate_matching,
)


# ---------------------------------------------------------------------------
# free reduction and the canonical matching


def test_free_reduce_examples():
    assert free_reduce("x1 x1'".split()) == ()
    assert free_reduce("x1 x2 x2' x1'".split()) == ()
    commutator = tuple("x1 x2 x1' x2'".split())
    assert free_reduce(commutator) == commutator
    assert free_reduce(()) == ()


def test_free_reduce_is_idempotent():
    w = tuple("x1 x1 x1' x2".split())
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(["x1", "x1'", "x2", "x2'"]), max_size=10).map(tuple)
)
def test_free_reduce_involution_coherence(w):
    formal_inverse = tuple(invert_letter(c) for c in reversed(w))
    assert free_reduce(w + formal_inverse) == ()


def test_canonical_matching_picks_adjacent_cancellation():
    matching = canonical_matching("x1 x1' x1 x1'".split())
    assert matching.edges == frozenset({(1, 2), (3, 4)})


def test_canonical_matching_free_group_word():
    matching = canonical_matching("x1 x3' x4' x4 x3 x1'".split())
    assert matching.edges == frozenset({(1, 6), (2, 5), (3, 4)})


def test_canonical_matching_nonidentity():
    assert canonical_matching(["x1", "x2"]) is None
    assert canonical_matching([]) is not None


def test_canonical_matching_is_valid_and_pending_free():
    rng = random.Random(2)
    letters = free_letters(2)
    for _ in range(200):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(11)))
        matching = canonical_matching(w)
        if matching is None:
            continue
        assert validate_matching(w, matching) is None
        for i, j in matching.edges:
            assert i != NEG_INF and j != POS_INF


# ---------------------------------------------------------------------------
# the free-group recognizer


def test_free_vpa_accepts_nested_cancellation():
    rec = build_free_vpa(2)
    assert rec.accepts(parse_word("<x1 <x2 x2'> x1'>"))
    assert rec.accepts(())
    # nested tagging whose pairs do not cancel
    assert not rec.accepts(parse_word("<x1 <x2 x1'> x2'>"))


def test_free_vpa_canonical_choice():
    rec = build_free_vpa(1)
    assert rec.accepts(parse_word("<x1 x1'> <x1 x1'>"))
    assert not rec.accepts(parse_word("<x1 <x1' x1> x1'>"))


def test_free_vpa_structure():
    rec = build_free_vpa(2)
    m = rec.automaton
    assert len(m.stack_alphabet) == 5  # four letters plus the blank
    assert m.accept_stack == frozenset()
    # no dead fail state: 'e' and one state per letter, all reachable
    assert len(m.states) == 5
    assert len(canonicalize(m).states) == 5
    assert m.delta_i == {}


def test_free_vpa_rho_bijection_small():
    rec = build_free_vpa(2)
    m = rec.automaton
    letters = free_letters(2)
    for n in range(5):
        for w in itertools.product(letters, repeat=n):
            accepted = [tw for tw in enumerate_taggings(w) if vpa_run(m, tw).accepted]
            if free_reduce(w):
                assert accepted == []
            else:
                assert len(accepted) == 1
                matching = canonical_matching(w)
                from nestword.words import NestedWord, encode

                assert accepted[0] == encode(NestedWord(w, matching))


# ---------------------------------------------------------------------------
# finite groups


def test_finite_fsa_z2():
    rec = build_finite_fsa(cyclic_group(2))
    assert rec.accepts(parse_word("t t"))
    assert not rec.accepts(parse_word("t"))
    assert rec.accepts(())


def test_finite_fsa_s2():
    rec = build_finite_fsa(symmetric_group(2))
    assert rec.accepts(parse_word("p21 p21"))
    assert not rec.accepts(parse_word("p21"))


def test_finite_fsa_matches_table_product():
    from oracles import internal_word

    for g in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        rec = build_finite_fsa(g)
        for n in range(7):
            for w in itertools.product(g.elements, repeat=n):
                assert rec.accepts(internal_word(w)) == (g.product(w) == g.identity)


def test_finite_fsa_rejects_tagged_words():
    rec = build_finite_fsa(cyclic_group(2))
    assert not rec.accepts(parse_word("<t t>"))


def test_invalid_tables():
    with pytest.raises(InvalidTable):
        FiniteGroupSpec(("e", "t"), "e", {("e", "e"): "e"})  # missing entries
    with pytest.raises(InvalidTable, match="outside the elements"):
        FiniteGroupSpec(("e",), "e", {("e", "e"): "e", ("e", "x"): "e"})
    with pytest.raises(InvalidTable):
        FiniteGroupSpec.from_rows(("e", "t"), "e", [["e", "t"], ["t", "t"]])
    with pytest.raises(InvalidTable):
        FiniteGroupSpec.from_rows(("e", "t"), "t", [["e", "t"], ["t", "e"]])
    # a latin square that is not associative
    elements = ("e", "a", "b", "c", "d")
    rows = [
        ["e", "a", "b", "c", "d"],
        ["a", "e", "d", "b", "c"],
        ["b", "c", "e", "d", "a"],
        ["c", "d", "a", "e", "b"],
        ["d", "b", "c", "a", "e"],
    ]
    with pytest.raises(InvalidTable):
        FiniteGroupSpec.from_rows(elements, "e", rows)


# ---------------------------------------------------------------------------
# permutation action


def test_psi_action_examples():
    swap = (2, 1)
    assert psi_action(swap, "x1") == "x2"
    assert psi_action(swap, "x2'") == "x1'"
    assert psi_action(swap, "x3") == "x3"  # beyond the permuted range
    identity = (1, 2)
    for a in free_letters(3):
        assert psi_action(identity, a) == a


def test_psi_action_is_homomorphism():
    for m in (2, 3):
        letters = free_letters(3)
        perms = list(itertools.permutations(range(1, m + 1)))
        for s in perms:
            for t in perms:
                for a in letters:
                    assert psi_action(perm_compose(s, t), a) == psi_action(s, psi_action(t, a))


def test_perm_by_name_is_built_once_and_read_only():
    perms = perm_by_name(3)
    assert perm_by_name(3) is perms
    assert len(perms) == 6 and perms["p213"] == (2, 1, 3)
    with pytest.raises(TypeError):
        perms["p123"] = (3, 2, 1)


@pytest.mark.parametrize(
    "make, k",
    [(symmetric_group, m) for m in range(1, 6)] + [(cyclic_group, k) for k in range(1, 13)],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_library_tables_pass_the_validating_constructor(make, k):
    # the library builds these without re-checking them
    g = make(k)
    assert type(g.elements) is tuple and type(g.table) is dict
    assert FiniteGroupSpec(g.elements, g.identity, g.table) == g


@pytest.mark.parametrize("m", range(1, 6))
def test_symmetric_group_matches_perm_compose(m):
    # elements in order, the identity, and the table's items in order
    elements, identity, table = reference_symmetric_group(m)
    g = symmetric_group(m)
    assert g.elements == elements and g.identity == identity
    assert [*g.table.items()] == [*table.items()]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_finite_fsa_of_symmetric_group_dumps_as_the_reference(m):
    g = symmetric_group(m)
    assert serialize.dumps(build_finite_fsa(g).automaton) == serialize.dumps(reference_finite_fsa(g))


def test_perm_inverse():
    for s in itertools.permutations(range(1, 4)):
        assert perm_compose(s, perm_inverse(s)) == (1, 2, 3)
        assert perm_compose(perm_inverse(s), s) == (1, 2, 3)


# ---------------------------------------------------------------------------
# direct product


def test_eval_direct_examples():
    spec = DirectProductSpec(1, cyclic_group(2))
    assert is_identity(spec, "x1 t x1' t".split())
    assert is_identity(spec, ())
    assert not is_identity(spec, "x1 t".split())


def test_build_direct_product_examples():
    rec = build_direct_product(1, cyclic_group(2))
    assert rec.accepts(parse_word("<x1 t x1'> t"))
    assert rec.accepts(())


def test_direct_product_unique_taggings():
    spec = DirectProductSpec(1, cyclic_group(2))
    rec = build_direct_product(1, spec.finite)
    letters = group_letters(spec)
    for n in range(5):
        for w in itertools.product(letters, repeat=n):
            count = sum(1 for tw in enumerate_taggings(w) if rec.accepts(tw))
            assert count == (1 if is_identity(spec, w) else 0)


def test_direct_product_name_clash_rejected():
    clash = FiniteGroupSpec(
        ("e", "x1"), "e", {("e", "e"): "e", ("e", "x1"): "x1", ("x1", "e"): "x1", ("x1", "x1"): "e"}
    )
    with pytest.raises(NonDisjointAlphabets):
        build_direct_product(1, clash)


# ---------------------------------------------------------------------------
# semidirect product


def test_eval_semidirect_examples():
    spec = SemidirectProductSpec(2, 2)
    assert is_identity(spec, "p21 x1 p21 x2'".split())
    assert is_identity(spec, ())
    assert not is_identity(spec, "p21 x1 p21 x1'".split())


def test_eval_semidirect_requires_m_at_most_n():
    with pytest.raises(ValueError):
        SemidirectProductSpec(1, 2)


def test_build_semidirect_examples():
    rec = build_semidirect(2, 2)
    tagged = annotate_word(SemidirectProductSpec(2, 2), "p21 x1 p21 x2'".split())
    assert tagged is not None
    assert format_word(tagged) == "p21 <x1 p21 x2'>"
    assert rec.accepts(tagged)
    assert rec.accepts(())


def test_semidirect_agreement_sampled():
    spec = SemidirectProductSpec(2, 2)
    rec = build_semidirect(2, 2)
    letters = group_letters(spec)
    rng = random.Random(31)
    for _ in range(300):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(7)))
        tagged = annotate_word(spec, w)
        if is_identity(spec, w):
            assert tagged is not None and rec.accepts(tagged)
        else:
            assert tagged is None


def semidirect_reference(n, m):
    """The paper's construction: the shuffled free x Cayley language,
    relabeled by the prefix twist (an Nvpa)."""
    free = build_free_vpa(n).automaton
    cayley = build_finite_fsa(symmetric_group(m)).automaton
    return relabel_image(shuffle(free, cayley), semidirect_relabeling(n, m))


@pytest.mark.parametrize(
    "spec", PRODUCT_SPECS,
    ids=lambda spec: f"{type(spec).__name__}-{spec.n}-{len(spec.finite.elements)}",
)
def test_product_builder_equals_the_flattened_twisted_shuffle(spec):
    # written straight from the tables, byte for byte the whole shuffle
    # re-keyed through the twist with its pair states flattened
    built = build_recognizer(spec).automaton
    assert serialize.dumps(built) == serialize.dumps(reference_build_product(spec).automaton)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 3), (4, 3)])
def test_semidirect_is_one_deterministic_vpa(n, m):
    a = build_semidirect(n, m).automaton
    assert isinstance(a, Vpa)
    assert len(a.states) == (2 * n + 1) * math.factorial(m)
    assert len(canonicalize(a).states) == len(a.states)  # all reachable


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2)])
def test_semidirect_agrees_with_relabeling_on_short_words(n, m):
    built = build_semidirect(n, m).automaton
    reference = semidirect_reference(n, m)
    accepted = 0
    for tw in all_tagged_words(group_letters(SemidirectProductSpec(n, m)), 4):
        verdict = vpa_run(built, tw).accepted
        assert verdict == nvpa_run(reference, tw), format_word(tw)
        accepted += verdict
    assert accepted > 1


@pytest.mark.parametrize("n, m", [(3, 3), (4, 3)])
def test_semidirect_agrees_with_relabeling_on_tag_flips(n, m):
    # the canonical tagging of a trivial word is accepted, every single-tag
    # flip of it rejected, by both machines
    spec = SemidirectProductSpec(n, m)
    built = build_semidirect(n, m).automaton
    reference = semidirect_reference(n, m)
    rng = random.Random(10 * n + m)
    for _ in range(500):
        tagged = annotate_word(spec, trivial_word(rng, spec, rng.randrange(2, 17, 2)))
        assert vpa_run(built, tagged).accepted and nvpa_run(reference, tagged)
        for pos, (base, tag) in enumerate(tagged):
            for other in Tag:
                if other is not tag:
                    flipped = tagged[:pos] + (TaggedSymbol(base, other),) + tagged[pos + 1:]
                    assert not vpa_run(built, flipped).accepted, format_word(flipped)
                    assert not nvpa_run(reference, flipped), format_word(flipped)


# ---------------------------------------------------------------------------
# tagging enumeration


def test_enumerate_taggings_counts():
    assert list(enumerate_taggings(())) == [()]
    assert len(list(enumerate_taggings(("a",)))) == 3
    assert len(list(enumerate_taggings(("a", "b", "c")))) == 27


def test_enumerate_taggings_order():
    first, *_, last = enumerate_taggings(("a",))
    assert format_word(first) == "<a"
    assert format_word(last) == "a>"


def test_enumerate_taggings_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_taggings(("a",) * 13))
    assert len(list(enumerate_taggings(("a",) * 13, bound=13))) == 3 ** 13


# ---------------------------------------------------------------------------
# specs, annotation, dispatch


def test_group_spec_parsing():
    assert group_spec_from_doc({"kind": "free", "n": 2}) == FreeGroupSpec(2)
    finite = group_spec_from_doc(
        {"kind": "finite", "elements": ["e", "t"], "identity": "e",
         "table": [["e", "t"], ["t", "e"]]}
    )
    assert isinstance(finite, FiniteGroupSpec)
    direct = group_spec_from_doc(
        {"kind": "direct", "n": 1, "elements": ["e", "t"], "identity": "e",
         "table": [["e", "t"], ["t", "e"]]}
    )
    assert isinstance(direct, DirectProductSpec)
    semi = group_spec_from_doc({"kind": "semidirect", "n": 2, "m": 2})
    assert semi == SemidirectProductSpec(2, 2)
    with pytest.raises(ValueError):
        group_spec_from_doc({"kind": "braid"})


def test_is_identity_rejects_unknown_letters():
    with pytest.raises(ValueError):
        is_identity(FreeGroupSpec(1), ["y"])


def test_annotate_word_examples():
    assert format_word(annotate_word(FreeGroupSpec(1), "x1 x1' x1 x1'".split())) == (
        "<x1 x1'> <x1 x1'>"
    )
    spec = DirectProductSpec(1, cyclic_group(2))
    assert format_word(annotate_word(spec, "x1 t x1' t".split())) == "<x1 t x1'> t"
    assert annotate_word(FreeGroupSpec(1), ["x1"]) is None
    assert annotate_word(spec, ()) == ()


def test_annotate_word_accepted_by_recognizer():
    specs = [
        FreeGroupSpec(2),
        cyclic_group(3),
        DirectProductSpec(1, cyclic_group(2)),
        SemidirectProductSpec(2, 2),
    ]
    rng = random.Random(47)
    for spec in specs:
        rec = build_recognizer(spec)
        letters = group_letters(spec)
        hits = 0
        for _ in range(400):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(7)))
            tagged = annotate_word(spec, w)
            if tagged is not None:
                hits += 1
                assert rec.accepts(tagged)
        assert hits > 0


@pytest.mark.parametrize("spec", SPEC_KINDS, ids=lambda s: type(s).__name__)
def test_annotate_and_decode_long_words_pass_public_validation(spec):
    # annotate_word and decode skip re-validating their stack-built matchings
    rng = random.Random(8192)
    for _ in range(2):
        word = trivial_word(rng, spec, 4096)
        assert len(word) == 4096 and is_identity(spec, word)
        tagged = annotate_word(spec, word)
        nw = decode(tagged)
        assert nw.word == word
        assert validate_matching(nw.word, nw.matching) is None
        assert NestedWord(nw.word, nw.matching) == nw
        if isinstance(spec, FreeGroupSpec):
            assert nw.matching == canonical_matching(word)


@settings(max_examples=300)
@given(
    st.sampled_from(SPEC_KINDS),
    st.lists(st.integers(min_value=0), max_size=16),
    st.booleans(),
)
def test_annotate_word_none_iff_not_identity(spec, picks, close):
    letters = group_letters(spec)
    word = [letters[i % len(letters)] for i in picks]
    if close:  # w . w^-1 is trivial
        word += [group_inverse(spec, c) for c in reversed(word)]
    assert (annotate_word(spec, word) is None) == (not is_identity(spec, word))


@settings(max_examples=300)
@given(
    st.sampled_from(SPEC_KINDS),
    st.lists(st.integers(min_value=0), max_size=16),
    st.booleans(),
)
def test_annotate_word_matches_reference_property(spec, picks, close):
    letters = group_letters(spec)
    word = [letters[i % len(letters)] for i in picks]
    if close:  # w . w^-1 is trivial
        word += [group_inverse(spec, c) for c in reversed(word)]
    tagged = annotate_word(spec, word)
    assert tagged == reference_annotate_word(spec, word)
    assert tagged is None or all(type(sym.tag) is Tag for sym in tagged)


@pytest.mark.parametrize("spec", SPEC_KINDS, ids=lambda s: type(s).__name__)
def test_annotate_word_matches_reference_on_long_words(spec):
    rng = random.Random(4096)
    letters = group_letters(spec)
    trivial = trivial_word(rng, spec, 4096)
    other = tuple(rng.choices(letters, k=4096))
    # back at the bottom of the stack, or at the identity, 512 times
    blocks = tuple(c for _ in range(512) for c in trivial_word(rng, spec, 8))
    pending = next(c for c in letters if not reference_is_identity(spec, (c,)))
    for word in (trivial, other, trivial[:-1], blocks, blocks + (pending,), (pending,) + blocks,
                 trivial + (pending,), blocks[:-1]):
        assert annotate_word(spec, word) == reference_annotate_word(spec, word)
        assert is_identity(spec, word) == reference_is_identity(spec, word)
    assert annotate_word(spec, trivial) is not None
    assert annotate_word(spec, blocks) is not None


@settings(max_examples=300)
@given(
    st.sampled_from(SPEC_KINDS),
    st.lists(st.integers(min_value=0), max_size=16),
    st.booleans(),
    st.one_of(st.none(), st.tuples(st.integers(min_value=0), st.sampled_from(["y1", "x9", "p21", "t9"]))),
)
def test_is_identity_matches_reference_property(spec, picks, close, bad):
    letters = group_letters(spec)
    word = [letters[i % len(letters)] for i in picks]
    if close:  # w . w^-1 is trivial
        word += [group_inverse(spec, c) for c in reversed(word)]
    if bad is not None:  # one letter outside the alphabet, anywhere
        word.insert(bad[0] % (len(word) + 1), bad[1])

    def outcome(decide):
        try:
            return decide(spec, word)
        except ValueError as exc:
            return str(exc)

    assert outcome(is_identity) == outcome(reference_is_identity)


BAD_LETTER_TEXT = {
    "FreeGroupSpec": "letter 'y1' outside the alphabet",
    "FiniteGroupSpec": "letter 'y1' outside the alphabet",
    "DirectProductSpec": "letter 'y1' outside the combined alphabet",
    "SemidirectProductSpec": "letter 'y1' outside the combined alphabet",
}


@pytest.mark.parametrize("spec", SPEC_KINDS, ids=lambda s: type(s).__name__)
def test_annotate_word_rejects_unknown_letters(spec):
    # the whole text, from both entry points, for a trivial and a non-trivial
    # prefix, right after a finite letter (the last letter of a finite group
    # or a product) and right after a cancellation at depth 1 and at depth 0
    letters = group_letters(spec)
    a, last = letters[0], letters[-1]
    a_inverse = group_inverse(spec, a)
    for word in ([a, "y1"], ["y1"], [*trivial_word(random.Random(3), spec, 6), "y1"], [last, "y1"],
                 [a, last, "y1"], [a, a, a_inverse, "y1"], [a, a_inverse, "y1"],
                 [*trivial_word(random.Random(5), spec, 64), a, "y1"]):
        for decide in (is_identity, annotate_word):
            with pytest.raises(ValueError) as info:
                decide(spec, word)
            assert str(info.value) == BAD_LETTER_TEXT[type(spec).__name__]


# ---------------------------------------------------------------------------
# the shared product path against the definitions


OUTSIDE = ("y1", "x9", "x1''", "p21", "p1234", "t9")


def oracle_verdict(spec, word):
    """The definition's verdict on word, or its ValueError text."""
    try:
        if isinstance(spec, DirectProductSpec):
            return direct_oracle(spec.n, spec.finite, word)
        return semidirect_oracle(spec.n, spec.m, word)
    except ValueError as exc:
        return str(exc)


def library_verdicts(spec, word):
    """is_identity and annotate_word's verdicts on word, or their ValueError texts."""
    out = []
    for decide in (is_identity, lambda s, w: annotate_word(s, w) is not None):
        try:
            out.append(decide(spec, word))
        except ValueError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize(
    "spec",
    [DirectProductSpec(1, cyclic_group(2)), SemidirectProductSpec(2, 2), SemidirectProductSpec(3, 2)],
    ids=["F1xZ2", "F2:S2", "F3:S2"],
)
def test_products_agree_with_definitions_on_short_words(spec):
    letters = group_letters(spec)
    trivial = 0
    for n in range(6):
        for w in itertools.product(letters, repeat=n):
            verdict = oracle_verdict(spec, w)
            assert library_verdicts(spec, w) == [verdict, verdict], w
            trivial += verdict
    assert trivial > 1


def inverse_word(spec, word):
    """A word for the inverse of word's value (f, g), by the definitions:
    the letters of psi(g^-1)(f^-1) read untwisted, then g^-1.  Unlike a
    product of nested g . g^-1 blocks, it is trivial only through the
    group's relations."""
    if isinstance(spec, DirectProductSpec):
        def act(g, a):
            return a
    else:
        def act(g, a):
            return psi_action(perm_by_name(spec.m)[g], a)
    finite = spec.finite
    g, free = finite.identity, []
    for c in word:
        if c in finite.elements:
            g = finite.table[(g, c)]
        else:
            free.append(act(g, c))
    g_inv = group_inverse(spec, g)
    return [act(g_inv, invert_letter(a)) for a in reversed(free_reduce(free))] + [g_inv]


@pytest.mark.parametrize(
    "spec",
    [
        DirectProductSpec(3, cyclic_group(6)),
        DirectProductSpec(2, symmetric_group(3)),
        SemidirectProductSpec(3, 3),
        SemidirectProductSpec(4, 3),
    ],
    ids=["F3xZ6", "F2xS3", "F3:S3", "F4:S3"],
)
def test_products_agree_with_definitions_on_random_words(spec):
    letters = group_letters(spec)
    assert not set(OUTSIDE) & set(letters)
    rng = random.Random(len(letters))
    seen = set()
    for i in range(2000):
        if i % 3 == 0:
            w = [rng.choice(letters) for _ in range(rng.randrange(65))]
        elif i % 3 == 1:
            w = list(trivial_word(rng, spec, rng.randrange(0, 65, 2)))
        else:
            u = [rng.choice(letters) for _ in range(rng.randrange(33))]
            w = u + inverse_word(spec, u)
        if w and i % 4 >= 2:  # one letter replaced, maybe by one outside the alphabet
            w[rng.randrange(len(w))] = rng.choice(letters + OUTSIDE)
        verdict = oracle_verdict(spec, w)
        assert library_verdicts(spec, w) == [verdict, verdict], w
        seen.add(verdict if isinstance(verdict, bool) else "error")
    assert seen == {True, False, "error"}
