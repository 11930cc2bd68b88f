"""Nested words, matching relations, and the tagged encoding."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st
from oracles import (
    crosses,
    pairwise_validate_matching,
    reference_decode,
    reference_format_word,
    reference_parse_word,
)

from nestword import words
from nestword.words import (
    NEG_INF,
    POS_INF,
    MatchingIndexError,
    MatchingRelation,
    NestedWord,
    Tag,
    TaggedSymbol,
    TokenError,
    all_tagged_words,
    check_letter,
    concat,
    decode,
    encode,
    forget,
    format_word,
    parse_plain,
    parse_word,
    prefix,
    reverse,
    token_str,
    validate_matching,
)


def mk(word, edges):
    return tuple(word.split()), MatchingRelation(len(word.split()), edges)


def test_validate_accepts_properly_nested_pairs():
    word, matching = mk("a b b a", [(1, 4), (2, 3)])
    assert validate_matching(word, matching) is None


def test_validate_rejects_crossing():
    word, matching = mk("a b a b", [(1, 3), (2, 4)])
    violation = validate_matching(word, matching)
    assert violation is not None
    assert violation.condition == "nesting"
    assert set(violation.witness) == {(1, 3), (2, 4)}


def test_validate_pending_order():
    word, matching = mk("a a", [(NEG_INF, 1), (2, POS_INF)])
    assert validate_matching(word, matching) is None
    word, matching = mk("a a", [(1, POS_INF), (NEG_INF, 2)])
    violation = validate_matching(word, matching)
    assert violation is not None and violation.condition == "nesting"


def test_validate_multiple_pendings_of_same_kind():
    # two pending calls (and two pending returns) must coexist
    word, matching = mk("a a", [(1, POS_INF), (2, POS_INF)])
    assert validate_matching(word, matching) is None
    word, matching = mk("a a", [(NEG_INF, 1), (NEG_INF, 2)])
    assert validate_matching(word, matching) is None


def test_validate_forward_and_uniqueness():
    word, matching = mk("a b", [(2, 1)])
    assert validate_matching(word, matching).condition == "forward"
    word, matching = mk("a b b", [(1, 2), (1, 3)])
    assert validate_matching(word, matching).condition == "uniqueness"
    # a position may not serve as call and return at once
    word, matching = mk("a b b", [(1, 2), (2, 3)])
    assert validate_matching(word, matching).condition == "nesting"


def test_validate_index_errors():
    word, matching = mk("a b", [(1, 5)])
    with pytest.raises(MatchingIndexError):
        validate_matching(word, matching)
    word, matching = mk("a b", [(NEG_INF, POS_INF)])
    with pytest.raises(MatchingIndexError):
        validate_matching(word, matching)
    with pytest.raises(MatchingIndexError):
        validate_matching(("a",), MatchingRelation(2, []))


def candidate_edges(n):
    """Every edge with endpoints in 1..n or pending, backward ones included."""
    sources = [NEG_INF, *range(1, n + 1)]
    dests = [*range(1, n + 1), POS_INF]
    return [(i, j) for i in sources for j in dests if (i, j) != (NEG_INF, POS_INF)]


def assert_agrees_with_pairwise(word, matching):
    violation = validate_matching(word, matching)
    reference = pairwise_validate_matching(word, matching)
    assert (violation and violation.condition) == (reference and reference.condition)
    if violation is not None and violation.condition == "nesting":
        first, second = violation.witness
        assert first in matching.edges and second in matching.edges
        assert first[0] < second[0] and crosses(first, second)


def test_validate_agrees_with_pairwise_exhaustive():
    checked = 0
    for n in range(5):
        word = tuple("a" * n)
        candidates = candidate_edges(n)
        for k in range(5):
            for combo in itertools.combinations(candidates, k):
                assert_agrees_with_pairwise(word, MatchingRelation(n, combo))
                checked += 1
    assert checked == 15064


@st.composite
def edge_sets(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    candidates = candidate_edges(n)
    edges = draw(st.lists(st.sampled_from(candidates), max_size=2 * n)) if candidates else []
    return tuple("a" * n), MatchingRelation(n, edges)


@given(edge_sets())
def test_validate_agrees_with_pairwise_property(case):
    assert_agrees_with_pairwise(*case)


def test_validate_crossing_witness_in_source_order():
    word, matching = mk("a b a b", [(2, 4), (1, 3)])
    assert validate_matching(word, matching).witness == ((1, 3), (2, 4))


def test_decode_long_words_pass_public_validation():
    rng = random.Random(4096)
    symbols = [TaggedSymbol(b, t) for b in ("a", "b") for t in Tag]
    # call-heavy, balanced and return-heavy words of 4096 symbols
    for weights in ((3, 1, 1), (1, 1, 1), (1, 1, 3)):
        tw = tuple(rng.choices(symbols, weights=weights * 2, k=4096))
        nw = decode(tw)
        assert validate_matching(nw.word, nw.matching) is None
        assert encode(nw) == tw


def test_encode_empty():
    assert encode(NestedWord((), MatchingRelation(0, []))) == ()


def test_encode_free_group_example():
    # x1 x3' x4' x4 x3 x1' with matching {(1,6),(2,5),(3,4)}
    word = ("x1", "x3'", "x4'", "x4", "x3", "x1'")
    nw = NestedWord(word, MatchingRelation(6, [(1, 6), (2, 5), (3, 4)]))
    assert format_word(encode(nw)) == "<x1 <x3' <x4' x4> x3> x1'>"
    assert decode(encode(nw)) == nw


@pytest.mark.parametrize("word, edges, message", [
    (("a", "b", "c", "d"), [(1, 3), (2, 4)], "nesting violated by ((1, 3), (2, 4))"),
    (("a", "b"), [(2, 1)], "forward violated by ((2, 1),)"),
])
def test_nested_word_refuses_a_matching_that_violates_a_condition(word, edges, message):
    with pytest.raises(ValueError) as caught:
        NestedWord(word, MatchingRelation(len(word), edges))
    assert str(caught.value) == message


def test_nested_word_length_is_its_word_length():
    assert len(NestedWord(("a", "b", "c"), MatchingRelation(3, [(1, 3)]))) == 3
    assert len(NestedWord((), MatchingRelation(0, []))) == 0


def test_encode_pending_call():
    nw = NestedWord(("a", "b"), MatchingRelation(2, [(1, POS_INF)]))
    assert format_word(encode(nw)) == "<a b"


def test_decode_stack_pairing():
    assert sorted(decode(parse_word("<a <b b> a>")).matching.edges) == [(1, 4), (2, 3)]


def test_decode_pendings():
    assert sorted(decode(parse_word("a> <a")).matching.edges) == [(NEG_INF, 1), (2, POS_INF)]


def test_decode_never_crossing_exhaustive():
    for tw in all_tagged_words(("a", "b"), 5):
        nw = decode(tw)
        assert validate_matching(nw.word, nw.matching) is None


def test_bijection_small_exhaustive():
    for tw in all_tagged_words(("a", "b"), 4):
        assert encode(decode(tw)) == tw


def test_valid_matchings_count_matches_taggings():
    # there are exactly 3^n valid matchings of a length-n word; enumerate
    # every candidate edge set by brute force and compare
    n = 4
    word = tuple("a" * n)
    candidates = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    candidates += [(i, POS_INF) for i in range(1, n + 1)]
    candidates += [(NEG_INF, j) for j in range(1, n + 1)]
    valid = []
    for k in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            matching = MatchingRelation(n, combo)
            if validate_matching(word, matching) is None:
                valid.append(matching)
    assert len(valid) == 3 ** n
    for matching in valid:
        nw = NestedWord(word, matching)
        assert decode(encode(nw)) == nw


def test_forget():
    assert forget(parse_word("<a b a>")) == ("a", "b", "a")
    assert forget(()) == ()
    tagged = parse_word("<x1 x1> <x1' x1'")
    assert forget(tagged) == ("x1", "x1", "x1'", "x1'")


def test_reverse_case_table():
    assert format_word(reverse(parse_word("<a b>"))) == "<b a>"
    assert reverse(()) == ()
    tw = parse_word("<a <b b> a>")
    assert reverse(reverse(tw)) == tw


def test_reverse_swaps_pendings():
    tw = parse_word("<a")
    assert format_word(reverse(tw)) == "a>"
    assert sorted(decode(reverse(tw)).matching.edges) == [(NEG_INF, 1)]


def test_prefix():
    tw = parse_word("<a <b b> a>")
    assert format_word(prefix(tw, 2)) == "<a <b"
    assert sorted(decode(prefix(tw, 2)).matching.edges) == [(1, POS_INF), (2, POS_INF)]
    assert prefix(tw, 0) == ()
    assert prefix(tw, len(tw) + 5) == tw
    with pytest.raises(ValueError):
        prefix(tw, -1)


def test_concat():
    left, right = parse_word("<a"), parse_word("a>")
    assert sorted(decode(concat(left, right)).matching.edges) == [(1, 2)]
    tw = parse_word("<a b>")
    assert concat(tw, ()) == tw
    assert format_word(concat(parse_word("a"), parse_word("b"))) == "a b"


def test_token_syntax():
    assert parse_word("<x1' x1 x1>") == (
        TaggedSymbol("x1'", Tag.CALL),
        TaggedSymbol("x1", Tag.INTERNAL),
        TaggedSymbol("x1", Tag.RETURN),
    )
    assert parse_word("") == ()
    assert parse_word("ε") == ()
    assert format_word(()) == "ε"
    with pytest.raises(TokenError):
        parse_word("<")
    with pytest.raises(TokenError):
        parse_plain("<a b")
    assert parse_plain("a b") == ("a", "b")


@pytest.mark.parametrize(
    "name", ["", " a", "a ", "a b", "a\u00a0b", "\u2028", "a\x1fb", "a<b", "a>", "ε", None, 3]
)
def test_check_letter_rejects(name):
    with pytest.raises(TokenError):
        check_letter(name)


def test_check_letter_accepts():
    for name in ("a", "x1'", "p21", "εε", "a-b"):
        assert check_letter(name) == name


def test_token_roundtrip_all_symbols():
    for base in ("a", "x1", "x1'"):
        for tag in Tag:
            sym = TaggedSymbol(base, tag)
            assert parse_word(token_str(sym)) == (sym,)


tagged_words = st.lists(
    st.builds(TaggedSymbol, st.sampled_from(["a", "b"]), st.sampled_from(list(Tag))),
    max_size=12,
).map(tuple)


@given(tagged_words)
def test_encode_decode_roundtrip_property(tw):
    assert encode(decode(tw)) == tw


@given(tagged_words)
def test_reverse_involution_property(tw):
    assert reverse(reverse(tw)) == tw
    assert forget(reverse(tw)) == tuple(reversed(forget(tw)))
    assert len(forget(tw)) == len(tw)


@given(tagged_words, st.integers(min_value=0, max_value=14))
def test_prefix_is_truncation_property(tw, i):
    assert prefix(tw, i) == tw[: min(i, len(tw))]


@given(tagged_words, tagged_words)
def test_concat_matches_pendings_property(tw1, tw2):
    combined = concat(tw1, tw2)
    assert len(combined) == len(tw1) + len(tw2)
    assert encode(decode(combined)) == combined


# ---------------------------------------------------------------------------
# the shared-symbol pipeline against the per-position reference

# ASCII and non-ASCII letters, and letters made of token-syntax neighbours
LETTERS = ["a", "b", "x1'", "é", "λ", "日本", "εε", "a-b", "\U0001f600"]


def _is_letter(name: str) -> bool:
    try:
        check_letter(name)
    except TokenError:
        return False
    return True


letters = st.one_of(st.sampled_from(LETTERS), st.text(min_size=1, max_size=3).filter(_is_letter))
symbols = st.builds(TaggedSymbol, letters, st.sampled_from(list(Tag)))


@st.composite
def repetitive_words(draw):
    """Words over a pool of at most four symbols, so most positions repeat."""
    pool = draw(st.lists(symbols, min_size=1, max_size=4))
    return tuple(draw(st.lists(st.sampled_from(pool), max_size=200)))


pipeline_words = st.one_of(st.lists(symbols, max_size=12).map(tuple), repetitive_words())


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except TokenError as exc:
        return "error", str(exc)


@given(pipeline_words)
def test_words_pipeline_matches_reference_property(tw):
    text = format_word(tw)
    assert text == reference_format_word(tw)
    parsed = parse_word(text)
    assert parsed == reference_parse_word(text) == tw
    assert all(type(sym.tag) is Tag for sym in parsed)
    nw = decode(tw)
    assert nw == reference_decode(tw)
    assert validate_matching(nw.word, nw.matching) is None


def test_words_pipeline_matches_reference_on_long_words():
    rng = random.Random(2048)
    pool = [TaggedSymbol(b, t) for b in ("x1", "x1'", "é") for t in Tag]
    for k in (2, 9):
        tw = tuple(rng.choices(pool[:k], k=4096))
        text = format_word(tw)
        assert text == reference_format_word(tw)
        assert parse_word(text) == reference_parse_word(text) == tw
        want = reference_decode(tw)
        twin = [TaggedSymbol(base, int(tag)) for base, tag in tw]
        for form in (tw, list(tw), iter(tw), twin, tuple(twin), (sym for sym in twin)):
            assert decode(form) == want


BAD_TOKENS = ["ε", "<", ">", "a>b", "<a>", "<<a", "a>>", "<ε", "ε>", "<a<b"]


@given(pipeline_words, st.sampled_from(BAD_TOKENS), st.data())
def test_bad_token_anywhere_raises_the_reference_error(tw, bad, data):
    tokens = format_word(tw).split() if tw else []
    tokens.insert(data.draw(st.integers(0, len(tokens))), bad)
    text = " ".join(tokens)
    expected = _outcome(reference_parse_word, text)
    assert expected[0] == "error" or text == "ε"
    # twice: a raise is never cached
    assert _outcome(parse_word, text) == expected
    assert _outcome(parse_word, text) == expected


def test_int_tags_print_and_decode_as_their_tag_twins():
    # each twin is printed before its Tag word: a cache keyed on symbol
    # equality must answer both alike
    for tw in all_tagged_words(("u", "v'"), 4):
        twin = tuple(TaggedSymbol(base, int(tag)) for base, tag in tw)
        assert format_word(twin) == format_word(tw) == reference_format_word(tw)
        assert decode(twin) == decode(tw) == reference_decode(tw)
    assert format_word((TaggedSymbol("x1", 0), TaggedSymbol("x1'", 2))) == "<x1 x1'>"


@pytest.mark.parametrize("tag", [7, 3, -1, "x", None])
def test_a_tag_equal_to_no_tag_raises_in_every_word_routine(tag):
    # the error the run kernels raise, wherever the symbol sits
    message = f"tag {tag!r} on \"x1'\" is not a call, internal or return tag"
    bad = TaggedSymbol("x1'", tag)
    memo = words._token_str.__self__
    for word in ((TaggedSymbol("x1", 0), bad), (bad,), (bad, TaggedSymbol("x1", 2))):
        for routine in (format_word, decode, reverse):
            for _ in range(2):  # a raise is never stored
                with pytest.raises(ValueError) as info:
                    routine(word)
                assert str(info.value) == message, routine
        assert bad not in memo
    with pytest.raises(ValueError, match="is not a call, internal or return tag"):
        token_str(bad)


def test_bad_token_raises_on_every_call_and_is_never_stored():
    memo = words._parse_token.__self__
    for bad in BAD_TOKENS[1:]:  # "ε" alone is the empty word
        for _ in range(3):
            with pytest.raises(TokenError):
                parse_word(f"a {bad}")
        assert bad not in memo
    assert "a" in memo


def test_token_memos_stay_within_their_size():
    parse_memo, print_memo = words._parse_token.__self__, words._token_str.__self__
    for i in range(5000):
        sym = TaggedSymbol(f"t{i}", Tag(i % 3))
        assert parse_word(format_word((sym,))) == (sym,)
        assert len(parse_memo) <= words._TOKEN_CACHE_SIZE
        assert len(print_memo) <= words._TOKEN_CACHE_SIZE
    # after the memos started afresh, an int tag still prints as its Tag twin
    assert format_word((TaggedSymbol("a", 0),)) == "<a"
    assert format_word((TaggedSymbol("a", Tag.CALL), TaggedSymbol("a", 2))) == "<a a>"
