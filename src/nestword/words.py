"""Nested words and their tagged-word encoding.

A nested word is a plain word together with a matching relation pairing
call positions to return positions without crossings.  Equivalently it is
a word over a tagged alphabet where every letter is marked as a call,
a return, or an internal symbol.  The canonical in-memory form here is the
tagged word (a tuple of ``TaggedSymbol``); matching relations are derived
on demand by ``decode``.

Positions are 1-based.  Pending edges use ``NEG_INF`` / ``POS_INF`` as
endpoints.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

NEG_INF = -math.inf
POS_INF = math.inf


class Tag(enum.IntEnum):
    # Numeric order matches the token-text order "<a" < "a" < "a>".
    CALL = 0
    INTERNAL = 1
    RETURN = 2


_TAGS = tuple(Tag)


class TaggedSymbol(NamedTuple):
    base: str
    tag: Tag


# A tagged word is just a tuple of symbols; plain words are tuples of letters.
TaggedWord = tuple  # tuple[TaggedSymbol, ...]
PlainWord = tuple  # tuple[str, ...]

EMPTY_WORD_TOKEN = "ε"


class TokenError(ValueError):
    """Raised when word text cannot be parsed."""


class MatchingIndexError(ValueError):
    """Raised when a matching edge uses a finite index outside 1..n."""


def check_letter(name: str) -> str:
    # split() drops empty names and any whitespace, inside or around
    if not isinstance(name, str) or name.split() != [name] or "<" in name or ">" in name:
        raise TokenError(f"bad letter name: {name!r}")
    if name == EMPTY_WORD_TOKEN:
        raise TokenError(f"letter name {name!r} is reserved for the empty word")
    return name


def check_alphabet(symbols: Iterable[str]) -> tuple[str, ...]:
    """Validate an ordered alphabet: non-empty, unique, legal names."""
    names = tuple(symbols)
    if not names:
        raise ValueError("alphabet must be non-empty")
    for name in names:
        check_letter(name)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate letters in alphabet: {names}")
    return names


def check_tag(base: str, tag) -> None:
    """Raise ValueError if tag equals no Tag; callers ask only where a tag
    is neither a call nor a return tag."""
    if tag not in _TAGS:
        raise ValueError(f"tag {tag!r} on {base!r} is not a call, internal or return tag") from None


# ---------------------------------------------------------------------------
# token syntax: `<a` call, `a>` return, `a` internal


def parse_token(token: str) -> TaggedSymbol:
    if token.startswith("<"):
        return TaggedSymbol(check_letter(token[1:]), Tag.CALL)
    if token.endswith(">"):
        return TaggedSymbol(check_letter(token[:-1]), Tag.RETURN)
    return TaggedSymbol(check_letter(token), Tag.INTERNAL)


def token_str(sym: TaggedSymbol) -> str:
    """The token text of a symbol, chosen by the value of its tag, so an
    int tag prints as the Tag it equals (and one equal to no Tag raises)."""
    base, tag = sym
    if tag == Tag.CALL:
        return "<" + base
    if tag == Tag.RETURN:
        return base + ">"
    check_tag(base, tag)
    return base


class _Memo(dict):
    """memo[key] is compute(key), computed on the first lookup and kept until
    the memo holds _TOKEN_CACHE_SIZE entries, when it starts afresh.  A
    computation that raises stores nothing."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self.compute(key)
        if len(self) >= _TOKEN_CACHE_SIZE:
            self.clear()
        self[key] = value
        return value


# A word has few distinct tokens, so parse_word and format_word read and
# print each distinct one once per memo lifetime; a bad token raises on
# every call, since a raise is never stored.  Symbols are immutable, and
# twins equal by value (TaggedSymbol("a", 0), TaggedSymbol("a", Tag.CALL))
# hash alike and print alike, so sharing one answer between them is exact.
_TOKEN_CACHE_SIZE = 4096
_parse_token = _Memo(parse_token).__getitem__
_token_str = _Memo(token_str).__getitem__


def parse_word(text: str) -> TaggedWord:
    """Parse whitespace-separated tokens; 'ε' or empty text is the empty word."""
    tokens = text.split()
    if tokens == [EMPTY_WORD_TOKEN]:
        return ()
    return tuple(map(_parse_token, tokens))


def format_word(tw: TaggedWord) -> str:
    if not tw:
        return EMPTY_WORD_TOKEN
    return " ".join(map(_token_str, tw))


def parse_plain(text: str) -> PlainWord:
    """Parse a plain (untagged) word; tagged tokens are rejected."""
    word = parse_word(text)
    if any(s.tag != Tag.INTERNAL for s in word):
        raise TokenError(f"expected a plain word, got tagged tokens: {text!r}")
    return tuple(s.base for s in word)


# ---------------------------------------------------------------------------
# matching relations


@dataclass(frozen=True)
class MatchingRelation:
    """A set of call/return edges over word positions 1..length.

    Edge sources are positions or NEG_INF (pending return); destinations
    are positions or POS_INF (pending call).  An edge with both endpoints
    infinite is not a matching edge and is rejected.
    """

    length: int
    edges: frozenset

    def __init__(self, length: int, edges: Iterable[tuple]):
        object.__setattr__(self, "length", int(length))
        object.__setattr__(self, "edges", frozenset((i, j) for i, j in edges))

    @classmethod
    def _trusted(cls, length: int, edges: frozenset) -> "MatchingRelation":
        """Skip the conversions: for an int length and a frozenset of
        pairs built by the library itself."""
        matching = object.__new__(cls)
        fields = matching.__dict__  # filled in place: object.__setattr__ costs more
        fields["length"] = length
        fields["edges"] = edges
        return matching


@dataclass(frozen=True)
class MatchingViolation:
    condition: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.condition} violated by {self.witness}"


def _check_endpoint(value, n: int, lo_pending, hi_pending) -> None:
    if value == lo_pending or value == hi_pending:
        return
    if not isinstance(value, int) or not 1 <= value <= n:
        raise MatchingIndexError(f"edge endpoint {value!r} outside 1..{n}")


def validate_matching(word: PlainWord, matching: MatchingRelation) -> MatchingViolation | None:
    """Check the three nested-word conditions; None means valid.

    Pending endpoints are ordered as NEG_INF < k < POS_INF.  Two edges
    (i1,j1), (i2,j2) with i1 < i2 cross when `i2 <= j1 < j2`; the strict
    second comparison lets several pending calls (or several pending
    returns) coexist.

    The crossing check is one O(n) stack sweep over positions 1..n rather
    than a test of every pair.  The sweep pushes each call edge at its
    source and, at each return, demands that the return closes the call on
    top of the stack (a pending return: that the stack is empty); a
    position that is both a source and a destination fails at once.  Each
    failure names a genuinely crossing pair: the open call on top of the
    stack starts after the return's source and ends after the return.
    Conversely, a crossing pair with j1 finite fails at j1 at the latest,
    because i2 is still open there, above i1 when i1 is finite.  So the
    sweep reports `nesting` exactly when some pair crosses.
    """
    n = len(word)
    if matching.length != n:
        raise MatchingIndexError(f"matching length {matching.length} != word length {n}")
    edges = sorted(matching.edges)
    for i, j in edges:
        if i == NEG_INF and j == POS_INF:
            raise MatchingIndexError("edge (-inf, +inf) has no word position")
        _check_endpoint(i, n, NEG_INF, None)
        _check_endpoint(j, n, None, POS_INF)
        if not i < j:
            return MatchingViolation("forward", ((i, j),))
    sources: dict = {}
    dests: dict = {}
    for i, j in edges:
        if i != NEG_INF:
            if i in sources:
                return MatchingViolation("uniqueness", (sources[i], (i, j)))
            sources[i] = (i, j)
        if j != POS_INF:
            if j in dests:
                return MatchingViolation("uniqueness", (dests[j], (i, j)))
            dests[j] = (i, j)
    open_calls: list = []
    for pos in range(1, n + 1):
        closing = dests.get(pos)
        opening = sources.get(pos)
        if closing is None:
            if opening is not None:
                open_calls.append(opening)
        elif opening is not None:
            return MatchingViolation("nesting", (closing, opening))
        elif open_calls:
            # a finite return's call is on the stack, so it is empty only
            # under a pending return, which needs just that
            if open_calls[-1] != closing:
                return MatchingViolation("nesting", (closing, open_calls[-1]))
            open_calls.pop()
    return None


@dataclass(frozen=True)
class NestedWord:
    word: PlainWord
    matching: MatchingRelation

    def __init__(self, word: Iterable[str], matching: MatchingRelation):
        object.__setattr__(self, "word", tuple(word))
        object.__setattr__(self, "matching", matching)
        violation = validate_matching(self.word, matching)
        if violation is not None:
            raise ValueError(str(violation))

    @classmethod
    def _trusted(cls, word: tuple, matching: MatchingRelation) -> "NestedWord":
        """Skip validation: for matchings paired by stack discipline, which
        cannot cross."""
        nw = object.__new__(cls)
        fields = nw.__dict__  # filled in place: object.__setattr__ costs more
        fields["word"] = word
        fields["matching"] = matching
        return nw

    def __len__(self) -> int:
        return len(self.word)


# ---------------------------------------------------------------------------
# the encoding between nested words and tagged words


def encode(nw: NestedWord) -> TaggedWord:
    """Tag each position: edge sources become calls, destinations returns."""
    tags = [Tag.INTERNAL] * len(nw.word)
    for i, j in nw.matching.edges:
        if i != NEG_INF:
            tags[i - 1] = Tag.CALL
        if j != POS_INF:
            tags[j - 1] = Tag.RETURN
    return tuple(TaggedSymbol(b, t) for b, t in zip(nw.word, tags))


_first, _second = itemgetter(0), itemgetter(1)  # a symbol's base and tag


def decode(tw: TaggedWord) -> NestedWord:
    """Pair calls and returns by stack discipline; unmatched ones pend.

    Tags are compared by value, so an int tag reads as the Tag it equals;
    a tag that equals no Tag raises ValueError."""
    tw = tuple(tw)
    call, ret, internal = Tag.CALL, Tag.RETURN, Tag.INTERNAL
    edges = []
    open_calls: list[int] = []
    for pos, tag in enumerate(map(_second, tw), 1):
        if tag == call:
            open_calls.append(pos)
        elif tag == ret:
            edges.append((open_calls.pop() if open_calls else NEG_INF, pos))
        elif tag != internal:
            check_tag(tw[pos - 1][0], tag)
    if open_calls:
        edges.extend((i, POS_INF) for i in open_calls)
    return NestedWord._trusted(tuple(map(_first, tw)), MatchingRelation._trusted(len(tw), frozenset(edges)))


def forget(tw: TaggedWord) -> PlainWord:
    """Strip all tags, keeping base letters in order."""
    return tuple(sym.base for sym in tw)


_REVERSED_TAG = {Tag.CALL: Tag.RETURN, Tag.RETURN: Tag.CALL, Tag.INTERNAL: Tag.INTERNAL}


def reverse(tw: TaggedWord) -> TaggedWord:
    """Reverse the symbol order, swapping call and return tags; a tag equal to no Tag raises."""
    try:
        return tuple(TaggedSymbol(s.base, _REVERSED_TAG[s.tag]) for s in reversed(tw))
    except KeyError:
        for base, tag in reversed(tw):
            check_tag(base, tag)
        raise


def prefix(tw: TaggedWord, i: int) -> TaggedWord:
    """First min(i, len) symbols, tags intact."""
    if i < 0:
        raise ValueError(f"prefix length must be >= 0, got {i}")
    return tw[:i]


def concat(tw1: TaggedWord, tw2: TaggedWord) -> TaggedWord:
    return tuple(tw1) + tuple(tw2)


# ---------------------------------------------------------------------------
# enumeration helpers


def all_plain_words(alphabet: Iterable[str], max_len: int) -> Iterator[PlainWord]:
    """All plain words of length <= max_len in length-lexicographic order."""
    letters = tuple(alphabet)
    for n in range(max_len + 1):
        for combo in itertools.product(letters, repeat=n):
            yield combo


def all_tagged_words(alphabet: Iterable[str], max_len: int) -> Iterator[TaggedWord]:
    """All tagged words of length <= max_len, ordered by length then token text."""
    symbols = sorted(
        (TaggedSymbol(b, t) for b in alphabet for t in Tag),
        key=token_str,
    )
    for n in range(max_len + 1):
        for combo in itertools.product(symbols, repeat=n):
            yield combo
