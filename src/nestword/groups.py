"""Group word problems and their nested-word recognizers.

Four group families are supported: free groups F_n, finite groups given by
a multiplication table, direct products F_n x G, and semidirect products
F_n x| S_m where the symmetric group permutes the first m free generators.

Both products are F_n x| G for a finite factor G and a twist: the letter
each free letter acts as after a prefix of a given finite value (itself,
in a direct product).  Every spec kind shares one reduction pass (never
touching automata), which decides triviality and writes the canonical
tagging as it reads, and the products share one recognizer builder.
The builder writes its VPA straight from the tables of the free-group
VPA, the finite factor and the twist; its language is the twisted
shuffle of the free-group VPA with the Cayley FSA.
Builder languages hit every trivial word in exactly one tagging: the
canonical matching traced by stack cancellation.

Conventions: free generators are named x1..xn with apostrophes for
inverses (x1'); permutation names are 'p' followed by one-line notation
digits (p21 is the transposition of S_2).
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .closures import NonDisjointAlphabets
from .machines import Fsa, Vpa, machine_accepts
from .words import (
    Tag,
    TaggedSymbol,
    TaggedWord,
    check_letter,
)


class InvalidTable(ValueError):
    pass


FREE_VPA_BLANK = "-"
FREE_VPA_BOTTOM = "$"


# ---------------------------------------------------------------------------
# alphabets


def free_letters(n: int) -> tuple:
    """Generators and inverses, involution-adjacent: x1, x1', x2, x2', ..."""
    if n < 1:
        raise ValueError("need at least one generator")
    out = []
    for i in range(1, n + 1):
        out.append(f"x{i}")
        out.append(f"x{i}'")
    return tuple(out)


def invert_letter(a: str) -> str:
    return a[:-1] if a.endswith("'") else a + "'"


# ---------------------------------------------------------------------------
# finite groups


class _Reducible:
    """What every group spec shares: its reduction rows, compiled on the
    first word it reads (see _reduction_rows)."""

    @functools.cached_property
    def _reduction(self) -> tuple:
        return _reduction_rows(self)


@dataclass
class FiniteGroupSpec(_Reducible):
    """A finite group as an explicit multiplication table.

    `table` maps exactly the element pairs to elements; that, associativity,
    the identity law, and inverse existence are all checked at construction.
    """

    elements: tuple
    identity: str
    table: dict  # (a, b) -> a*b

    def __post_init__(self):
        self.elements = tuple(self.elements)
        self.table = dict(self.table)
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise InvalidTable("duplicate element names")
        for e in self.elements:
            check_letter(e)
        if self.identity not in elems:
            raise InvalidTable(f"identity {self.identity!r} not an element")
        for a in self.elements:
            for b in self.elements:
                if self.table.get((a, b)) not in elems:
                    raise InvalidTable(f"table missing or escaping at ({a!r},{b!r})")
        if len(self.table) != len(elems) ** 2:  # every pair is in it, so some key is not a pair
            raise InvalidTable("table has an entry for a pair outside the elements")
        for a in self.elements:
            if self.table[(self.identity, a)] != a or self.table[(a, self.identity)] != a:
                raise InvalidTable(f"identity law fails at {a!r}")
        for a in self.elements:
            if not any(self.table[(a, b)] == self.identity for b in self.elements):
                raise InvalidTable(f"no inverse for {a!r}")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                        raise InvalidTable(f"associativity fails at ({a!r},{b!r},{c!r})")

    @classmethod
    def _trusted(cls, elements: tuple, identity: str, table: dict) -> "FiniteGroupSpec":
        """Skip validation: for the tables the library builds itself, which
        are groups by construction."""
        spec = object.__new__(cls)
        spec.elements, spec.identity, spec.table = elements, identity, table
        return spec

    @classmethod
    def from_rows(cls, elements, identity, rows) -> "FiniteGroupSpec":
        """Build from a row-major table: rows[i][j] = elements[i] * elements[j]."""
        elements = tuple(elements)
        if len(rows) != len(elements) or any(len(r) != len(elements) for r in rows):
            raise InvalidTable("table shape does not match the element list")
        table = {
            (a, b): rows[i][j]
            for i, a in enumerate(elements)
            for j, b in enumerate(elements)
        }
        return cls(elements, identity, table)

    def product(self, word) -> str:
        acc = self.identity
        for c in word:
            acc = self.table[(acc, c)]
        return acc


def cyclic_group(k: int) -> FiniteGroupSpec:
    """Z_k with elements e, t, t2, ..., t{k-1}."""
    if k < 1:
        raise ValueError("order must be >= 1")
    names = ["e"] + ["t" if i == 1 else f"t{i}" for i in range(1, k)]
    table = {
        (names[i], names[j]): names[(i + j) % k]
        for i in range(k)
        for j in range(k)
    }
    return FiniteGroupSpec._trusted(tuple(names), "e", table)


# permutations in one-line notation: sigma maps i to sigma[i-1]


def perm_name(s: tuple) -> str:
    return "p" + "".join(str(v) for v in s)


def symmetric_group(m: int) -> FiniteGroupSpec:
    """S_m with elements named by one-line notation (p12, p21, ...)."""
    if m < 1:
        raise ValueError("need m >= 1")
    perms = sorted(itertools.permutations(range(1, m + 1)))
    names = [perm_name(s) for s in perms]
    # (s . t)(i) = s(t(i)), t applied first, is after_t(s): the entries of s
    # at t's positions.
    # At m = 1 an itemgetter of one position returns a bare entry, so the
    # index is keyed through the identity's getter, which fits every m.
    getters = [operator.itemgetter(*[i - 1 for i in t]) for t in perms]
    index = dict(zip(map(getters[0], perms), names))
    table = {
        (s_name, t_name): index[after_t(s)]
        for s, s_name in zip(perms, names)
        for t_name, after_t in zip(names, getters)
    }
    return FiniteGroupSpec._trusted(tuple(names), names[0], table)


@functools.lru_cache(maxsize=8)
def perm_by_name(m: int) -> Mapping:
    """Name -> permutation over all of S_m; built once per m and read-only,
    since every caller shares it."""
    return MappingProxyType({perm_name(s): s for s in itertools.permutations(range(1, m + 1))})


def psi_action(sigma: tuple, a: str) -> str:
    """Permute generator indices: x_i -> x_{sigma(i)} for i <= m, fixed above."""
    inverse_mark = a.endswith("'")
    core = a[:-1] if inverse_mark else a
    if not core.startswith("x"):
        raise ValueError(f"not a free-group letter: {a!r}")
    i = int(core[1:])
    if i <= len(sigma):
        i = sigma[i - 1]
    return f"x{i}'" if inverse_mark else f"x{i}"


# ---------------------------------------------------------------------------
# group specifications


@dataclass(frozen=True)
class FreeGroupSpec(_Reducible):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("free group needs n >= 1")


@dataclass(frozen=True)
class DirectProductSpec(_Reducible):
    n: int
    finite: FiniteGroupSpec

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("free factor needs n >= 1")
        overlap = set(free_letters(self.n)) & set(self.finite.elements)
        if overlap:
            raise NonDisjointAlphabets(f"element names collide with generators: {overlap}")

    @functools.cached_property
    def twist(self) -> dict:
        reads = {a: a for a in free_letters(self.n)}
        return {g: reads for g in self.finite.elements}


@dataclass(frozen=True)
class SemidirectProductSpec(_Reducible):
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if self.m > self.n:
            raise ValueError(f"permutation degree {self.m} exceeds generator count {self.n}")

    @functools.cached_property
    def finite(self) -> FiniteGroupSpec:
        return symmetric_group(self.m)

    @functools.cached_property
    def twist(self) -> dict:
        letters = free_letters(self.n)
        return {
            name: {a: psi_action(sigma, a) for a in letters}
            for name, sigma in perm_by_name(self.m).items()
        }


# A product spec is F_n x| G: it gives `finite`, the factor G, and `twist`,
# mapping each element g to {free letter a: the letter a acts as after a
# prefix of value g}.  Both are built once per spec.
ProductSpec = DirectProductSpec | SemidirectProductSpec
GroupSpec = FreeGroupSpec | FiniteGroupSpec | ProductSpec


def _strings(value) -> tuple:
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a list of strings")
    return tuple(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _count(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("expected an integer")
    return value


def _spec_field(doc: dict, name: str, convert):
    """doc[name] through convert; a missing or mistyped field raises a
    ValueError that names it."""
    if name not in doc:
        raise ValueError(f"{doc['kind']} group spec has no {name!r} field")
    try:
        return convert(doc[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad {name!r} field in {doc['kind']} group spec: {exc}") from None


def _finite_from_doc(doc: dict) -> FiniteGroupSpec:
    return FiniteGroupSpec.from_rows(
        _spec_field(doc, "elements", _strings),
        _spec_field(doc, "identity", _string),
        _spec_field(doc, "table", lambda rows: [_strings(row) for row in rows]),
    )


def group_spec_from_doc(doc: dict) -> GroupSpec:
    """Parse the JSON group-spec format (kind: free|finite|direct|semidirect).

    Any malformed document raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"group spec must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "free":
        return FreeGroupSpec(_spec_field(doc, "n", _count))
    if kind == "finite":
        return _finite_from_doc(doc)
    if kind == "direct":
        return DirectProductSpec(_spec_field(doc, "n", _count), _finite_from_doc(doc))
    if kind == "semidirect":
        return SemidirectProductSpec(_spec_field(doc, "n", _count), _spec_field(doc, "m", _count))
    raise ValueError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# free reduction with tagging (never consults automata)


def _reduction_rows(spec: GroupSpec) -> tuple:
    """The start row of spec's reduction and the name of its alphabet.

    A row stands for the finite value g of the prefix read so far: a free
    group has one row, and a finite group's rows hold no free letters.  For
    a free letter c, row[c] is (b, the inverse of b, c's call, internal and
    return symbols) where b is the letter c acts as after g; for a finite
    letter h it is (None, the row of g.h, h's three symbols).  Every free
    letter in the rows is one object, so the reduction stack compares
    letters by identity.
    """
    if isinstance(spec, FreeGroupSpec):
        letters = free_letters(spec.n)
        identity, table, twist = None, {}, {None: dict(zip(letters, letters))}
        outside = "the alphabet"
    elif isinstance(spec, FiniteGroupSpec):
        letters, identity, table = (), spec.identity, spec.table
        twist = dict.fromkeys(spec.elements, {})
        outside = "the alphabet"
    else:
        letters, finite, twist = free_letters(spec.n), spec.finite, spec.twist
        identity, table = finite.identity, finite.table
        outside = "the combined alphabet"
    one = dict(zip(letters, letters))
    rows: dict = {g: {} for g in twist}
    for g, row in rows.items():
        for c, b in twist[g].items():
            row[c] = (one[b], one[invert_letter(b)], *_tagged(c))
    for (g, h), gh in table.items():
        rows[g][h] = (None, rows[gh], *_tagged(h))
    return rows[identity], outside


def _reduce(spec: GroupSpec, word, emit) -> bool:
    """One pass over a word of any group spec: whether it is trivial.

    Each free letter is read through the twist of its prefix's finite value
    and cancelled against the stack top, or pushed; each finite letter
    multiplies that value.  A symbol is passed to emit as it is read: a
    pushed letter as a call, a cancelling one as a return, a finite one as
    an internal.  A trivial word ends with an empty stack, so every call
    emitted was matched.  A letter outside the alphabet raises ValueError.
    """
    row, outside = spec._reduction
    start = row
    top = None  # the stack top; None at the bottom, which no letter is
    stack: list = []
    push, pop = stack.append, stack.pop
    for c in word:
        try:
            b, inverse, call, internal, ret = row[c]
        except KeyError:
            raise ValueError(f"letter {c!r} outside {outside}") from None
        if b is None:
            row = inverse
            emit(internal)
        elif top is inverse:
            top = pop()
            emit(ret)
        else:
            push(top)
            top = b
            emit(call)
    return row is start and top is None


_DISCARD = collections.deque(maxlen=0).append  # a sink that keeps nothing


def is_identity(spec: GroupSpec, word) -> bool:
    return _reduce(spec, word, _DISCARD)


# ---------------------------------------------------------------------------
# recognizer builders


@dataclass
class Recognizer:
    """A compiled automaton whose language holds each trivial word of its
    group in exactly one tagging: the forgetful map rho is a bijection."""

    automaton: Vpa | Fsa

    def accepts(self, tw: TaggedWord) -> bool:
        """Membership of a tagged word; an FSA recognizer is read as the
        all-internal image of its plain language."""
        return machine_accepts(self.automaton, tw)


def build_free_vpa(n: int) -> Recognizer:
    """VPA for the canonical taggings of trivial free-group words.

    The state holds the most recent unmatched call letter (or 'e' for
    none); the stack holds the letters beneath it, with a blank marking a
    slot that was empty.  A letter adjacent to its inverse must cancel:
    the cancelling return pops the slot back into the state, and a call in
    that situation has no move.  There are no internal moves, and no
    return at the bottom.  Acceptance is state 'e' with an empty stack (no
    symbol above the bottom is acceptable).
    """
    letters = free_letters(n)
    empty = "e"
    restores = {FREE_VPA_BLANK: empty, **{a: a for a in letters}}  # popped slot -> state
    delta_c = {(empty, a): (a, FREE_VPA_BLANK) for a in letters}
    delta_c.update({(p, a): (a, p) for p in letters for a in letters if a != invert_letter(p)})
    delta_r = {(p, invert_letter(p), g): q for p in letters for g, q in restores.items()}
    vpa = Vpa(
        alphabet=letters,
        states={empty, *letters},
        stack_alphabet=set(restores),
        bottom=FREE_VPA_BOTTOM,
        initial=empty,
        accepts={empty},
        accept_stack=frozenset(),
        delta_c=delta_c,
        delta_i={},
        delta_r=delta_r,
    )
    return Recognizer(vpa)


def build_finite_fsa(g: FiniteGroupSpec) -> Recognizer:
    """Cayley-graph FSA: states are elements, reading b multiplies by b.
    Its moves are g.table as it stands, whose keys are the element pairs."""
    fsa = Fsa(g.elements, set(g.elements), g.identity, {g.identity}, g.table)
    return Recognizer(fsa)


def _build_product(spec: ProductSpec) -> Recognizer:
    """The free-group VPA shuffled with the Cayley FSA of the finite factor,
    reading twisted letters: in state 'p|g' a free letter b moves as the
    free VPA's state p reading twist[g][b], and a finite letter h moves g
    to g.h.  For S_m this is the image of the shuffle under the paper's
    relabeling, a pair FSA tracking the prefix permutation, whose pair
    state always equals g, built deterministically: (2n+1).|G| states, all
    reachable.  No free-group state holds a '|', so names stay distinct.
    """
    free, finite = build_free_vpa(spec.n).automaton, spec.finite
    # one string per state, so the run's lookups compare states by identity
    name = {(p, g): f"{p}|{g}" for p in free.states for g in finite.elements}
    # reads[g][a]: the letter b with twist[g][b] = a
    reads = {g: {a: b for b, a in t.items()} for g, t in spec.twist.items()}
    start = name[free.initial, finite.identity]
    return Recognizer(Vpa(
        alphabet=free.alphabet + finite.elements,
        states=name.values(),
        stack_alphabet=free.stack_alphabet,
        bottom=free.bottom,
        initial=start,
        accepts={start},
        accept_stack=free.accept_stack,
        delta_c={
            (name[p, g], by[a]): (name[dst, g], pushed)
            for (p, a), (dst, pushed) in free.delta_c.items() for g, by in reads.items()
        },
        delta_i={(name[p, g], h): name[p, gh] for p in free.states for (g, h), gh in finite.table.items()},
        delta_r={
            (name[p, g], by[a], top): name[dst, g]
            for (p, a, top), dst in free.delta_r.items() for g, by in reads.items()
        },
    ))


def build_direct_product(n: int, g: FiniteGroupSpec) -> Recognizer:
    """Shuffle the free-group VPA with the Cayley FSA of the finite factor."""
    return _build_product(DirectProductSpec(n, g))


def build_semidirect(n: int, m: int) -> Recognizer:
    """The free-group VPA shuffled with the Cayley FSA of S_m, where a free
    letter after a prefix permutation sigma is read as psi(sigma) of it."""
    return _build_product(SemidirectProductSpec(n, m))


def build_recognizer(spec: GroupSpec) -> Recognizer:
    if isinstance(spec, FreeGroupSpec):
        return build_free_vpa(spec.n)
    if isinstance(spec, FiniteGroupSpec):
        return build_finite_fsa(spec)
    return _build_product(spec)


# ---------------------------------------------------------------------------
# canonical annotation


@functools.lru_cache(maxsize=4096)
def _tagged(letter: str) -> tuple:
    """The call, internal and return symbols of a letter, indexed by tag
    value; one of each per letter, shared by every caller."""
    return tuple(TaggedSymbol(letter, t) for t in Tag)


def annotate_word(spec: GroupSpec, word) -> TaggedWord | None:
    """The unique recognizer-accepted tagging of a trivial word, else None.

    Free-group letters get the canonical cancellation matching (computed on
    the twisted letters of a product); finite-group letters stay internal.
    The one reduction pass that decides triviality writes the tags.
    """
    out: list = []
    return tuple(out) if _reduce(spec, word, out.append) else None

