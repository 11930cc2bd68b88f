"""Brute-force oracles and generators shared by the test suite.

Every oracle here decides membership set-theoretically from the *input*
machines (or by plain search), independently of the closure construction
it is used to check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from collections import deque
from typing import Hashable, Iterable

from nestword import closures, machines
from nestword.closures import (
    NonDisjointAlphabets,
    Relabeling,
    reg_complement,
    reg_concat,
    reg_intersection,
    reg_prefix,
    reg_reverse,
    reg_star,
    reg_union,
    relabel_image,
    shuffle,
    vpl_complement,
    vpl_concat,
    vpl_intersection,
    vpl_reverse,
    vpl_star,
    vpl_union,
)
from nestword.groups import (
    DirectProductSpec,
    FiniteGroupSpec,
    FreeGroupSpec,
    Recognizer,
    SemidirectProductSpec,
    _tagged,
    build_direct_product,
    build_finite_fsa,
    build_free_vpa,
    build_semidirect,
    cyclic_group,
    free_letters,
    invert_letter,
    perm_by_name,
    perm_name,
    psi_action,
    symmetric_group,
)
from nestword.machines import (
    Configuration,
    EpsilonBudgetExceeded,
    Fsa,
    Nvpa,
    Pda,
    Vpa,
    VpaRun,
    _freeze_states,
    add_move,
    canonicalize,
    fsa_run,
    pda_step,
    vpa_run,
)
from nestword.serialize import SerializationError, dumps, loads
from nestword.words import (
    EMPTY_WORD_TOKEN,
    NEG_INF,
    POS_INF,
    MatchingRelation,
    MatchingViolation,
    NestedWord,
    Tag,
    TaggedSymbol,
    all_plain_words,
    all_tagged_words,
    encode,
    parse_token,
    parse_word,
    reverse as reverse_word,
    token_str,
)


# ---------------------------------------------------------------------------
# fixtures: the two textbook example machines, the NFA kind and its run,
# and the trivial NVPA and relabeling embeddings


def anbn_pda() -> Pda:
    """PDA for {a^n b^n : n >= 0} with an explicit fail state.

    Counts a's on the stack with 1's, pops them on b's, and drains the
    bottom 0 with a final epsilon move into the accepting state.
    """
    states = {"s0", "s1", "s2", "sy", "sf"}
    delta = {
        ("s0", "a", "0"): ("s1", ("0", "1")),
        ("s1", "a", "1"): ("s1", ("1", "1")),
        ("s1", "b", "1"): ("s2", ()),
        ("s2", "b", "1"): ("s2", ()),
        ("s2", None, "0"): ("sy", ()),
    }
    eps_blocked = {("s2", "0")}
    for s in states:
        for sym in ("a", "b"):
            for g in ("0", "1"):
                if (s, g) in eps_blocked:
                    continue
                delta.setdefault((s, sym, g), ("sf", (g,)))
    return Pda(("a", "b"), states, {"0", "1"}, "s0", "0", {"s0", "sy"}, delta)


def random_pda(rng: random.Random, n_states=3, alphabet=("a", "b"), density=0.6) -> Pda:
    """A Pda on states p0, p1, ... over stack symbols 0 (the bottom) and 1:
    each (state, top) has an epsilon move with probability 0.2, and
    otherwise a move on each letter drawn with probability `density`;
    each move pushes a word of 0-2 symbols."""
    states = [f"p{i}" for i in range(n_states)]
    delta = {}
    for q in states:
        for g in ("0", "1"):
            letters = (None,) if rng.random() < 0.2 else [a for a in alphabet if rng.random() < density]
            for sym in letters:
                push = tuple(rng.choice("01") for _ in range(rng.randrange(3)))
                delta[(q, sym, g)] = (rng.choice(states), push)
    accepts = {q for q in states if rng.random() < 0.4}
    return Pda(alphabet, states, {"0", "1"}, states[0], "0", accepts, delta)


def reference_pda_run(m: Pda, word) -> bool:
    """pda_run as the composition of pda_step on whole configurations."""
    word = tuple(word)
    eps_budget = 10 * len(m.states) * len(m.stack_alphabet) * (len(word) + 1)
    config = Configuration(m.initial, word, (m.bottom,))
    eps_used = 0
    while True:
        if not config.remaining and config.state in m.accepts:
            return True
        nxt = pda_step(config, m)
        if nxt is None:
            return False
        if len(nxt.remaining) == len(config.remaining):
            eps_used += 1
            if eps_used > eps_budget:
                raise EpsilonBudgetExceeded(f"more than {eps_budget} epsilon steps")
        config = nxt


def astar_bstar_fsa() -> Fsa:
    """FSA for {a^m b^n : m,n >= 0} with an explicit fail state."""
    delta = {
        ("s0", "a"): "s1",
        ("s0", "b"): "s2",
        ("s1", "a"): "s1",
        ("s1", "b"): "s2",
        ("s2", "b"): "s2",
        ("s2", "a"): "sf",
        ("sf", "a"): "sf",
        ("sf", "b"): "sf",
    }
    return Fsa(("a", "b"), {"s0", "s1", "s2", "sf"}, "s0", {"s0", "s1", "s2"}, delta)


def mixed_label_vpa() -> Vpa:
    """A Vpa whose labels are equal by value across kinds: the states 0
    and 1, the pushable True (== 1) and the bottom False (== 0)."""
    return Vpa(
        ("a", "b"), {0, 1}, {True}, False, 1, {0}, {True},
        delta_c={(0, "a"): (1, True), (1, "a"): (0, True)},
        delta_i={(0, "b"): 1, (1, "b"): 0},
        delta_r={(0, "a", True): 1, (1, "a", True): 0, (0, "b", False): 0, (1, "b", False): 1},
    )


@dataclasses.dataclass(repr=False)
class Nfa:
    """Nondeterministic finite automaton; symbol None marks an epsilon move."""

    kind = "nfa"

    alphabet: tuple
    states: frozenset
    initials: frozenset
    accepts: frozenset
    delta: dict  # (state, symbol | None) -> frozenset of states

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        self.states = _freeze_states(self.states)
        self.initials = _freeze_states(self.initials)
        self.accepts = _freeze_states(self.accepts)
        self.delta = {k: frozenset(v) for k, v in self.delta.items()}
        alpha = set(self.alphabet)
        if not self.initials <= self.states or not self.accepts <= self.states:
            raise ValueError("initial/accept states not a subset of states")
        for (src, sym), dsts in self.delta.items():
            if src not in self.states or not dsts <= self.states:
                raise ValueError(f"transition ({src!r},{sym!r}) leaves state set")
            if sym is not None and sym not in alpha:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")

    def __repr__(self):
        return f"Nfa(states={len(self.states)}, alphabet={self.alphabet!r})"


def _eps_closure(n: Nfa, states: frozenset) -> frozenset:
    seen = set(states)
    todo = list(states)
    while todo:
        q = todo.pop()
        for p in n.delta.get((q, None), ()):
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return frozenset(seen)


def nfa_run(m: Nfa, word) -> bool:
    current = _eps_closure(m, m.initials)
    for sym in word:
        step = set()
        for q in current:
            step |= m.delta.get((q, sym), frozenset())
        current = _eps_closure(m, frozenset(step))
        if not current:
            return False
    return bool(current & m.accepts)


def nvpa_from_vpa(m: Vpa) -> Nvpa:
    """Embed a deterministic VPA as a singleton-valued NVPA."""
    return Nvpa(
        alphabet=m.alphabet,
        states=m.states,
        stack_alphabet=m.stack_alphabet,
        bottom=m.bottom,
        initials={m.initial},
        accepts=m.accepts,
        accept_stack=m.accept_stack,
        delta_c={k: {v} for k, v in m.delta_c.items()},
        delta_i={k: {v} for k, v in m.delta_i.items()},
        delta_r={k: {v} for k, v in m.delta_r.items()},
    )


def reference_vpa_from_fsa(m: Fsa) -> Vpa:
    """The all-internal reading of an FSA as a Vpa of its own: its moves on
    internal letters, no call or return moves, bottom "$" and nothing to
    push."""
    return Vpa(m.alphabet, m.states, frozenset(), "$", m.initial, m.accepts, frozenset(), {}, m.delta, {})


def reference_fsa_run(m: Fsa, word) -> bool:
    """fsa_run as a walk of the FSA's own table: a missing move rejects,
    and a letter outside the alphabet raises ValueError where the run
    reaches it."""
    state = m.initial
    for letter in word:
        state = m.delta.get((state, letter))
        if state is None:
            if letter not in m.alphabet:
                raise ValueError(f"letter {letter!r} not in alphabet")
            return False
    return state in m.accepts


def identity_relabeling(alphabet) -> Relabeling:
    pairs = tuple((a, a) for a in alphabet)
    state = "p"
    delta = {(state, pair): state for pair in pairs}
    return Relabeling(Fsa(pairs, {state}, state, {state}, delta))


def forked_relabeling() -> Relabeling:
    """a -> a or b, b -> b, through two pair states: not functional, so
    its image machine has keys with two choices."""
    pairs = (("a", "a"), ("a", "b"), ("b", "b"))
    delta = {("p", ("a", "a")): "p", ("p", ("a", "b")): "r", ("p", ("b", "b")): "p", ("r", ("b", "b")): "r"}
    return Relabeling(Fsa(pairs, {"p", "r"}, "p", {"p", "r"}, delta))


def relabeling_is_functional(phi: Relabeling, max_len: int = 6) -> bool:
    """Whether phi maps each input word of up to max_len letters to at
    most one output word, by enumeration."""
    letters = phi.input_letters()
    for word in all_plain_words(letters, max_len):
        tw = tuple(TaggedSymbol(a, Tag.INTERNAL) for a in word)
        if len(phi.apply(tw)) > 1:
            return False
    return True


def random_vpa(rng: random.Random, n_states=4, alphabet=("a", "b"), n_stack=2, density=0.8) -> Vpa:
    states = [f"s{i}" for i in range(n_states)]
    stack = [f"g{i}" for i in range(n_stack)]
    delta_c, delta_i, delta_r = {}, {}, {}
    for q in states:
        for a in alphabet:
            if rng.random() < density:
                delta_c[(q, a)] = (rng.choice(states), rng.choice(stack))
            if rng.random() < density:
                delta_i[(q, a)] = rng.choice(states)
            for g in stack + ["$"]:
                if rng.random() < density:
                    delta_r[(q, a, g)] = rng.choice(states)
    accepts = {q for q in states if rng.random() < 0.5} or {states[0]}
    accept_stack = {g for g in stack if rng.random() < 0.5}
    return Vpa(
        alphabet, states, stack, "$", states[0], accepts, accept_stack,
        delta_c, delta_i, delta_r,
    )


def random_fsa(rng: random.Random, n_states=3, alphabet=("c", "d"), density=0.85) -> Fsa:
    states = [f"r{i}" for i in range(n_states)]
    delta = {}
    for q in states:
        for a in alphabet:
            if rng.random() < density:
                delta[(q, a)] = rng.choice(states)
    accepts = {q for q in states if rng.random() < 0.5} or {states[0]}
    return Fsa(alphabet, states, states[0], accepts, delta)


# labels whose texts stress the JSON writer's row order and escaping:
# numbers whose texts extend one another, so that in compact text "]"
# meets a digit, "." or "e" at the end of a row, and strings that hold
# ", ", "]", a quote or a backslash
TRICKY_LABELS = [1, 12, 1.5, -1, -12, 1e16, 0, ", ", "]", "\\", "a, b]", "[1, 12]", '"']
# labels equal to a tricky number, of another type, each printed as itself
EQUAL_LABELS = {1: [1.0, True], 0: [0.0, -0.0, False], 12: [12.0]}


def tricky_label_machines(rng: random.Random) -> list:
    """A seeded Vpa, an Nvpa and an Fsa labelled from TRICKY_LABELS and, at
    random, pairs.  Some moves of the Vpa target a state through an
    EQUAL_LABELS label, and the Nvpa has several targets per key, so its
    rows differ in their last label only."""
    pool = TRICKY_LABELS + ([("p", ", "), ("p",)] if rng.random() < 0.3 else [])
    m = random_vpa(rng, 1 + rng.randrange(6), n_stack=1 + rng.randrange(3))
    names = dict(zip(sorted(m.states), rng.sample(pool, len(m.states))))
    stack = sorted(m.stack_alphabet) + [m.bottom]
    m = rename_machine(m, names, dict(zip(stack, rng.sample(pool, len(stack)))))

    def retyped(table: dict) -> dict:
        return {key: rng.choice([dst, *EQUAL_LABELS.get(dst, ())]) for key, dst in table.items()}

    m = dataclasses.replace(m, delta_i=retyped(m.delta_i), delta_r=retyped(m.delta_r))
    states = list(names.values())
    n = nvpa_from_vpa(m)
    n = dataclasses.replace(
        n, delta_i={key: dsts | set(rng.sample(states, rng.randrange(len(states) + 1)))
                    for key, dsts in n.delta_i.items()})
    letters = (("c", 1), ("c", "]")) if rng.random() < 0.3 else ("c", "d")
    r = random_fsa(rng, 1 + rng.randrange(4), alphabet=letters)
    rename = dict(zip(sorted(r.states), rng.sample(pool, len(r.states)))).__getitem__
    r = Fsa(r.alphabet, map(rename, r.states), rename(r.initial), map(rename, r.accepts),
            {(rename(q), a): rename(dst) for (q, a), dst in r.delta.items()})
    return [m, n, r]


def random_nfa(rng: random.Random, n_states=3, alphabet=("c", "d"), density=0.4) -> Nfa:
    """An Nfa on states s0, s1, ...: each move, epsilon moves included,
    drawn with probability `density`; initials and accepts may be empty."""
    states = [f"s{i}" for i in range(n_states)]
    delta: dict = {}
    for q in states:
        for sym in (*alphabet, None):
            dsts = {p for p in states if rng.random() < density}
            if dsts:
                delta[(q, sym)] = dsts
    initials = {q for q in states if rng.random() < 0.4}
    accepts = {q for q in states if rng.random() < 0.4}
    return Nfa(alphabet, states, initials, accepts, delta)


def vpa_language(m: Vpa, max_len: int) -> set:
    return {w for w in all_tagged_words(m.alphabet, max_len) if vpa_run(m, w).accepted}


def deep_walk(m: Vpa, rng: random.Random, depth: int):
    """A word m reads without dying: `depth` calls, then returns until the
    stack is empty, each letter drawn from m's defined moves; None when a
    state has no move left."""
    state, stack, word = m.initial, [], []
    while len(stack) < depth:
        calls = [a for a in m.alphabet if (state, a) in m.delta_c]
        if not calls:
            return None
        a = rng.choice(calls)
        state, g = m.delta_c[(state, a)]
        stack.append(g)
        word.append(TaggedSymbol(a, Tag.CALL))
    while stack:
        returns = [a for a in m.alphabet if (state, a, stack[-1]) in m.delta_r]
        if not returns:
            return None
        a = rng.choice(returns)
        state = m.delta_r[(state, a, stack.pop())]
        word.append(TaggedSymbol(a, Tag.RETURN))
    return tuple(word)


def random_walk(m: Vpa, rng: random.Random, length: int) -> tuple:
    """A word of at most `length` letters that m reads without dying, each
    letter drawn from m's moves where the run stands; the first half leans
    to calls and the second to returns, so the nesting gets deep."""
    state, stack, word = m.initial, [], []
    while len(word) < length:
        top = stack[-1] if stack else m.bottom
        calls = [a for a in m.alphabet if (state, a) in m.delta_c]
        others = [(a, Tag.INTERNAL) for a in m.alphabet if (state, a) in m.delta_i]
        others += [(a, Tag.RETURN) for a in m.alphabet if (state, a, top) in m.delta_r]
        lean = 0.75 if 2 * len(word) < length else 0.25
        if calls and (not others or rng.random() < lean):
            a = rng.choice(calls)
            state, g = m.delta_c[(state, a)]
            stack.append(g)
            word.append(TaggedSymbol(a, Tag.CALL))
            continue
        if not others:
            break
        a, tag = rng.choice(others)
        if tag is Tag.INTERNAL:
            state = m.delta_i[(state, a)]
        else:
            state = m.delta_r[(state, a, top)]
            if stack:
                stack.pop()
        word.append(TaggedSymbol(a, tag))
    return tuple(word)


def reference_vpa_run(m: Vpa, tw, record_trace: bool = False) -> VpaRun:
    """vpa_run before its lean loop: every letter checked against the
    alphabet, and every tag against the three Tags, as it is read, and a
    VpaRun built for every answer."""
    alpha = m._alpha
    delta_c, delta_i, delta_r = m.delta_c, m.delta_i, m.delta_r
    call, internal = Tag.CALL, Tag.INTERNAL
    state = m.initial
    stack = [m.bottom]
    trace = []
    if record_trace:
        trace.append(Configuration(state, tuple(tw), tuple(stack)))
    for pos, sym in enumerate(tw):
        base, tag = sym
        if base not in alpha:
            raise ValueError(f"letter {base!r} not in alphabet")
        if tag not in tuple(Tag):
            raise ValueError(f"tag {tag!r} on {base!r} is not a call, internal or return tag")
        if tag == call:
            move = delta_c.get((state, base))
            if move is None:
                return VpaRun(False, f"no call transition from {state!r} on {base!r}", tuple(trace), state)
            state, pushed = move
            stack.append(pushed)
        elif tag == internal:
            nxt = delta_i.get((state, base))
            if nxt is None:
                return VpaRun(False, f"no internal transition from {state!r} on {base!r}", tuple(trace), state)
            state = nxt
        else:
            top = stack[-1]
            nxt = delta_r.get((state, base, top))
            if nxt is None:
                return VpaRun(False, f"no return transition from {state!r} on {base!r}/{top!r}", tuple(trace), state)
            state = nxt
            if len(stack) > 1:
                stack.pop()
        if record_trace:
            trace.append(Configuration(state, tuple(tw[pos + 1:]), tuple(stack)))
    stack = tuple(stack)
    if state in m.accepts and all(sym in m.accept_stack for sym in stack[1:]):
        return VpaRun(True, None, tuple(trace), state, stack)
    return VpaRun(False, "final configuration not accepting", tuple(trace), state, stack)


def configuration_set_run(m: Nvpa, tw) -> bool:
    """Reference NVPA run: the set of reachable (state, whole stack)
    configurations, which can grow exponentially with nesting depth."""
    configs = {(q, (m.bottom,)) for q in m.initials}
    for base, tag in tw:
        nxt = set()
        for state, stack in configs:
            if tag is Tag.CALL:
                for dst, pushed in m.delta_c.get((state, base), ()):
                    nxt.add((dst, stack + (pushed,)))
            elif tag is Tag.INTERNAL:
                for dst in m.delta_i.get((state, base), ()):
                    nxt.add((dst, stack))
            else:
                rest = stack[:-1] if len(stack) > 1 else stack
                for dst in m.delta_r.get((state, base, stack[-1]), ()):
                    nxt.add((dst, rest))
        configs = nxt
    return any(
        state in m.accepts and all(g in m.accept_stack for g in stack[1:])
        for state, stack in configs
    )


def reference_summary_frames(m: Nvpa, tw):
    """The frames of the reference summary run, one per pending call, each
    a set of (entry, state) pairs.  The bottom frame's entry is None; a
    call from q pushing g opens a frame of entries (q, g, ok), ok saying
    every pending symbol is in accept_stack; a return joins the top frame
    with the saved caller frame through the caller state.  Yields (frame,
    saved) at the start and after each symbol, `saved` being the live list
    of caller frames, bottom first; stops after the first empty frame.  A
    letter outside the alphabet, or a tag that equals no Tag, raises
    ValueError where the run reaches it."""
    alpha, accept_stack = m._alpha, m.accept_stack
    delta_c, delta_i, delta_r = m.delta_c, m.delta_i, m.delta_r
    call, internal = Tag.CALL, Tag.INTERNAL
    frame = {(None, q) for q in m.initials}
    saved = []
    yield frame, saved
    for base, tag in tw:
        if base not in alpha:
            raise ValueError(f"letter {base!r} not in alphabet")
        if tag not in tuple(Tag):
            raise ValueError(f"tag {tag!r} on {base!r} is not a call, internal or return tag")
        nxt = set()
        if tag == call:
            saved.append(frame)
            for e, q in frame:
                ok = e is None or e[2]
                for dst, g in delta_c.get((q, base), ()):
                    nxt.add(((q, g, ok and g in accept_stack), dst))
        elif tag == internal:
            for e, q in frame:
                for dst in delta_i.get((q, base), ()):
                    nxt.add((e, dst))
        elif saved:
            callers: dict = {}
            for e, q in saved.pop():
                callers.setdefault(q, []).append(e)
            for (cq, g, _), q in frame:
                for dst in delta_r.get((q, base, g), ()):
                    for e in callers[cq]:
                        nxt.add((e, dst))
        else:
            for e, q in frame:
                for dst in delta_r.get((q, base, m.bottom), ()):
                    nxt.add((e, dst))
        frame = nxt
        yield frame, saved
        if not frame:
            return


def reference_nvpa_run(m: Nvpa, tw) -> bool:
    """Reference summary run: the last of `reference_summary_frames`
    accepts iff it pairs an accept state with the bottom entry or with
    an entry whose pending symbols are all in accept_stack."""
    for frame, _ in reference_summary_frames(m, tw):
        pass
    return any(q in m.accepts and (e is None or e[2]) for e, q in frame)


# the ways nvpa_run steps through a word (`summary_lanes`)
SUMMARY_LANES = frozenset({
    "fork", "rejoin at depth", "call on mixed ok flags", "one top under one", "one top under dict",
    "dict top under one", "dict top under dict", "bottom read", "bottom read after a dict",
})


def _entries(frame) -> int:
    return len({e for e, _ in frame})


def summary_lanes(m: Nvpa, tw) -> set:
    """The ways nvpa_run steps through tw, read off the reference frames,
    whose entries are nvpa_run's: a "fork" from one entry to more, a
    "rejoin" to one entry at depth 20 or more, a call from a frame whose
    entries differ in their ok flag, each return by the sizes of its top
    and caller frames ("one" entry or a "dict" of more), and a return
    that reads the bottom, after a return to the bottom frame from one
    entry or from a dict."""
    lanes = set()
    steps = reference_summary_frames(m, tw)
    frame, saved = next(steps)
    from_dict = False  # the last return to the bottom frame came from a dict
    for _, tag in tw:
        size, depth = _entries(frame), len(saved)
        below = _entries(saved[-1]) if saved else 0
        oks = {e is None or e[2] for e, _ in frame}
        frame, saved = next(steps)
        after = _entries(frame)
        if size == 1 and after > 1:
            lanes.add("fork")
        if size > 1 and after == 1 and depth >= 20:
            lanes.add("rejoin at depth")
        if tag == Tag.CALL and size > 1 and len(oks) == 2:
            lanes.add("call on mixed ok flags")
        if tag == Tag.RETURN:
            if not depth:
                lanes.add("bottom read after a dict" if from_dict else "bottom read")
            elif depth == 1:
                from_dict = size > 1
            else:
                lanes.add(f"{'dict' if size > 1 else 'one'} top under {'dict' if below > 1 else 'one'}")
        if not frame:
            break
    return lanes


def fork_nvpa() -> Nvpa:
    """An NVPA whose call on a from p opens two entries, one over g (which
    accept_stack holds) and one over h (which it does not), whose internal
    b keeps only the first, and whose returns on c map the two to
    different states."""
    return Nvpa(
        ("a", "b", "c"), {"p", "q", "r"}, {"g", "h"}, "$", {"p"}, {"p", "r"}, {"g"},
        delta_c={("p", "a"): {("p", "g"), ("q", "h")}, ("q", "a"): {("q", "g"), ("r", "h")},
                 ("r", "a"): {("p", "g")}},
        delta_i={("p", "b"): {"p"}, ("r", "b"): {"q"}, ("q", "c"): {"p", "r"}},
        delta_r={("p", "c", "g"): {"p"}, ("q", "c", "h"): {"r"}, ("r", "c", "h"): {"p"},
                 ("r", "c", "g"): {"q"}, ("p", "c", "$"): {"p", "q"}, ("q", "b", "$"): {"r"}},
    )


def fork_nvpa_words() -> list:
    """Words for `fork_nvpa`: every tagged word of length <= 3 and four
    that tell its entries apart, each alone and after 20 "<a b", each of
    which forks to two entries and rejoins to one."""
    words = list(all_tagged_words(("a", "b", "c"), 3)) + [parse_word(text) for text in (
        "<a <a <a c",  # calls on entries of both ok flags, which c then tells apart
        "<a <a <a <a",  # the same, decided by the flags of the pending entries
        "<a <a c c> c",  # a two-entry top returns under a caller whose entries hold different states
        "<a <a b c c>",  # the same for a one-entry top
    )]
    deep = parse_word("<a b " * 20)
    return words + [deep + w for w in words]


def fork_walks(m: Vpa, p: Vpa, rng: random.Random) -> list:
    """Words of depth 22 for the closures of m (and p): a walk of m and one
    of p that go 22 calls deep and back, reversed, doubled and joined;
    each of those followed by returns at the bottom, and cut where calls
    are pending, so that the ok flags decide.  Empty where a walk gets
    stuck."""
    u, v = deep_walk(m, rng, 22), deep_walk(p, rng, 22)
    if u is None or v is None:
        return []
    words = [reverse_word(u), u + u, u + v, reverse_word(v + u)]
    return words + [w + parse_word("a> b> a>") for w in words] + [w[:rng.randrange(21, 40)] for w in words]


# -- set-theoretic membership formulas over input-machine membership tables


def concat_oracle(mem1: dict, mem2: dict, w) -> bool:
    return any(mem1[w[:k]] and mem2[w[k:]] for k in range(len(w) + 1))


def star_oracle(mem: dict, w) -> bool:
    n = len(w)
    dp = [True] + [False] * n
    for j in range(1, n + 1):
        dp[j] = any(dp[k] and mem[w[k:j]] for k in range(j))
    return dp[n]


def reverse_oracle(mem: dict, w) -> bool:
    return mem[reverse_word(w)]


def shuffle_oracle(m: Vpa, r: Fsa, w) -> bool:
    """Disjoint alphabets make the interleaving decomposition unique: the
    VPA letters and the (internal-only) regular letters are the projections."""
    vpa_letters = set(m.alphabet)
    vpa_part = []
    reg_part = []
    for sym in w:
        if sym.base in vpa_letters:
            vpa_part.append(sym)
        elif sym.tag is not Tag.INTERNAL:
            return False
        else:
            reg_part.append(sym.base)
    return vpa_run(m, tuple(vpa_part)).accepted and fsa_run(r, reg_part)


def interleavings(u, v):
    """All order-preserving interleavings of two sequences."""
    if not u:
        yield tuple(v)
        return
    if not v:
        yield tuple(u)
        return
    for rest in interleavings(u[1:], v):
        yield (u[0],) + rest
    for rest in interleavings(u, v[1:]):
        yield (v[0],) + rest


class ExtensionOracle:
    """Prefix-closure membership by searching for an accepting extension.

    BFS over configurations reachable from the run's final configuration,
    capped at a stack height a minimal witness provably stays under
    (repeated state/symbol pairs on a higher excursion could be excised).
    Frontier exhaustion certifies rejection; the node budget fails loudly
    instead of weakening the verdict.
    """

    def __init__(self, m: Vpa, start_height_max: int = 8, node_budget: int = 2_000_000):
        self.m = m
        q, g = len(m.states), len(m.stack_alphabet)
        self.cap = start_height_max + q * (g + 1) + q + 2
        self.budget = node_budget
        self.memo: dict = {}

    def _final_config(self, tw):
        m = self.m
        state, stack = m.initial, (m.bottom,)
        for base, tag in tw:
            if tag is Tag.CALL:
                move = m.delta_c.get((state, base))
                if move is None:
                    return None
                state, pushed = move
                stack = stack + (pushed,)
            elif tag is Tag.INTERNAL:
                state = m.delta_i.get((state, base))
                if state is None:
                    return None
            else:
                nxt = m.delta_r.get((state, base, stack[-1]))
                if nxt is None:
                    return None
                state = nxt
                if len(stack) > 1:
                    stack = stack[:-1]
        return state, stack

    def _accepting(self, config) -> bool:
        state, stack = config
        return state in self.m.accepts and all(s in self.m.accept_stack for s in stack[1:])

    def _coaccessible(self, config) -> bool:
        if config in self.memo:
            return self.memo[config]
        m = self.m
        seen = {config}
        frontier = deque([config])
        nodes = 0
        while frontier:
            current = frontier.popleft()
            if self._accepting(current):
                self.memo[config] = True
                return True
            nodes += 1
            if nodes > self.budget:
                raise RuntimeError("extension oracle exceeded its node budget")
            state, stack = current
            for a in m.alphabet:
                move = m.delta_c.get((state, a))
                if move is not None and len(stack) <= self.cap:
                    nxt = (move[0], stack + (move[1],))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
                dst = m.delta_i.get((state, a))
                if dst is not None:
                    nxt = (dst, stack)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
                dst = m.delta_r.get((state, a, stack[-1]))
                if dst is not None:
                    nxt = (dst, stack[:-1] if len(stack) > 1 else stack)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        for c in seen:
            self.memo[c] = False
        return False

    def member(self, tw) -> bool:
        config = self._final_config(tw)
        return config is not None and self._coaccessible(config)


def group_letters(spec) -> tuple:
    """The letters of a group spec's words: free letters, then elements."""
    if isinstance(spec, FreeGroupSpec):
        return free_letters(spec.n)
    if isinstance(spec, FiniteGroupSpec):
        return tuple(spec.elements)
    return free_letters(spec.n) + tuple(spec.finite.elements)


# one spec of each kind: free, finite, direct and semidirect product
SPEC_KINDS = [
    FreeGroupSpec(2),
    symmetric_group(3),
    DirectProductSpec(3, cyclic_group(6)),
    SemidirectProductSpec(3, 3),
]


def group_inverse(spec, c):
    finite = spec if isinstance(spec, FiniteGroupSpec) else getattr(spec, "finite", None)
    if finite is not None and c in finite.elements:
        return next(b for b in finite.elements if finite.table[(c, b)] == finite.identity)
    if c.startswith("p"):
        return perm_name(perm_inverse(tuple(int(d) for d in c[1:])))
    return invert_letter(c)


def trivial_word(rng, spec, n):
    """A random product of nested g . g^-1 blocks, n letters long."""
    letters = group_letters(spec)
    out, owed = [], []
    while len(out) + len(owed) < n:
        if owed and rng.random() < 0.45:
            out.append(owed.pop())
        else:
            c = rng.choice(letters)
            out.append(c)
            owed.append(group_inverse(spec, c))
    return tuple(out + owed[::-1])


def internal_word(letters) -> tuple:
    return tuple(TaggedSymbol(c, Tag.INTERNAL) for c in letters)


# -- nested-word conditions by definition


def crosses(e1, e2) -> bool:
    """Edges (i1,j1), (i2,j2) with i1 < i2 cross when i2 <= j1 < j2."""
    (i1, j1), (i2, j2) = sorted((e1, e2))
    return i1 != i2 and i2 <= j1 < j2


def pairwise_validate_matching(word, matching) -> MatchingViolation | None:
    """validate_matching as the definition states it: the forward and
    uniqueness conditions, then every pair of edges tested for a crossing.
    Endpoints must lie in 1..n or be pending; that check is not repeated."""
    edges = sorted(matching.edges)
    for i, j in edges:
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
    for e1, e2 in itertools.combinations(edges, 2):
        if crosses(e1, e2):
            return MatchingViolation("nesting", tuple(sorted((e1, e2))))
    return None


# -- the words pipeline one position at a time: the bodies that parsing,
# printing and tagging each distinct token once replaced


def reference_token_str(sym) -> str:
    if sym.tag is Tag.CALL:
        return "<" + sym.base
    if sym.tag is Tag.RETURN:
        return sym.base + ">"
    return sym.base


def reference_parse_word(text: str) -> tuple:
    tokens = text.split()
    if tokens == [EMPTY_WORD_TOKEN]:
        return ()
    return tuple(parse_token(t) for t in tokens)


def reference_format_word(tw) -> str:
    if not tw:
        return EMPTY_WORD_TOKEN
    return " ".join(reference_token_str(s) for s in tw)


def reference_decode(tw) -> NestedWord:
    edges = []
    open_calls: list = []
    for pos, sym in enumerate(tw, start=1):
        if sym.tag is Tag.CALL:
            open_calls.append(pos)
        elif sym.tag is Tag.RETURN:
            if open_calls:
                edges.append((open_calls.pop(), pos))
            else:
                edges.append((NEG_INF, pos))
    edges.extend((i, POS_INF) for i in open_calls)
    word = tuple(sym.base for sym in tw)
    return NestedWord._trusted(word, MatchingRelation(len(word), edges))


def _cancellations(spec: FreeGroupSpec | DirectProductSpec | SemidirectProductSpec, word) -> tuple:
    """One pass over a word of F_n or of a product F_n x| G: each free
    letter is read through the twist of its prefix's finite value and
    cancelled against the stack top; each finite letter multiplies that
    value through the table.  Returns the cancellation edges (i, j) and
    whether the word is trivial."""
    if isinstance(spec, FreeGroupSpec):  # every letter read as itself; no finite letters
        reads, twist, table, g = {a: a for a in free_letters(spec.n)}, {}, {}, None
        outside = "the alphabet"
    else:
        twist, table, g = spec.twist, spec.finite.table, spec.finite.identity
        reads, outside = twist[g], "the combined alphabet"
    unit = g
    inverse = {b: invert_letter(b) for b in reads}
    stack: list = []  # (position, twisted letter) awaiting cancellation
    edges = []
    for pos, c in enumerate(word, start=1):
        b = reads.get(c)
        if b is not None:
            if stack and stack[-1][1] == inverse[b]:
                edges.append((stack.pop()[0], pos))
            else:
                stack.append((pos, b))
            continue
        g = table.get((g, c))
        if g is None:
            raise ValueError(f"letter {c!r} outside {outside}")
        reads = twist[g]
    return edges, not stack and g == unit


def reference_is_identity(spec, word) -> bool:
    """is_identity before its one reduction pass: a letter check and a
    table product for a finite group, the cancellation edges otherwise."""
    if isinstance(spec, FiniteGroupSpec):
        elements = set(spec.elements)
        for c in word:
            if c not in elements:
                raise ValueError(f"letter {c!r} outside the alphabet")
        return spec.product(word) == spec.identity
    return _cancellations(spec, word)[1]


def reference_annotate_word(spec, word):
    word = tuple(word)
    if isinstance(spec, FiniteGroupSpec):
        if not reference_is_identity(spec, word):
            return None
        return tuple(TaggedSymbol(c, Tag.INTERNAL) for c in word)
    edges, trivial = _cancellations(spec, word)
    if not trivial:
        return None
    return encode(NestedWord._trusted(word, MatchingRelation(len(word), edges)))


# -- free reduction, the canonical matching and every tagging, by brute force


class BoundExceeded(ValueError):
    pass


def free_reduce(word) -> tuple:
    """Cancel adjacent inverse pairs until none remain (one stack pass)."""
    stack: list = []
    for c in word:
        if stack and stack[-1] == invert_letter(c):
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def canonical_matching(word) -> MatchingRelation | None:
    """The matching traced by stack cancellation; None if w is not trivial.

    Position j cancels the position i on top of the reduction stack, giving
    the edge (i, j) -- the pairing that follows the word's path through the
    Cayley graph rather than any other valid cancellation pattern.
    """
    word = tuple(word)
    stack: list = []  # (position, letter) awaiting cancellation
    edges = []
    for pos, c in enumerate(word, start=1):
        if stack and stack[-1][1] == invert_letter(c):
            edges.append((stack.pop()[0], pos))
        else:
            stack.append((pos, c))
    if stack:
        return None
    return MatchingRelation(len(word), edges)


def enumerate_taggings(word, bound: int = 12):
    """All 3^|w| taggings in token-lexicographic order."""
    word = tuple(word)
    if len(word) > bound:
        raise BoundExceeded(f"word length {len(word)} exceeds bound {bound}")
    tag_choices = [_tagged(c) for c in word]
    for combo in itertools.product(*tag_choices):
        yield tuple(combo)


# -- group word problems by the definitions, with no twist table


def direct_oracle(n: int, g: FiniteGroupSpec, word) -> bool:
    """Trivial in F_n x G: both projections must be trivial."""
    a_letters = set(free_letters(n))
    b_letters = set(g.elements)
    if a_letters & b_letters:
        raise NonDisjointAlphabets("generator and element names overlap")
    a_part = [c for c in word if c in a_letters]
    b_part = []
    for c in word:
        if c in b_letters:
            b_part.append(c)
        elif c not in a_letters:
            raise ValueError(f"letter {c!r} outside the combined alphabet")
    return not free_reduce(a_part) and g.product(b_part) == g.identity


def semidirect_oracle(n: int, m: int, word) -> bool:
    """Trivial in F_n x| S_m under (f1,s1)(f2,s2) = (f1 psi(s1)(f2), s1 s2):
    the permutation letters multiply to the identity and the free-group
    word twisted by each prefix permutation reduces to nothing."""
    if m > n:
        raise ValueError(f"permutation degree {m} exceeds generator count {n}")
    perms = perm_by_name(m)
    a_letters = set(free_letters(n))
    sigma = tuple(range(1, m + 1))
    stack: list = []
    for c in word:
        if c in perms:
            sigma = perm_compose(sigma, perms[c])
        elif c in a_letters:
            t = psi_action(sigma, c)
            if stack and stack[-1] == invert_letter(t):
                stack.pop()
            else:
                stack.append(t)
        else:
            raise ValueError(f"letter {c!r} outside the combined alphabet")
    return not stack and sigma == tuple(range(1, m + 1))


# -- permutations in one-line notation (sigma maps i to sigma[i-1]), and the
# paper's relabeling for F_n x| S_m, which build_semidirect builds directly


def perm_compose(s: tuple, t: tuple) -> tuple:
    """(s . t)(i) = s(t(i)): apply t first."""
    return tuple(s[t[i] - 1] for i in range(len(t)))


def perm_inverse(s: tuple) -> tuple:
    out = [0] * len(s)
    for i, v in enumerate(s, start=1):
        out[v - 1] = i
    return tuple(out)


def semidirect_relabeling(n: int, m: int) -> Relabeling:
    """Pair FSA tracking the prefix permutation: the paper's relabeling,
    whose image of the shuffle `build_semidirect` builds directly.

    Permutation letters must be copied unchanged and advance the tracked
    product; a free-group letter read as `a` is emitted as psi(sigma)^-1(a),
    undoing the twist accumulated so far.
    """
    perms = perm_by_name(m)
    a_letters = free_letters(n)
    state_names = sorted(perms)
    pairs = []
    delta = {}
    for name in state_names:
        sigma = perms[name]
        inv = perm_inverse(sigma)
        for b_name, tau in perms.items():
            pair = (b_name, b_name)
            pairs.append(pair)
            delta[(name, pair)] = perm_name(perm_compose(sigma, tau))
        for a in a_letters:
            pair = (a, psi_action(inv, a))
            pairs.append(pair)
            delta[(name, pair)] = name
    alphabet = tuple(dict.fromkeys(pairs))
    identity = perm_name(tuple(range(1, m + 1)))
    fsa = Fsa(alphabet, set(state_names), identity, set(state_names), delta)
    return Relabeling(fsa)


# -- shuffle, re-labeling and the product builder as whole tables: every
# state pair and every move, tuple states kept.  canonicalize of each
# reference equals the library's closure; the flattened builder reference
# equals the library's builder.


def reference_shuffle(m: Vpa, r: Fsa) -> Vpa:
    """Every pair (s, t) of states of m and r, with m's moves on its letters
    and r's on the regular letters, which never touch the stack."""
    if set(m.alphabet) & set(r.alphabet):
        raise NonDisjointAlphabets(f"{m.alphabet!r} overlaps {r.alphabet!r}")
    states = {(s, t) for s in m.states for t in r.states}
    delta_c, delta_i, delta_r = {}, {}, {}
    for s, t in states:
        for a in m.alphabet:
            move = m.delta_c.get((s, a))
            if move is not None:
                delta_c[((s, t), a)] = ((move[0], t), move[1])
            dst = m.delta_i.get((s, a))
            if dst is not None:
                delta_i[((s, t), a)] = (dst, t)
        for b in r.alphabet:
            dst = r.delta.get((t, b))
            if dst is not None:
                delta_i[((s, t), b)] = (s, dst)
    for (s, a, g), dst in m.delta_r.items():
        for t in r.states:
            delta_r[((s, t), a, g)] = (dst, t)
    return Vpa(
        alphabet=tuple(m.alphabet) + tuple(r.alphabet),
        states=frozenset(states),
        stack_alphabet=m.stack_alphabet,
        bottom=m.bottom,
        initial=(m.initial, r.initial),
        accepts=frozenset((y, yr) for y in m.accepts for yr in r.accepts),
        accept_stack=m.accept_stack,
        delta_c=delta_c,
        delta_i=delta_i,
        delta_r=delta_r,
    )


def reference_relabel_image(m: Vpa, phi: Relabeling) -> Nvpa:
    """Every pair (q, p) of states of m and the pair FSA: a move on output
    letter b wherever some input letter a has a pair-FSA move on (a, b)
    and an m-move with the same tag."""
    pfsa = phi.pair_fsa
    pair_moves: dict = {}  # (pair state, input letter) -> [(output letter, next pair state)]
    for (p, (a_in, b_out)), dst in pfsa.delta.items():
        pair_moves.setdefault((p, a_in), []).append((b_out, dst))
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}
    for (q, a), (dst, g) in m.delta_c.items():
        for p in pfsa.states:
            for b_out, pdst in pair_moves.get((p, a), ()):
                add_move(delta_c, ((q, p), b_out), ((dst, pdst), g))
    for (q, a), dst in m.delta_i.items():
        for p in pfsa.states:
            for b_out, pdst in pair_moves.get((p, a), ()):
                add_move(delta_i, ((q, p), b_out), (dst, pdst))
    for (q, a, g), dst in m.delta_r.items():
        for p in pfsa.states:
            for b_out, pdst in pair_moves.get((p, a), ()):
                add_move(delta_r, ((q, p), b_out, g), (dst, pdst))
    return Nvpa(
        alphabet=tuple(m.alphabet),
        states=frozenset((q, p) for q in m.states for p in pfsa.states),
        stack_alphabet=m.stack_alphabet,
        bottom=m.bottom,
        initials=frozenset({(m.initial, pfsa.initial)}),
        accepts=frozenset((y, p) for y in m.accepts for p in pfsa.accepts),
        accept_stack=m.accept_stack,
        delta_c=delta_c,
        delta_i=delta_i,
        delta_r=delta_r,
    )


# the product specs whose builder outputs are compared with the reference
PRODUCT_SPECS = tuple(
    DirectProductSpec(n, g) for n in range(1, 5) for g in (cyclic_group(2), cyclic_group(3), symmetric_group(3))
) + tuple(SemidirectProductSpec(n, m) for n, m in ((1, 1), (2, 2), (3, 3), (4, 3), (5, 4)))


def _flatten_states(m: Vpa) -> Vpa:
    """m, a shuffle of the free-group VPA, with each state pair (p, t)
    renamed to 'p|t'; no free-group state holds a '|', so names stay
    distinct."""
    names = {q: "|".join(q) for q in m.states}
    return rename_machine(m, names, {g: g for g in m.stack_alphabet | {m.bottom}})


def reference_build_product(spec) -> Recognizer:
    """The whole shuffle of the free-group VPA with the Cayley FSA of the
    finite factor, its free letters re-keyed through the twist of the
    state's finite value, then its state pairs flattened to 'p|g'."""
    shuffled = reference_shuffle(build_free_vpa(spec.n).automaton, build_finite_fsa(spec.finite).automaton)
    # reads[g][a]: the letter b with twist[g][b] = a
    reads = {g: {a: b for b, a in t.items()} for g, t in spec.twist.items()}
    twisted = dataclasses.replace(
        shuffled,
        delta_c={(q, reads[q[1]][a]): v for (q, a), v in shuffled.delta_c.items()},
        delta_r={(q, reads[q[1]][a], g): v for (q, a, g), v in shuffled.delta_r.items()},
    )
    return Recognizer(_flatten_states(twisted))


# -- VPL Boolean closures as full products of completed, normalized machines


def _complete_outside_accept_stack(m: Vpa) -> Vpa:
    """m made total through a non-accepting sink whose pushed symbol lies
    outside accept_stack."""
    sink, sink_sym = ("sink",), ("sinksym",)
    states = m.states | {sink}
    stack = m.stack_alphabet | {sink_sym}
    delta_c, delta_i, delta_r = dict(m.delta_c), dict(m.delta_i), dict(m.delta_r)
    for q in states:
        for a in m.alphabet:
            delta_c.setdefault((q, a), (sink, sink_sym))
            delta_i.setdefault((q, a), sink)
            for g in stack | {m.bottom}:
                delta_r.setdefault((q, a, g), sink)
    return Vpa(
        m.alphabet, states, stack, m.bottom, m.initial, m.accepts,
        m.accept_stack, delta_c, delta_i, delta_r,
    )


def pair_product(m1: Vpa, m2: Vpa, keep) -> Vpa:
    """Every pair of states and of stack symbols of m1 and m2 as they are,
    with a move wherever both machines have one; not canonicalized."""
    states = {(p, q) for p in m1.states for q in m2.states}
    stack = {(g1, g2) for g1 in m1.stack_alphabet for g2 in m2.stack_alphabet}
    bottom = (m1.bottom, m2.bottom)
    delta_c, delta_i, delta_r = {}, {}, {}
    for p, q in states:
        for a in m1.alphabet:
            if (p, a) in m1.delta_c and (q, a) in m2.delta_c:
                (d1, g1), (d2, g2) = m1.delta_c[(p, a)], m2.delta_c[(q, a)]
                delta_c[((p, q), a)] = ((d1, d2), (g1, g2))
            if (p, a) in m1.delta_i and (q, a) in m2.delta_i:
                delta_i[((p, q), a)] = (m1.delta_i[(p, a)], m2.delta_i[(q, a)])
            for s1, s2 in stack | {bottom}:
                if (p, a, s1) in m1.delta_r and (q, a, s2) in m2.delta_r:
                    delta_r[((p, q), a, (s1, s2))] = (m1.delta_r[(p, a, s1)], m2.delta_r[(q, a, s2)])
    accepts = {(p, q) for p, q in states if keep(p in m1.accepts, q in m2.accepts)}
    accept_stack = {(g1, g2) for g1, g2 in stack if g1 in m1.accept_stack and g2 in m2.accept_stack}
    return Vpa(
        m1.alphabet, states, stack, bottom, (m1.initial, m2.initial), accepts,
        accept_stack, delta_c, delta_i, delta_r,
    )


def full_vpa_product(m1: Vpa, m2: Vpa, keep) -> Vpa:
    """Every pair of states and of stack symbols of the completed,
    acceptance-normalized inputs, then the part the over-approximating
    reference naming reaches."""
    n1 = vpa_normalize_acceptance(_complete_outside_accept_stack(m1))
    n2 = vpa_normalize_acceptance(_complete_outside_accept_stack(m2))
    return reference_bfs_canonicalize(pair_product(n1, n2, keep))


def full_vpl_complement(m: Vpa) -> Vpa:
    """Complete, normalize acceptance to state-only, swap accept states,
    then name the result with the over-approximating reference naming."""
    n = vpa_normalize_acceptance(_complete_outside_accept_stack(m))
    return reference_bfs_canonicalize(
        Vpa(
            n.alphabet, n.states, n.stack_alphabet, n.bottom, n.initial,
            n.states - n.accepts, n.accept_stack, n.delta_c, n.delta_i, n.delta_r,
        )
    )


# -- the VPL closures as whole machines: completion, acceptance
# normalization and the raw concat, star and reverse gluings.  canonicalize
# of each reference_vpl_* equals the library's closure, machine for machine.


def _fresh(base: str, taken: Iterable[Hashable]) -> str:
    taken = set(taken)
    name = base
    i = 0
    while name in taken:
        i += 1
        name = f"{base}{i}"
    return name


def vpa_complete(m: Vpa) -> Vpa:
    """Make all three transition families total via a non-accepting sink.

    Missing calls push a fresh sink symbol, which is added to accept_stack:
    that symbol is only ever pushed on the way into the sink, which never
    accepts and never leaves, so no accepting run has it on its stack and
    the accepted language is unchanged.  A machine whose accept_stack
    covers its stack alphabet keeps covering it, so its acceptance stays
    state-only.
    """
    sink = _fresh("sink", m.states)
    sink_sym = _fresh("sinksym", m.stack_alphabet | {m.bottom})
    states = frozenset(m.states | {sink})
    stack = frozenset(m.stack_alphabet | {sink_sym})
    delta_c = dict(m.delta_c)
    delta_i = dict(m.delta_i)
    delta_r = dict(m.delta_r)
    for q in states:
        for base in m.alphabet:
            delta_c.setdefault((q, base), (sink, sink_sym))
            delta_i.setdefault((q, base), sink)
            for g in stack | {m.bottom}:
                delta_r.setdefault((q, base, g), sink)
    return Vpa(
        m.alphabet, states, stack, m.bottom, m.initial, m.accepts,
        m.accept_stack | {sink_sym}, delta_c, delta_i, delta_r,
    )


def vpa_normalize_acceptance(m: Vpa) -> Vpa:
    """Equivalent VPA whose acceptance condition is state-only.

    States carry a flag "everything on the stack above the bottom is in
    accept_stack"; each push saves the current flag into the pushed symbol
    so a pop can restore it.  The new accept_stack is the whole new stack
    alphabet, and the flag being true at an original accept state encodes
    the original stack condition.
    """
    in_acc = m.accept_stack.__contains__
    states = frozenset((q, ok) for q in m.states for ok in (True, False))
    stack = frozenset((g, ok) for g in m.stack_alphabet for ok in (True, False))
    bottom = m.bottom if m.bottom not in stack else ("bot", m.bottom)
    delta_c = {}
    delta_i = {}
    delta_r = {}
    for (q, base), (dst, g) in m.delta_c.items():
        for ok in (True, False):
            delta_c[((q, ok), base)] = ((dst, ok and in_acc(g)), (g, ok))
    for (q, base), dst in m.delta_i.items():
        for ok in (True, False):
            delta_i[((q, ok), base)] = (dst, ok)
    for (q, base, g), dst in m.delta_r.items():
        if g == m.bottom:
            for ok in (True, False):
                delta_r[((q, ok), base, bottom)] = (dst, ok)
        else:
            for ok in (True, False):
                for ok_below in (True, False):
                    delta_r[((q, ok), base, (g, ok_below))] = (dst, ok_below)
    return Vpa(
        alphabet=m.alphabet,
        states=states,
        stack_alphabet=stack,
        bottom=bottom,
        initial=(m.initial, True),
        accepts=frozenset((q, True) for q in m.accepts),
        accept_stack=stack,
        delta_c=delta_c,
        delta_i=delta_i,
        delta_r=delta_r,
    )


def reference_state_only(m: Vpa) -> Vpa:
    """m completed, with state-only acceptance: normalized unless every
    stack symbol is already acceptable."""
    c = vpa_complete(m)
    return c if c.accept_stack >= c.stack_alphabet else vpa_normalize_acceptance(c)


def reference_vpl_union(m1: Vpa, m2: Vpa) -> Vpa:
    return pair_product(reference_state_only(m1), reference_state_only(m2), lambda a, b: a or b)


def reference_vpl_intersection(m1: Vpa, m2: Vpa) -> Vpa:
    return pair_product(m1, m2, lambda a, b: a and b)


def reference_vpl_complement(m: Vpa) -> Vpa:
    n = reference_state_only(m)
    return dataclasses.replace(n, accepts=n.states - n.accepts)


def reference_vpl_concat(m1: Vpa, m2: Vpa) -> Nvpa:
    """Guess the split point at accepting configurations of m1.

    Both machines are acceptance-normalized, so "m1 accepts here" is a
    state predicate.  Stack symbols carry their phase; once the run is in
    phase 2, a return that finds a phase-1 symbol (or the true bottom)
    behaves as m2 reading its own bottom, popping the dead symbol.
    """
    alphabet = m1.alphabet
    n1 = vpa_normalize_acceptance(m1)
    n2 = vpa_normalize_acceptance(m2)
    bottom = "$"
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}

    for (q, a), (dst, g) in n1.delta_c.items():
        add_move(delta_c, (("1", q), a), (("1", dst), ("1", g)))
    for (q, a), dst in n1.delta_i.items():
        add_move(delta_i, (("1", q), a), ("1", dst))
    for (q, a, g), dst in n1.delta_r.items():
        top = bottom if g == n1.bottom else ("1", g)
        add_move(delta_r, (("1", q), a, top), ("1", dst))

    for (q, a), (dst, g) in n2.delta_c.items():
        add_move(delta_c, (("2", q), a), (("2", dst), ("2", g)))
    for (q, a), dst in n2.delta_i.items():
        add_move(delta_i, (("2", q), a), ("2", dst))
    for (q, a, g), dst in n2.delta_r.items():
        if g == n2.bottom:
            # m2 at its virtual bottom: the true bottom or any dead phase-1 symbol.
            add_move(delta_r, (("2", q), a, bottom), ("2", dst))
            for g1 in n1.stack_alphabet:
                add_move(delta_r, (("2", q), a, ("1", g1)), ("2", dst))
        else:
            add_move(delta_r, (("2", q), a, ("2", g)), ("2", dst))

    # Split folded into the next symbol: from an accepting phase-1 state,
    # also move as m2 would from its initial state.
    for y in n1.accepts:
        for a in alphabet:
            move = n2.delta_c.get((n2.initial, a))
            if move is not None:
                add_move(delta_c, (("1", y), a), (("2", move[0]), ("2", move[1])))
            dst = n2.delta_i.get((n2.initial, a))
            if dst is not None:
                add_move(delta_i, (("1", y), a), ("2", dst))
            dst = n2.delta_r.get((n2.initial, a, n2.bottom))
            if dst is not None:
                add_move(delta_r, (("1", y), a, bottom), ("2", dst))
                for g1 in n1.stack_alphabet:
                    add_move(delta_r, (("1", y), a, ("1", g1)), ("2", dst))

    states = {("1", q) for q in n1.states} | {("2", q) for q in n2.states}
    stack = {("1", g) for g in n1.stack_alphabet} | {("2", g) for g in n2.stack_alphabet}
    initials = {("1", n1.initial)}
    if n1.initial in n1.accepts:
        initials.add(("2", n2.initial))
    accepts = {("2", y) for y in n2.accepts}
    if n2.initial in n2.accepts:
        accepts |= {("1", y) for y in n1.accepts}
    return Nvpa(
        alphabet=alphabet,
        states=frozenset(states),
        stack_alphabet=frozenset(stack),
        bottom=bottom,
        initials=frozenset(initials),
        accepts=frozenset(accepts),
        accept_stack=frozenset(stack),
        delta_c=delta_c,
        delta_i=delta_i,
        delta_r=delta_r,
    )


def reference_vpl_star(m: Vpa) -> Nvpa:
    """Iterated concatenation: restart at accepting states, nondeterministically.

    States carry a bit "a restart happened since the symbol now on top was
    pushed"; each push saves the current bit into the pushed symbol and a
    pop ORs the saved bit back in.  A pop with bit 0 is a same-iteration
    pop and uses the real symbol; with bit 1 the symbol is dead (pushed in
    an earlier iteration), so the machine reads its bottom instead.
    """
    n = vpa_normalize_acceptance(m)
    bottom = "$"
    start = "start"
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}

    def add_moves(src, q, b):
        """Moves of simulated state q with restart bit b, installed under src."""
        for a in n.alphabet:
            move = n.delta_c.get((q, a))
            if move is not None:
                add_move(delta_c, (src, a), ((move[0], 0), (move[1], b)))
            dst = n.delta_i.get((q, a))
            if dst is not None:
                add_move(delta_i, (src, a), (dst, b))
            bottom_dst = n.delta_r.get((q, a, n.bottom))
            if bottom_dst is not None:
                add_move(delta_r, (src, a, bottom), (bottom_dst, b))
            for g in n.stack_alphabet:
                for saved in (0, 1):
                    if b == 0:
                        dst = n.delta_r.get((q, a, g))
                        if dst is not None:
                            add_move(delta_r, (src, a, (g, saved)), (dst, saved))
                    else:
                        # dead symbol: the current iteration sees its bottom
                        if bottom_dst is not None:
                            add_move(delta_r, (src, a, (g, saved)), (bottom_dst, 1))

    for q in n.states:
        for b in (0, 1):
            add_moves((q, b), q, b)
            if q in n.accepts:
                # restart: end the iteration here and process the symbol
                # as the first of a fresh one (bit becomes 1)
                add_moves((q, b), n.initial, 1)
    add_moves(start, n.initial, 0)
    if n.initial in n.accepts:
        add_moves(start, n.initial, 1)

    states = {(q, b) for q in n.states for b in (0, 1)} | {start}
    stack = {(g, b) for g in n.stack_alphabet for b in (0, 1)}
    accepts = {(q, b) for q in n.accepts for b in (0, 1)} | {start}
    return Nvpa(
        alphabet=n.alphabet,
        states=frozenset(states),
        stack_alphabet=frozenset(stack),
        bottom=bottom,
        initials=frozenset({start}),
        accepts=frozenset(accepts),
        accept_stack=frozenset(stack),
        delta_c=delta_c,
        delta_i=delta_i,
        delta_r=delta_r,
    )


def reference_vpl_reverse(m: Vpa) -> Nvpa:
    """Run m backwards: reversed transitions with call and return roles swapped.

    Reading a call of the reversed word undoes a return step of m, pushing
    a guess of the symbol that step popped (or a marker when it read m's
    bottom); reading a return undoes a call step and checks the guess.
    """
    mark = "mark"
    bottom = "$"
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}

    for (q, a, g), dst in m.delta_r.items():
        if g == m.bottom:
            add_move(delta_c, (dst, a), (q, mark))
        else:
            add_move(delta_c, (dst, a), (q, ("sym", g)))
    for (q, a), dst in m.delta_i.items():
        add_move(delta_i, (dst, a), q)
    for (q, a), (dst, g) in m.delta_c.items():
        add_move(delta_r, (dst, a, ("sym", g)), q)
        if g in m.accept_stack:
            add_move(delta_r, (dst, a, bottom), q)

    stack = {("sym", g) for g in m.stack_alphabet} | {mark}
    return Nvpa(
        alphabet=m.alphabet,
        states=m.states,
        stack_alphabet=frozenset(stack),
        bottom=bottom,
        initials=m.accepts,
        accepts=frozenset({m.initial}),
        accept_stack=frozenset({mark}),
        delta_c=delta_c,
        delta_i=delta_i,
        delta_r=delta_r,
    )


# (name, closure, reference builder, arity) of the six VPL closures
VPL_CLOSURE_REFERENCES = (
    ("union", vpl_union, reference_vpl_union, 2),
    ("intersection", vpl_intersection, reference_vpl_intersection, 2),
    ("complement", vpl_complement, reference_vpl_complement, 1),
    ("concat", vpl_concat, reference_vpl_concat, 2),
    ("star", vpl_star, reference_vpl_star, 1),
    ("reverse", vpl_reverse, reference_vpl_reverse, 1),
)


def exact_state_tops(m: Vpa) -> set:
    """The (state, top) pairs of the configurations that runs of m reach,
    exactly, by a search over frames.

    A frame (entry, top) is a state entered with `top` on the stack: the
    root (initial, bottom), or the target and symbol of a call.  What a run
    reaches inside a frame before popping its top depends on the frame
    alone, so a return popping a frame's top leads into exactly the frames
    whose states made the call that entered it.
    """
    root = (m.initial, m.bottom)
    reached = {(root, m.initial)}
    todo = [(root, m.initial)]
    callers: dict = {}  # frame -> frames a call entered it from
    exits: dict = {}  # frame -> states a return popping its top leads to

    def reach(frame, state) -> None:
        if (frame, state) not in reached:
            reached.add((frame, state))
            todo.append((frame, state))

    while todo:
        frame, q = todo.pop()
        top = frame[1]
        for a in m.alphabet:
            if (q, a) in m.delta_i:
                reach(frame, m.delta_i[(q, a)])
            if (q, a) in m.delta_c:
                inner = m.delta_c[(q, a)]
                if frame not in callers.setdefault(inner, set()):
                    callers[inner].add(frame)
                    for dst in exits.get(inner, ()):
                        reach(frame, dst)
                reach(inner, inner[0])
            if (q, a, top) in m.delta_r:
                dst = m.delta_r[(q, a, top)]
                if frame == root:
                    reach(root, dst)
                elif dst not in exits.setdefault(frame, set()):
                    exits[frame].add(dst)
                    for caller in callers[frame]:
                        reach(caller, dst)
    return {(q, frame[1]) for frame, q in reached}


def well_matched_pairs_sweep(m: Vpa) -> dict:
    """q -> the states q' that some well-matched word leads q to, by
    sweeping every pair until nothing changes."""
    reach = {q: {q} for q in m.states}
    changed = True
    while changed:
        changed = False
        for q in m.states:
            for q1 in list(reach[q]):
                for a in m.alphabet:
                    dst = m.delta_i.get((q1, a))
                    if dst is not None and dst not in reach[q]:
                        reach[q].add(dst)
                        changed = True
                    move = m.delta_c.get((q1, a))
                    if move is None:
                        continue
                    inner, g = move
                    for p in list(reach[inner]):
                        for b in m.alphabet:
                            dst = m.delta_r.get((p, b, g))
                            if dst is not None and dst not in reach[q]:
                                reach[q].add(dst)
                                changed = True
    return reach


# ---------------------------------------------------------------------------
# reference search: the transition rows of a Vpa or Nvpa, and the summary
# search behind every VPL closure and canonicalize in a plainer form,
# which the library's search must match name for name


def transition_rows(m) -> tuple:
    """The transitions of a Vpa or Nvpa as (calls, internals, returns), one
    row per choice: calls (src, base, dst, pushed), internals (src, base,
    dst), returns (src, base, top, dst)."""
    if isinstance(m, Vpa):
        return (
            ((q, b, dst, g) for (q, b), (dst, g) in m.delta_c.items()),
            ((q, b, dst) for (q, b), dst in m.delta_i.items()),
            ((q, b, g, dst) for (q, b, g), dst in m.delta_r.items()),
        )
    return (
        ((q, b, dst, g) for (q, b), moves in m.delta_c.items() for dst, g in moves),
        ((q, b, dst) for (q, b), dsts in m.delta_i.items() for dst in dsts),
        ((q, b, g, dst) for (q, b, g), dsts in m.delta_r.items() for dst in dsts),
    )


def reference_reached_vpa(cls, alphabet, initials, bottom, calls, internals, returns, accepting, acceptable):
    """machines.reached_vpa in a plainer form, with a helper call per move
    and a comprehension per new-top test: the reference whose names,
    visiting order and tables the library's search must match.

    The Vpa or Nvpa (`cls`) of what runs from `initials` reach, its
    states named q0, q1, ..., pushed symbols g0, g1, ... in the order the
    search first meets them, and its bottom "$".

    calls(state, a), internals(state, a) and returns(state, a, top) give
    the sequence of choices a table would hold under that key (at most one
    for a Vpa).  The search is the summary reachability of Alur and
    Madhusudan over (state, top) pairs, by worklist as in Reps, Horwitz
    and Sagiv; a state is expanded with all its tops found since it last
    was, its internal and call moves looked up once.  A call from (q, t)
    pushing g reaches (dst, g) and records t in `under[g]`.  A return row
    is looked up, and kept, only for a reached pair: one popping g to r
    reaches (r, t) for every t in `under[g]`, now or later, and one
    reading the bottom reaches (r, bottom).  Every configuration a run
    reaches has its (state, top) pair in the search and each adjacent
    stack pair in `under`, so this over-approximates only which caller
    pushed g, never the language.  Every set the search walks is an
    insertion-ordered dict, so no name depends on hashing.  `accepting`
    and `acceptable` are the predicates on states and pushed symbols.
    """
    single = cls is Vpa
    names: dict = {}  # state -> its name
    syms: dict = {bottom: "$"}  # stack symbol -> its name
    moves: dict = {}  # state -> (internal targets, pushed symbols)
    under: dict = {}  # pushed symbol -> tops found directly beneath it
    exits: dict = {}  # pushed symbol -> states a return popping it leads to
    tops_of: dict = {}  # state -> the tops it is reached with
    pending: dict = {}  # state -> those of its tops not yet expanded
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}

    def name(state) -> str:
        found = names.get(state)
        if found is None:
            found = names[state] = f"q{len(names)}"
        return found

    def reach(state, tops) -> None:
        known = tops_of.setdefault(state, {})
        fresh = {top: None for top in tops if top not in known}
        if fresh:
            known.update(fresh)
            pending.setdefault(state, {}).update(fresh)

    def store(table: dict, key, named: list) -> None:
        table[key] = named[0] if single else named

    for q in initials:
        name(q)
        reach(q, (bottom,))
    while pending:
        state = next(iter(pending))
        tops = pending.pop(state)
        src = names[state]
        if state not in moves:
            targets, pushes = moves[state] = [], []
            for a in alphabet:
                dsts = internals(state, a)
                if dsts:
                    store(delta_i, (src, a), [name(dst) for dst in dsts])
                    targets.extend(dsts)
                choices = calls(state, a)
                if choices:
                    named = []
                    for dst, pushed in choices:
                        if pushed not in syms:
                            syms[pushed] = f"g{len(syms) - 1}"
                            under[pushed], exits[pushed] = {}, {}
                        named.append((name(dst), syms[pushed]))
                        pushes.append(pushed)
                        reach(dst, (pushed,))
                    store(delta_c, (src, a), named)
        targets, pushes = moves[state]
        for dst in targets:
            reach(dst, tops)
        for pushed in pushes:
            below = under[pushed]
            fresh = {top: None for top in tops if top not in below}
            if fresh:
                below.update(fresh)
                for dst in exits[pushed]:
                    reach(dst, fresh)
        for top in tops:
            found = exits.get(top)  # None for the bottom, which a return reads in place
            for a in alphabet:
                dsts = returns(state, a, top)
                if not dsts:
                    continue
                store(delta_r, (src, a, syms[top]), [name(dst) for dst in dsts])
                for dst in dsts:
                    if found is None:
                        reach(dst, (top,))
                    elif dst not in found:
                        found[dst] = None
                        reach(dst, under[top])

    start = {"initial": "q0"} if single else {"initials": frozenset(map(names.get, initials))}
    return cls(
        alphabet=alphabet,
        states=frozenset(names.values()),
        stack_alphabet=frozenset(syms[g] for g in under),
        bottom="$",
        accepts=frozenset(label for q, label in names.items() if accepting(q)),
        accept_stack=frozenset(syms[g] for g in under if acceptable(g)),
        delta_c=delta_c,
        delta_i=delta_i,
        delta_r=delta_r,
        **start,
    )


def machine_difference(got, want) -> str | None:
    """How `got` differs from `want` (two Vpas or two Nvpas), if at all: in
    its dumped bytes, in a field, or in a table, key order included."""
    if type(got) is not type(want):
        return f"a {type(got).__name__}, not a {type(want).__name__}"
    if dumps(got) != dumps(want):
        return "dumps differs"
    for field in dataclasses.fields(got):
        mine, theirs = getattr(got, field.name), getattr(want, field.name)
        if isinstance(mine, dict):
            mine, theirs = list(mine.items()), list(theirs.items())
        if mine != theirs:
            return f"{field.name} differs: {mine!r} against {theirs!r}"
    return None


def search_disagreement(build) -> str | None:
    """How a search that build() makes through `machines.reached_vpa` (as
    every VPL closure, shuffle, re-labeling and canonicalize do) differs
    from reference_reached_vpa on the same arguments, if any does.  The
    lookups are pure, so each search is run again on the reference."""
    searches = []

    def recorded(*search):
        searches.append(search)
        return library(*search)

    library = machines.reached_vpa
    closures.reached_vpa = machines.reached_vpa = recorded
    try:
        build()
    finally:
        closures.reached_vpa = machines.reached_vpa = library
    if not searches:
        return "no search was made"
    for search in searches:
        problem = machine_difference(library(*search), reference_reached_vpa(*search))
        if problem is not None:
            return f"{search[0].__name__} search from {search[2]!r}: {problem}"
    return None


def search_cases(seed: int) -> list:
    """(name, build) pairs whose searches `search_disagreement` checks: the
    VPL closures, shuffle and re-labelings (one with keys of several
    choices) of a seeded random_vpa pair, canonicalize of the Vpa and of an
    Nvpa with several choices under some keys, and a direct search of that
    Nvpa from its initials listed twice.  The Vpa has a state with no moves
    that a run reaches."""
    rng = random.Random(seed)
    density = 0.3 + 0.1 * (seed % 7)
    m = random_vpa(rng, 1 + seed % 5, ("a", "b"), 1 + seed % 3, density)
    p = random_vpa(rng, 1 + rng.randrange(4), ("a", "b"), 1 + rng.randrange(3), density)
    m = dataclasses.replace(m, states=m.states | {"idle"}, delta_i={**m.delta_i, (m.initial, "a"): "idle"})
    r = random_fsa(rng, 1 + seed % 3)
    n = nvpa_from_vpa(p)
    states = sorted(n.states)
    n = dataclasses.replace(
        n, initials=set(rng.sample(states, 1 + rng.randrange(len(states)))),
        delta_i={key: dsts | set(rng.sample(states, rng.randrange(len(states) + 1)))
                 for key, dsts in n.delta_i.items()},
        delta_r={key: dsts | set(rng.sample(states, rng.randrange(len(states) + 1)))
                 for key, dsts in n.delta_r.items()},
    )

    def lookup(table: dict):
        return lambda *key: sorted(table.get(key, ()), key=repr)

    initials = sorted(n.initials, key=repr)
    return [
        ("union", lambda: vpl_union(m, p)),
        ("intersection", lambda: vpl_intersection(m, p)),
        ("complement", lambda: vpl_complement(m)),
        ("concat", lambda: vpl_concat(m, p)),
        ("star", lambda: vpl_star(m)),
        ("reverse", lambda: vpl_reverse(m)),
        ("shuffle", lambda: shuffle(m, r)),
        ("relabel_image", lambda: relabel_image(m, identity_relabeling(m.alphabet))),
        ("forked relabel_image", lambda: relabel_image(m, forked_relabeling())),
        ("canonicalize Vpa", lambda: canonicalize(m)),
        ("canonicalize Nvpa", lambda: canonicalize(n)),
        ("search from repeated initials", lambda: machines.reached_vpa(
            Nvpa, n.alphabet, initials + initials, n.bottom, lookup(n.delta_c), lookup(n.delta_i),
            lookup(n.delta_r), n.accepts.__contains__, n.accept_stack.__contains__,
        )),
    ]


# ---------------------------------------------------------------------------
# reference canonical naming and S_m table: the over-approximating naming
# that the boolean-closure oracles above use, independent of the library's
# search, and the straightforward form nestword.groups.symmetric_group must
# agree with, element order and dict order included


def rename_machine(m, names: dict, syms: dict):
    """m (a Vpa or Nvpa) with its states renamed through `names` and its
    stack symbols, bottom included, through `syms`.

    Transitions out of states missing from `names`, and returns reading
    symbols missing from `syms`, are dropped, as are missing accept states
    and stack symbols.  The targets of every kept transition must be named.
    """
    if isinstance(m, Vpa):
        state = names.__getitem__

        def call(move):
            return names[move[0]], syms[move[1]]

        start = {"initial": names[m.initial]}
    else:
        rename = names.__getitem__

        def state(dsts):
            return frozenset(map(rename, dsts))

        def call(moves):
            return frozenset([(names[d], syms[g]) for d, g in moves])

        start = {"initials": frozenset(map(rename, m.initials))}
    return type(m)(
        alphabet=m.alphabet,
        states=frozenset(names.values()),
        stack_alphabet=frozenset(syms[g] for g in m.stack_alphabet if g in syms),
        bottom=syms[m.bottom],
        accepts=frozenset(names[q] for q in m.accepts if q in names),
        accept_stack=frozenset(syms[g] for g in m.accept_stack if g in syms),
        delta_c={(names[q], b): call(v) for (q, b), v in m.delta_c.items() if q in names},
        delta_i={(names[q], b): state(v) for (q, b), v in m.delta_i.items() if q in names},
        delta_r={
            (names[q], b, syms[g]): state(v)
            for (q, b, g), v in m.delta_r.items()
            if q in names and g in syms
        },
        **start,
    )


def reference_bfs_names(m) -> tuple[dict, dict]:
    """Breadth-first names of a Vpa or Nvpa, the bottom named "$": from the
    initial state(s), taken in repr order, every move of a state on a
    letter sorted by repr (named or not); a return is followed on the
    bottom, or on a symbol once a call of a named state has pushed it, and
    the targets waiting on a symbol are named in repr order when it is
    pushed.  This ignores which of the pushed symbols a state can meet on
    top, so it keeps returns no run takes; the language is unchanged."""
    moves: dict = {}
    pops: dict = {}
    calls, internals, returns = transition_rows(m)
    for q, base, dst, g in calls:
        moves.setdefault((q, base), []).append((dst, g))
    for q, base, dst in internals:
        moves.setdefault((q, base), []).append((dst,))
    for q, base, g, dst in returns:
        pops.setdefault((q, base), []).append((g, (dst,)))
    state_names: dict = {}
    sym_names = {m.bottom: "$"}
    deferred: dict = {}
    order: list = []

    def name(q) -> None:
        if q not in state_names:
            state_names[q] = f"q{len(order)}"
            order.append(q)

    for q in [m.initial] if isinstance(m, Vpa) else sorted(m.initials, key=repr):
        name(q)
    for q in order:
        for base in m.alphabet:
            ready = [*moves.get((q, base), ())]
            for top, move in pops.get((q, base), ()):
                if top in sym_names:
                    ready.append(move)
                else:
                    deferred.setdefault(top, []).append(move[0])
            for move in sorted(ready, key=repr):
                if move[0] not in state_names:
                    name(move[0])
                if len(move) == 2 and move[1] not in sym_names:
                    sym_names[move[1]] = f"g{len(sym_names) - 1}"
                    for waiting in sorted(deferred.pop(move[1], ()), key=repr):
                        name(waiting)
    return state_names, sym_names


def reference_bfs_canonicalize(m):
    """m renamed by reference_bfs_names, keeping what that search reaches."""
    return rename_machine(m, *reference_bfs_names(m))


def reference_symmetric_group(m: int) -> tuple:
    """(elements, identity, table) of S_m through perm_compose: elements in
    the sorted order of their one-line tuples, the table keyed (s, t) with
    s outer and t inner."""
    perms = sorted(itertools.permutations(range(1, m + 1)))
    names = {s: perm_name(s) for s in perms}
    table = {(names[s], names[t]): names[perm_compose(s, t)] for s in perms for t in perms}
    return tuple(names[s] for s in perms), perm_name(tuple(range(1, m + 1))), table


def reference_finite_fsa(g: FiniteGroupSpec) -> Fsa:
    """The Cayley FSA of g, each move looked up pair by pair."""
    delta = {(a, b): g.table[(a, b)] for a in g.elements for b in g.elements}
    return Fsa(tuple(g.elements), set(g.elements), g.identity, {g.identity}, delta)


# ---------------------------------------------------------------------------
# reference regular builders: the complete-then-canonicalize forms that the
# regular closures and canonicalize on an Fsa must agree with, byte for
# byte.  Each completes its inputs with a sink state, builds
# the whole product, and canonicalizes it afterwards.


def reference_fsa_complete(m: Fsa) -> Fsa:
    """m with every missing move sent to a fresh, non-accepting sink."""
    sink = "sink"
    i = 0
    while sink in m.states:
        i += 1
        sink = f"sink{i}"
    states = set(m.states) | {sink}
    delta = dict(m.delta)
    for q in states:
        for sym in m.alphabet:
            delta.setdefault((q, sym), sink)
    return Fsa(m.alphabet, frozenset(states), m.initial, m.accepts, delta)


def reference_canonicalize_fsa(m: Fsa) -> Fsa:
    """The part of m reached from its initial state, states named q0,
    q1, ... breadth-first, letters taken in alphabet order."""
    names = {m.initial: "q0"}
    order = [m.initial]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for sym in m.alphabet:
            dst = m.delta.get((q, sym))
            if dst is not None and dst not in names:
                names[dst] = f"q{len(order)}"
                order.append(dst)
                queue.append(dst)
    delta = {(names[q], sym): names[dst] for (q, sym), dst in m.delta.items() if q in names}
    accepts = frozenset(names[q] for q in m.accepts if q in names)
    return Fsa(m.alphabet, frozenset(names.values()), "q0", accepts, delta)


def reference_fsa_product(m1: Fsa, m2: Fsa, keep) -> Fsa:
    """The whole product of the completed inputs, then canonicalized."""
    c1, c2 = reference_fsa_complete(m1), reference_fsa_complete(m2)
    states = {(p, q) for p in c1.states for q in c2.states}
    delta = {
        ((p, q), a): (c1.delta[(p, a)], c2.delta[(q, a)])
        for p, q in states
        for a in m1.alphabet
    }
    accepts = {(p, q) for p, q in states if keep(p in c1.accepts, q in c2.accepts)}
    prod = Fsa(m1.alphabet, frozenset(states), (c1.initial, c2.initial), frozenset(accepts), delta)
    return reference_canonicalize_fsa(prod)


def reference_reg_union(m1: Fsa, m2: Fsa) -> Fsa:
    return reference_fsa_product(m1, m2, lambda a, b: a or b)


def reference_reg_intersection(m1: Fsa, m2: Fsa) -> Fsa:
    return reference_fsa_product(m1, m2, lambda a, b: a and b)


def reference_reg_complement(m: Fsa) -> Fsa:
    c = reference_fsa_complete(m)
    return reference_canonicalize_fsa(Fsa(c.alphabet, c.states, c.initial, c.states - c.accepts, c.delta))


def reference_reg_prefix(m: Fsa) -> Fsa:
    """m with every state that can reach an accept state accepting."""
    reach = set(m.accepts)
    grew = True
    while grew:
        grew = False
        for (q, _), dst in m.delta.items():
            if dst in reach and q not in reach:
                reach.add(q)
                grew = True
    return reference_canonicalize_fsa(Fsa(m.alphabet, m.states, m.initial, reach, m.delta))


def reference_reg_concat(m1: Fsa, m2: Fsa) -> Fsa:
    """The epsilon-NFA gluing of m1 to m2, determinized."""
    states = {("1", q) for q in m1.states} | {("2", q) for q in m2.states}
    delta: dict = {}
    for (q, a), dst in m1.delta.items():
        delta[(("1", q), a)] = {("1", dst)}
    for (q, a), dst in m2.delta.items():
        delta[(("2", q), a)] = {("2", dst)}
    for y in m1.accepts:
        add_move(delta, (("1", y), None), ("2", m2.initial))
    nfa = Nfa(
        m1.alphabet,
        frozenset(states),
        frozenset({("1", m1.initial)}),
        frozenset(("2", y) for y in m2.accepts),
        delta,
    )
    return reference_fsa_determinize(nfa)


def reference_reg_star(m: Fsa) -> Fsa:
    """The epsilon-NFA for m's star, with an accepting start state of its
    own, determinized."""
    start = ("star", None)
    states = {("m", q) for q in m.states} | {start}
    delta: dict = {(("m", q), a): {("m", dst)} for (q, a), dst in m.delta.items()}
    delta[(start, None)] = {("m", m.initial)}
    for y in m.accepts:
        add_move(delta, (("m", y), None), ("m", m.initial))
    nfa = Nfa(
        m.alphabet,
        frozenset(states),
        frozenset({start}),
        frozenset({start} | {("m", y) for y in m.accepts}),
        delta,
    )
    return reference_fsa_determinize(nfa)


def reference_reg_reverse(m: Fsa) -> Fsa:
    """The NFA of m's moves reversed, from its accept states to its
    initial state, determinized."""
    delta: dict = {}
    for (q, a), dst in m.delta.items():
        add_move(delta, (dst, a), q)
    nfa = Nfa(m.alphabet, m.states, m.accepts, frozenset({m.initial}), delta)
    return reference_fsa_determinize(nfa)


# (name, gluing, reference builder, arity) of the three regular gluings
REGULAR_GLUING_REFERENCES = (
    ("concat", reg_concat, reference_reg_concat, 2),
    ("star", reg_star, reference_reg_star, 1),
    ("reverse", reg_reverse, reference_reg_reverse, 1),
)


def gluing_inputs():
    """240 seeded FSA pairs over 1-3 letters, of 1-5 states, moves drawn
    with densities from 0.3 to 1; in about a quarter each, the first has
    no accept states, the first's initial state accepts, or the second
    has no accept states."""
    rng = random.Random(20261020)
    for i in range(240):
        alphabet = ("a", "b", "c")[: 1 + i % 3]
        density = 0.3 + 0.7 * (i % 8) / 7
        m1 = random_fsa(rng, 1 + i % 5, alphabet=alphabet, density=density)
        m2 = random_fsa(rng, 1 + rng.randrange(5), alphabet=alphabet, density=density)
        shape = rng.randrange(4)
        if shape == 1:
            m1 = Fsa(alphabet, m1.states, m1.initial, frozenset(), m1.delta)
        elif shape == 2:
            m1 = Fsa(alphabet, m1.states, m1.initial, m1.accepts | {m1.initial}, m1.delta)
        elif shape == 3:
            m2 = Fsa(alphabet, m2.states, m2.initial, frozenset(), m2.delta)
        yield m1, m2


def reference_fsa_determinize(n: Nfa) -> Fsa:
    """The subset construction over the subsets reached from the
    epsilon-closed initials; the empty subset is a state only when it is
    the initial one."""
    start = _eps_closure(n, n.initials)
    names = {start: "q0"}
    order = [start]
    delta = {}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        for sym in n.alphabet:
            step = set()
            for q in subset:
                step |= n.delta.get((q, sym), frozenset())
            target = _eps_closure(n, frozenset(step))
            if not target:
                continue
            if target not in names:
                names[target] = f"q{len(order)}"
                order.append(target)
                queue.append(target)
            delta[(names[subset], sym)] = names[target]
    accepts = frozenset(names[s] for s in order if s & n.accepts)
    return Fsa(n.alphabet, frozenset(names.values()), "q0", accepts, delta)


# ---------------------------------------------------------------------------
# golden machines: fixed, seeded outputs whose JSON text the suite pins by
# digest (tests/test_machines.py), also checked without pytest by
# tests/nvpa_smoke.py

GOLDEN_CLOSURE_DIGEST = "681ddcce61a6d1cc1a2b09b60907719f59e3fd803ad821097275f00db478a22a"
GOLDEN_BUILDER_DIGEST = "f757073ef664bcd04371ba4d0a6dc715f8b291329b6005cefa8f6f9b2ac6d477"
GOLDEN_REGULAR_DIGEST = "9e20f07645383dea69471648dec0524c224c57d658c6ef2958b5c6107595fd82"


def golden_builder_machines():
    """The free, direct-product and semidirect builder outputs."""
    yield build_free_vpa(2).automaton
    yield build_direct_product(2, cyclic_group(3)).automaton
    yield build_semidirect(2, 2).automaton


def golden_closure_machines():
    """A fixed, seeded set of closure outputs, Vpa and Nvpa."""
    rng = random.Random(20261018)
    for _ in range(4):
        m1, m2, r = random_vpa(rng), random_vpa(rng), random_fsa(rng)
        yield vpl_union(m1, m2)
        yield vpl_intersection(m1, m2)
        yield vpl_complement(m1)
        yield vpl_concat(m1, m2)
        yield vpl_star(m1)
        yield vpl_reverse(m1)
        yield shuffle(m1, r)
        yield relabel_image(m1, identity_relabeling(m1.alphabet))
        yield canonicalize(nvpa_from_vpa(m2))


def golden_regular_machines():
    """A fixed, seeded set of Fsa outputs: every regular closure,
    canonicalize on an Fsa and the reference subset construction, on
    inputs of one to five states whose moves are drawn with densities from
    0.3 to 1."""
    rng = random.Random(20261019)
    for i in range(10):
        density = 0.3 + 0.7 * i / 9
        m1 = random_fsa(rng, 1 + i % 5, alphabet=("a", "b", "c"), density=density)
        m2 = random_fsa(rng, 1 + (i * 2) % 5, alphabet=("a", "b", "c"), density=density)
        yield reg_union(m1, m2)
        yield reg_intersection(m1, m2)
        yield reg_complement(m1)
        yield reg_concat(m1, m2)
        yield reg_star(m1)
        yield reg_reverse(m1)
        yield reg_prefix(m1)
        yield reg_complement(reg_union(m1, reg_star(m2)))
        yield canonicalize(m1)
        yield reference_fsa_determinize(random_nfa(rng, 1 + i % 4, alphabet=("a", "b", "c"), density=0.2 + 0.05 * i))


def dumps_digest(machines) -> tuple:
    """The sha256 of the machines' dumps texts in order, and their kinds."""
    digest = hashlib.sha256()
    kinds = set()
    for m in machines:
        digest.update(dumps(m).encode())
        kinds.add(m.kind)
    return digest.hexdigest(), kinds


# ---------------------------------------------------------------------------
# reference serialization: the document built as a dict, printed by
# json.dumps(indent=2, sort_keys=True), rows sorted with key=json.dumps, and
# read back field by field.  The one-pass writer in nestword.serialize must
# print the same bytes, and its reader must return the same machines (it
# also rejects a string or object where an array is required, which this
# reader unpacks).


def _ref_jsonable(value):
    if isinstance(value, tuple):
        return [_ref_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise SerializationError(
        f"label {value!r} is not JSON-serializable; canonicalize() the machine first"
    )


def _ref_unjsonable(value):
    if isinstance(value, list):
        return tuple(_ref_unjsonable(v) for v in value)
    return value


def _ref_sorted_json(values) -> list:
    return sorted((_ref_jsonable(v) for v in values), key=lambda v: json.dumps(v))


def reference_to_doc(m) -> dict:
    j = _ref_jsonable
    if isinstance(m, Fsa):
        return {
            "kind": "fsa",
            "alphabet": [j(a) for a in m.alphabet],
            "states": _ref_sorted_json(m.states),
            "initial": j(m.initial),
            "accepts": _ref_sorted_json(m.accepts),
            "transitions": sorted(
                ([j(q), j(sym), j(dst)] for (q, sym), dst in m.delta.items()),
                key=json.dumps,
            ),
        }
    if isinstance(m, Pda):
        return {
            "kind": "pda",
            "alphabet": list(m.alphabet),
            "states": _ref_sorted_json(m.states),
            "stack_alphabet": _ref_sorted_json(m.stack_alphabet),
            "initial": j(m.initial),
            "bottom": j(m.bottom),
            "accepts": _ref_sorted_json(m.accepts),
            "transitions": sorted(
                (
                    [j(q), sym, j(g), j(dst), [j(p) for p in push]]
                    for (q, sym, g), (dst, push) in m.delta.items()
                ),
                key=json.dumps,
            ),
        }
    if isinstance(m, (Vpa, Nvpa)):
        calls, internals, returns = transition_rows(m)
        rows = [[j(q), token_str(TaggedSymbol(b, Tag.CALL)), j(dst), j(g)] for q, b, dst, g in calls]
        rows.extend([j(q), b, j(dst)] for q, b, dst in internals)
        rows.extend([j(q), token_str(TaggedSymbol(b, Tag.RETURN)), j(g), j(dst)] for q, b, g, dst in returns)
        doc = {
            "kind": m.kind,
            "alphabet": list(m.alphabet),
            "states": _ref_sorted_json(m.states),
            "stack_alphabet": _ref_sorted_json(m.stack_alphabet),
            "bottom": j(m.bottom),
            "accepts": _ref_sorted_json(m.accepts),
            "accept_stack": _ref_sorted_json(m.accept_stack),
            "transitions": sorted(rows, key=json.dumps),
        }
        if isinstance(m, Vpa):
            doc["initial"] = j(m.initial)
        else:
            doc["initials"] = _ref_sorted_json(m.initials)
        return doc
    raise SerializationError(f"cannot serialize {type(m).__name__}")


def reference_dumps(m) -> str:
    return json.dumps(reference_to_doc(m), indent=2, sort_keys=True) + "\n"


def _ref_label(value):
    label = _ref_unjsonable(value)
    hash(label)
    return label


def _ref_labels(values) -> frozenset:
    return frozenset(_ref_unjsonable(v) for v in values)


def _ref_field(doc: dict, name: str, convert=_ref_label):
    try:
        value = doc[name]
    except KeyError:
        raise SerializationError(f"{doc['kind']} document has no {name!r} field") from None
    try:
        return convert(value)
    except (LookupError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad {name!r} field in {doc['kind']} document: {exc}") from None


def _ref_vpa_deltas(rows) -> tuple:
    u = _ref_unjsonable
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}
    for row in rows:
        src = u(row[0])
        if not isinstance(row[1], str):
            raise TypeError(f"token {row[1]!r} is not a string")
        sym = parse_token(row[1])
        if sym.tag is Tag.CALL:
            _, _, dst, g = row
            delta_c.setdefault((src, sym.base), set()).add((u(dst), u(g)))
        elif sym.tag is Tag.INTERNAL:
            _, _, dst = row
            delta_i.setdefault((src, sym.base), set()).add(u(dst))
        else:
            _, _, g, dst = row
            delta_r.setdefault((src, sym.base, u(g)), set()).add(u(dst))
    return delta_c, delta_i, delta_r


def reference_from_doc(doc: dict):
    u, f = _ref_unjsonable, _ref_field
    try:
        kind = doc["kind"]
    except (TypeError, KeyError):
        raise SerializationError("document has no 'kind' field")
    if kind == "fsa":
        return Fsa(
            alphabet=f(doc, "alphabet", lambda v: tuple(map(_ref_label, v))),
            states=f(doc, "states", _ref_labels),
            initial=f(doc, "initial"),
            accepts=f(doc, "accepts", _ref_labels),
            delta=f(doc, "transitions", lambda rows: {(u(q), u(sym)): _ref_label(dst) for q, sym, dst in rows}),
        )
    if kind == "pda":
        return Pda(
            alphabet=f(doc, "alphabet", tuple),
            states=f(doc, "states", _ref_labels),
            stack_alphabet=f(doc, "stack_alphabet", _ref_labels),
            initial=f(doc, "initial"),
            bottom=f(doc, "bottom"),
            accepts=f(doc, "accepts", _ref_labels),
            delta=f(doc, "transitions", lambda rows: {
                (u(q), sym, u(g)): (_ref_label(dst), tuple(_ref_label(p) for p in push))
                for q, sym, g, dst, push in rows
            }),
        )
    if kind in ("vpa", "nvpa"):
        delta_c, delta_i, delta_r = f(doc, "transitions", _ref_vpa_deltas)
        common = dict(
            alphabet=f(doc, "alphabet", tuple),
            states=f(doc, "states", _ref_labels),
            stack_alphabet=f(doc, "stack_alphabet", _ref_labels),
            bottom=f(doc, "bottom"),
            accepts=f(doc, "accepts", _ref_labels),
            accept_stack=f(doc, "accept_stack", _ref_labels),
        )
        if kind == "nvpa":
            return Nvpa(
                initials=f(doc, "initials", _ref_labels),
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
            initial=f(doc, "initial"),
            delta_c={k: next(iter(v)) for k, v in delta_c.items()},
            delta_i={k: next(iter(v)) for k, v in delta_i.items()},
            delta_r={k: next(iter(v)) for k, v in delta_r.items()},
            **common,
        )
    raise SerializationError(f"unknown machine kind {kind!r}")


def reference_loads(text: str):
    return reference_from_doc(json.loads(text))


def wide_alphabet_machines() -> list:
    """A Vpa over 1,400 letters and its Nvpa embedding.  The rows from
    state "p" alone hold 4,200 distinct tokens, more than the token memo
    keeps (4,096), so reading either document restarts the memo mid-read,
    and the rows from "q" then parse again tokens read before."""
    letters = tuple(f"w{i}" for i in range(1400))
    m = Vpa(
        letters, {"p", "q"}, {"g"}, "$", "p", {"q"}, {"g"},
        delta_c={("p", a): ("q", "g") for a in letters},
        delta_i={(q, a): dst for a in letters for q, dst in (("p", "q"), ("q", "p"))},
        delta_r={(q, a, g): dst for a in letters for q, g, dst in (("p", "g", "q"), ("q", "$", "p"))},
    )
    return [m, nvpa_from_vpa(m)]


# Documents whose keys repeat, each read alike by `loads` and the
# reference reader: in the vpa every repeat targets a label equal to the
# first (2 and 2.0, 1 and true), and the last row of a key holds the other
# label, so only a reader that keeps the first target agrees; in the nvpa
# a key repeats with equal and with different targets.
_REPEAT_FIELDS = {"alphabet": ["a", "b"], "states": [1, 2], "stack_alphabet": ["g"], "bottom": "$",
                  "accepts": [2], "accept_stack": []}
REPEATED_KEY_DOCUMENTS = [
    json.dumps({"kind": "vpa", **_REPEAT_FIELDS, "initial": 1, "transitions": [
        [1, "<a", 2, "g"], [1, "a", 2], [1, "<a", 2, "g"], [1, "a", 2.0], [2, "b>", "g", 1],
        [1, "a", 2], [2, "b>", "$", 1], [1, "a", 2.0], [2, "b>", "g", True],
    ]}),
    json.dumps({"kind": "nvpa", **_REPEAT_FIELDS, "initials": [1], "transitions": [
        [1, "a", 2], [1, "a", 2.0], [1, "a", 1], [1, "a", 2], [1, "<a", 2, "g"], [1, "<a", 1, "g"],
        [1, "<a", 2, "g"], [2, "a>", "g", 1], [2, "a>", "g", True], [2, "a>", "g", 2], [2, "b", 1],
    ]}),
]


def reader_disagreement(text: str) -> str | None:
    """Where `loads` reads text differently from the reference reader, if
    anywhere: in the machine's type, its value, or the repr of a
    transition table's moves, which tells a kept label from an equal one
    of another type (1 from True)."""
    got, want = loads(text), reference_loads(text)
    if type(got) is not type(want) or got != want:
        return "loads differs from the reference"

    def moves(m, name) -> list:
        return sorted(map(repr, getattr(m, name).items()))

    for name in ("delta", "delta_c", "delta_i", "delta_r"):
        if hasattr(got, name) and moves(got, name) != moves(want, name):
            return f"loads keeps other labels in {name} than the reference"
    return None
