"""Seeded input generators for the benchmark workloads.

Every function draws from the `random.Random` it is given, so a seed fixes
the inputs.  Sizes are stratified: a block of generated items covers each
size band in fixed proportions and only the contents inside a band are
random, so the mix of a run does not depend on luck.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .oracles import CALL, INTERNAL, RETURN, FsaTable, Group, VpaTable, invert_free


def log_uniform_strata(rng, k: int, lo: float, hi: float) -> list:
    """One value from each of k equal bands of [log lo, log hi], in band order."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / k) for i in range(k)]


# ---------------------------------------------------------------------------
# group words


class GroupWord(NamedTuple):
    group: int  # index into oracles.wordproblem_groups()
    kind: str  # walk | wwinv | flip | random
    word: tuple
    depth: int  # nesting depth of the canonical tagging (0 when not trivial)
    flip: tuple | None  # (position fraction, which other tag) for kind "flip"


def _split(g: Group, n: int) -> tuple:
    """Free and finite letter counts for a word of about n letters."""
    if not g.finite:
        return n - n % 2, 0
    if not g.n:
        return 0, n
    nz = max(1, round(n * len(g.finite.names) / len(g.letters)))
    nf = n - nz
    if nf % 2:
        nf, nz = nf - 1, nz + 1
    return nf, nz


def _interleave(rng, free_slots, finite_slots) -> list:
    n = len(free_slots) + len(finite_slots)
    finite_at = set(rng.sample(range(n), len(finite_slots)))
    free_it, finite_it = iter(free_slots), iter(finite_slots)
    return [next(finite_it) if i in finite_at else next(free_it) for i in range(n)]


def _free_walk(rng, g: Group, nf: int) -> tuple:
    """A cancelling walk of even length nf: push or pop with equal odds."""
    stack, out, depth = [], [], 0
    for i in range(nf):
        if stack and (len(stack) == nf - i or rng.random() < 0.5):
            out.append(("f", invert_free(stack.pop())))
        else:
            top_inv = invert_free(stack[-1]) if stack else None
            a = rng.choice([x for x in g.free if x != top_inv])
            stack.append(a)
            out.append(("f", a))
            depth = max(depth, len(stack))
    return out, depth


def _reduced_free(rng, g: Group, k: int) -> list:
    out = []
    for _ in range(k):
        prev_inv = invert_free(out[-1][1]) if out else None
        out.append(("f", rng.choice([x for x in g.free if x != prev_inv])))
    return out


def trivial_walk(rng, g: Group, n: int) -> tuple:
    nf, nz = _split(g, n)
    free, depth = _free_walk(rng, g, nf)
    finite = []
    if nz:
        f = g.finite
        values = [f.value[rng.choice(f.names)] for _ in range(nz - 1)]
        acc = f.identity
        for v in values:
            acc = f.mul(acc, v)
        finite = [("g", v) for v in values + [f.inv(acc)]]
    return g.realize(_interleave(rng, free, finite)), depth


def trivial_wwinv(rng, g: Group, n: int) -> tuple:
    """u followed by its inverse: the free part nests to depth |u|_free."""
    nf, nz = _split(g, max(2, n // 2))
    free = _reduced_free(rng, g, nf)
    finite = [("g", g.finite.value[rng.choice(g.finite.names)]) for _ in range(nz)]
    u = g.realize(_interleave(rng, free, finite))
    return u + g.inverse_word(u), nf


def nontrivial(rng, g: Group, n: int) -> tuple:
    while True:
        word = tuple(rng.choice(g.letters) for _ in range(n))
        if g.tags(word) is None:
            return word


WORD_KINDS = ("walk", "wwinv", "flip", "random")
MIN_LEN, MAX_LEN = 4, 4096  # group word lengths


def group_word_block(rng, groups: list, index: int) -> list:
    """40 words: 4 kinds x 5 groups x 2 length bands, in shuffled order.

    Lengths come from 40 log-uniform strata of [MIN_LEN, MAX_LEN].  Each
    kind takes every fourth stratum, and each group one stratum from the
    lower and one from the upper half of each kind's share.  Which kind
    and group get the longest strata rotates with the block's `index`
    through all 20 combinations, the same way in every run.  Half the
    words are trivial by construction, a quarter are trivial words whose
    tagging is flipped at one position inside the operation, and a
    quarter are random non-trivial words.
    """
    k = 4 * 2 * len(groups)
    lengths = log_uniform_strata(rng, k, MIN_LEN, MAX_LEN)
    kind_shift = index % 4
    group_shift = index // 4 % len(groups)
    block = []
    for i, length in enumerate(lengths):
        n = max(MIN_LEN, round(length))
        kind = WORD_KINDS[(i + kind_shift) % 4]
        # one group per kind in each length band, rotated by kind so the
        # longest words of a block go to four different groups
        gi = (i // 4 + group_shift + 2 * (i % 4)) % len(groups)
        g = groups[gi]
        flip = None
        if kind == "random":
            word, depth = nontrivial(rng, g, n), 0
        elif kind == "walk" or (kind == "flip" and i % 8 < 4):
            word, depth = trivial_walk(rng, g, n)
        else:
            word, depth = trivial_wwinv(rng, g, n)
        if kind == "flip":
            flip = (rng.random(), rng.randrange(2))
        block.append(GroupWord(gi, kind, word, depth, flip))
    rng.shuffle(block)
    return block


def flip_at(flip: tuple, n: int) -> int:
    return int(flip[0] * n)


def other_tag(tag: int, choice: int) -> int:
    return [t for t in (CALL, INTERNAL, RETURN) if t != tag][choice]


# ---------------------------------------------------------------------------
# random machines


LETTERS = ("a", "b", "c")
REGULAR_LETTERS = ("d", "e")
VPA_DENSITY = 0.8  # chance that each VPA move is defined
FSA_DENSITY = 0.85  # chance that each FSA move is defined


def random_vpa(rng, n_states: int, n_letters: int, n_stack: int) -> VpaTable:
    states = [f"s{i}" for i in range(n_states)]
    stack = [f"g{i}" for i in range(n_stack)]
    alphabet = LETTERS[:n_letters]
    delta_c, delta_i, delta_r = {}, {}, {}
    for q in states:
        for a in alphabet:
            if rng.random() < VPA_DENSITY:
                delta_c[(q, a)] = (rng.choice(states), rng.choice(stack))
            if rng.random() < VPA_DENSITY:
                delta_i[(q, a)] = rng.choice(states)
            for g in stack + ["$"]:
                if rng.random() < VPA_DENSITY:
                    delta_r[(q, a, g)] = rng.choice(states)
    accepts = {q for q in states if rng.random() < 0.5} or {states[0]}
    accept_stack = {g for g in stack if rng.random() < 0.5}
    return VpaTable(alphabet, states, stack, states[0], accepts, accept_stack,
                    delta_c, delta_i, delta_r)


def random_fsa(rng, n_states: int) -> FsaTable:
    states = [f"r{i}" for i in range(n_states)]
    delta = {
        (q, a): rng.choice(states)
        for q in states
        for a in REGULAR_LETTERS
        if rng.random() < FSA_DENSITY
    }
    accepts = {q for q in states if rng.random() < 0.5} or {states[0]}
    return FsaTable(REGULAR_LETTERS, states, states[0], accepts, delta)


def random_pair_fsa(rng, letters) -> tuple:
    """A functional relabeling over `letters`: (pairs, delta, initial, accepts)."""
    states = ("p0", "p1")
    delta = {(p, (a, rng.choice(letters))): rng.choice(states) for p in states for a in letters}
    pairs = tuple(dict.fromkeys(pair for _, pair in delta))
    accepts = {p for p in states if rng.random() < 0.7} or {"p0"}
    return pairs, delta, "p0", accepts


def size_grid(rng, count: int) -> list:
    """`count` (states, letters, stack symbols) triples covering 3-7 states
    evenly, with letters 2-3 and stack symbols 1-3 cycling."""
    sizes = []
    for i in range(count):
        sizes.append((3 + i % 5, 2 + (i // 5) % 2, 1 + (i + i // 5) % 3))
    rng.shuffle(sizes)
    return sizes


# ---------------------------------------------------------------------------
# walks on machines: query words whose runs survive


def walk(rng, m: VpaTable, length: int, depth: int) -> tuple:
    """A tagged word read by m without dying, reaching nesting depth `depth`.

    Calls are favoured until the stack first reaches `depth`, then the
    walk wanders below it.  Returns (word, depth reached); the word is
    shorter than asked when m has no move left.
    """
    state, stack, word, reached = m.initial, [], [], 0
    for _ in range(length):
        moves = []
        if len(stack) < depth:
            w = 3 if reached < depth else 1
            moves += [(w, a, CALL) for a in m.alphabet if (state, a) in m.delta_c]
        moves += [(1, a, INTERNAL) for a in m.alphabet if (state, a) in m.delta_i]
        if stack:
            moves += [(1, a, RETURN) for a in m.alphabet if (state, a, stack[-1]) in m.delta_r]
        if not moves:
            break
        _, base, tag = rng.choices(moves, weights=[w for w, _, _ in moves])[0]
        state = m.step(state, stack, base, tag)
        word.append((base, tag))
        reached = max(reached, len(stack))
    return tuple(word), reached


# ---------------------------------------------------------------------------
# input documents in the library's JSON automaton format


def vpa_doc(m: VpaTable) -> str:
    rows = [[q, "<" + a, d, g] for (q, a), (d, g) in m.delta_c.items()]
    rows += [[q, a, d] for (q, a), d in m.delta_i.items()]
    rows += [[q, a + ">", g, d] for (q, a, g), d in m.delta_r.items()]
    return json.dumps({
        "kind": "vpa", "alphabet": list(m.alphabet), "states": list(m.states),
        "stack_alphabet": list(m.stack), "bottom": m.bottom, "initial": m.initial,
        "accepts": sorted(m.accepts), "accept_stack": sorted(m.accept_stack),
        "transitions": rows,
    })


def fsa_doc(alphabet, states, initial, accepts, delta) -> str:
    """Tuple letters (relabeling pairs) become JSON arrays."""
    return json.dumps({
        "kind": "fsa", "alphabet": [list(a) if isinstance(a, tuple) else a for a in alphabet],
        "states": list(states), "initial": initial, "accepts": sorted(accepts),
        "transitions": [[q, list(a) if isinstance(a, tuple) else a, d] for (q, a), d in delta.items()],
    })
