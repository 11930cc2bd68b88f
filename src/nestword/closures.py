"""Closure constructions for regular languages and VPLs.

Regular operations return deterministic FSAs holding only the states a run
reaches: products, complement and prefix read a missing move as a dead
state, never a materialized sink, and nondeterministic intermediates are
determinized over reached subsets.  VPL union/intersection/complement, and
through `canonicalize` concatenation, star and reversal, come from one
search (`machines.reached_vpa`): a worklist over (state, stack top) pairs
that keeps only the states, stack symbols and moves a run can reach, and a
return only at a pair it reaches.  Tags keep both stacks of a product in
lockstep.  Intersection takes its inputs as they are; union and complement
complete theirs and make acceptance state-only, normalizing only when some
stack symbol is unacceptable.  Concatenation, star, and reversal return
NVPAs whose membership is decided by the summary run (`nvpa_run`: one
frame per pending call, mapping each entry to a bitmask of states, at any
depth); prefix-closure membership is decided directly by saturation
instead of building a machine, and the same summaries decide emptiness and
equivalence of VPAs exactly (`vpa_is_empty`, `vpl_equivalent`).

Every output but `shuffle`'s and `relabel_image`'s has canonical q0/q1...
names; those two keep their structured product states for callers to name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .machines import (
    Fsa,
    Nfa,
    Nvpa,
    Vpa,
    add_move,
    canonicalize,
    fsa_determinize,
    reached_fsa,
    reached_vpa,
    vpa_complete,
    vpa_lookup,
    vpa_normalize_acceptance,
    vpa_run,
)
from .words import Tag, TaggedSymbol, TaggedWord, all_plain_words


class AlphabetMismatch(ValueError):
    pass


class NonDisjointAlphabets(ValueError):
    pass


def _require_same_alphabet(m1, m2) -> tuple:
    if set(m1.alphabet) != set(m2.alphabet):
        raise AlphabetMismatch(f"{m1.alphabet!r} vs {m2.alphabet!r}")
    return m1.alphabet


def _reaching(targets, edges) -> frozenset:
    """`targets` and every state with a path into them along `edges`,
    given as (src, dst) pairs."""
    backward: dict = {}
    for src, dst in edges:
        backward.setdefault(dst, set()).add(src)
    reach = set(targets)
    todo = deque(reach)
    while todo:
        q = todo.popleft()
        for p in backward.get(q, ()):
            if p not in reach:
                reach.add(p)
                todo.append(p)
    return frozenset(reach)


# ---------------------------------------------------------------------------
# regular closures


# Where a run of a regular input has no move: a state of the completed
# input that moves only to itself and accepts nothing.
_DEAD = object()


def _fsa_product(m1: Fsa, m2: Fsa, keep) -> Fsa:
    """The part of the product of the completed inputs that a run reaches."""
    d1, d2 = m1.delta, m2.delta
    return reached_fsa(
        _require_same_alphabet(m1, m2),
        (m1.initial, m2.initial),
        lambda pair, a: (d1.get((pair[0], a), _DEAD), d2.get((pair[1], a), _DEAD)),
        lambda pair: keep(pair[0] in m1.accepts, pair[1] in m2.accepts),
    )


def reg_union(m1: Fsa, m2: Fsa) -> Fsa:
    return _fsa_product(m1, m2, lambda a, b: a or b)


def reg_intersection(m1: Fsa, m2: Fsa) -> Fsa:
    return _fsa_product(m1, m2, lambda a, b: a and b)


def reg_complement(m: Fsa) -> Fsa:
    """The reached part of the completed m, its accepting states flipped."""
    return reached_fsa(
        m.alphabet, m.initial, lambda q, a: m.delta.get((q, a), _DEAD), lambda q: q not in m.accepts
    )


def reg_concat(m1: Fsa, m2: Fsa) -> Fsa:
    alphabet = _require_same_alphabet(m1, m2)
    states = {("1", q) for q in m1.states} | {("2", q) for q in m2.states}
    delta: dict = {}
    for (q, a), dst in m1.delta.items():
        delta[(("1", q), a)] = {("1", dst)}
    for (q, a), dst in m2.delta.items():
        delta[(("2", q), a)] = {("2", dst)}
    for y in m1.accepts:
        add_move(delta, (("1", y), None), ("2", m2.initial))
    nfa = Nfa(
        alphabet,
        frozenset(states),
        frozenset({("1", m1.initial)}),
        frozenset(("2", y) for y in m2.accepts),
        delta,
    )
    return fsa_determinize(nfa)


def reg_star(m: Fsa) -> Fsa:
    start = ("star", None)
    states = {("m", q) for q in m.states} | {start}
    delta: dict = {((("m", q)), a): {("m", dst)} for (q, a), dst in m.delta.items()}
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
    return fsa_determinize(nfa)


def reg_reverse(m: Fsa) -> Fsa:
    delta: dict = {}
    for (q, a), dst in m.delta.items():
        add_move(delta, (dst, a), q)
    nfa = Nfa(m.alphabet, m.states, m.accepts, frozenset({m.initial}), delta)
    return fsa_determinize(nfa)


def reg_prefix(m: Fsa) -> Fsa:
    """Every state that can reach an accept state becomes accepting."""
    reach = _reaching(m.accepts, ((q, dst) for (q, _), dst in m.delta.items()))
    return reached_fsa(m.alphabet, m.initial, lambda q, a: m.delta.get((q, a)), reach.__contains__)


# ---------------------------------------------------------------------------
# VPL boolean closures (deterministic products, reachable part only)


def _vpa_product(m1: Vpa, m2: Vpa, keep) -> Vpa:
    """The reachable product: a move exists where both machines have one,
    so a missing move on either side rejects.  A pair state accepts when
    `keep` does on its two states' verdicts; a stack pair is acceptable
    when both of its symbols are."""
    alphabet = _require_same_alphabet(m1, m2)
    c1, i1, r1 = m1.delta_c, m1.delta_i, m1.delta_r
    c2, i2, r2 = m2.delta_c, m2.delta_i, m2.delta_r

    def call(key) -> tuple:
        (p, q), a = key
        move1, move2 = c1.get((p, a)), c2.get((q, a))
        if move1 is None or move2 is None:
            return ()
        return (((move1[0], move2[0]), (move1[1], move2[1])),)

    def internal(key) -> tuple:
        (p, q), a = key
        d1, d2 = i1.get((p, a)), i2.get((q, a))
        return () if d1 is None or d2 is None else ((d1, d2),)

    def ret(key) -> tuple:
        (p, q), a, (g1, g2) = key
        d1, d2 = r1.get((p, a, g1)), r2.get((q, a, g2))
        return () if d1 is None or d2 is None else ((d1, d2),)

    return reached_vpa(
        Vpa,
        alphabet,
        ((m1.initial, m2.initial),),
        (m1.bottom, m2.bottom),
        call,
        internal,
        ret,
        lambda state: keep(state[0] in m1.accepts, state[1] in m2.accepts),
        lambda top: top[0] in m1.accept_stack and top[1] in m2.accept_stack,
    )


def _total_state_acceptance(m: Vpa) -> Vpa:
    """m completed, with state-only acceptance: normalized unless every
    stack symbol is already acceptable."""
    c = vpa_complete(m)
    return c if c.accept_stack >= c.stack_alphabet else vpa_normalize_acceptance(c)


def vpl_union(m1: Vpa, m2: Vpa) -> Vpa:
    """Both machines run to the end of every word, so each is completed;
    each accepts by state alone, so a pair accepts when either side does."""
    return _vpa_product(
        _total_state_acceptance(m1), _total_state_acceptance(m2), lambda a, b: a or b
    )


def vpl_intersection(m1: Vpa, m2: Vpa) -> Vpa:
    """A run dying on either side rejects, and both stack conditions hold
    exactly when every pushed pair is acceptable on both sides, so the
    inputs are used as they are."""
    return _vpa_product(m1, m2, lambda a, b: a and b)


def vpl_complement(m: Vpa) -> Vpa:
    """Complete, make acceptance state-only, then swap accept states."""
    n = _total_state_acceptance(m)
    return reached_vpa(
        Vpa, n.alphabet, (n.initial,), n.bottom,
        vpa_lookup(n.delta_c), vpa_lookup(n.delta_i), vpa_lookup(n.delta_r),
        lambda q: q not in n.accepts, n.accept_stack.__contains__,
    )


# ---------------------------------------------------------------------------
# VPL concatenation / star / reversal (nondeterministic gluings)


def vpl_concat(m1: Vpa, m2: Vpa) -> Nvpa:
    """Guess the split point at accepting configurations of m1.

    Both machines are acceptance-normalized, so "m1 accepts here" is a
    state predicate.  Stack symbols carry their phase; once the run is in
    phase 2, a return that finds a phase-1 symbol (or the true bottom)
    behaves as m2 reading its own bottom, popping the dead symbol.
    """
    alphabet = _require_same_alphabet(m1, m2)
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
    return canonicalize(
        Nvpa(
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
    )


def vpl_star(m: Vpa) -> Nvpa:
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
    return canonicalize(
        Nvpa(
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
    )


def vpl_reverse(m: Vpa) -> Nvpa:
    """Run m backwards: reversed transitions with call and return roles swapped.

    Reading a call of the reversed word undoes a return step of m, pushing
    a guess of the symbol that step popped (or a marker when it read m's
    bottom); reading a return undoes a call step and checks the guess.
    Pending calls of the input correspond to returns m never matched, so
    the marker is the only symbol allowed to survive; pending returns
    correspond to m's never-popped pushes, which must satisfy m's stack
    acceptance condition.
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
    return canonicalize(
        Nvpa(
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
    )


# ---------------------------------------------------------------------------
# prefix-closure membership by saturation


class PrefixDecider:
    """Decides membership in the prefix closure of L(m).

    Precomputes summary pairs (q, q') connected by some well-matched word
    (net-zero stack effect, never dipping below the starting level), the
    states from which acceptance is reachable without popping below the
    current level (`tail`), and those that may also use bottom reads
    (`tail_bottom`).  A query runs m on the word, then walks pop edges
    (`returns`, keyed by state and stack top) down the run's final stack
    through those sets.
    """

    def __init__(self, m: Vpa):
        self.m = m
        self.returns: dict = {}  # (state, stack top) -> return targets
        for (q, _, g), dst in m.delta_r.items():
            self.returns.setdefault((q, g), set()).add(dst)
        self.summaries = self._well_matched_pairs()
        summary_edges = [(q, dst) for q, targets in self.summaries.items() for dst in targets]
        # acceptance via summaries and never-popped pushes of acceptable symbols
        pushes = [(q, dst) for (q, _), (dst, g) in m.delta_c.items() if g in m.accept_stack]
        self.tail = _reaching(m.accepts, summary_edges + pushes)
        # `tail` via summaries and bottom reads
        bottom_reads = [(q, dst) for (q, _, g), dst in m.delta_r.items() if g == m.bottom]
        self.tail_bottom = _reaching(self.tail, summary_edges + bottom_reads)

    def _well_matched_pairs(self) -> dict:
        """Summary-edge saturation by worklist (Reps, Horwitz and Sagiv).

        Each pair (q, q1) is expanded once.  A call move of q1 into `inner`
        pushing g subscribes q to `exits[(inner, g)]`, the states that a
        return on g leads to from some state `inner` reaches; adding a pair
        (inner, p) grows those exits and wakes every subscriber.
        """
        m = self.m
        returns = self.returns
        internals: dict = {}
        calls: dict = {}
        for (q, _), dst in m.delta_i.items():
            internals.setdefault(q, set()).add(dst)
        for (q, _), move in m.delta_c.items():
            calls.setdefault(q, set()).add(move)
        reach = {q: {q} for q in m.states}
        exits: dict = {}  # (inner, g) -> return targets
        callers: dict = {}  # (inner, g) -> subscribed states
        pushed: dict = {}  # inner -> the g of its keys
        todo = [(q, q) for q in m.states]

        def add(q, dst) -> None:
            if dst not in reach[q]:
                reach[q].add(dst)
                todo.append((q, dst))

        while todo:
            q, q1 = todo.pop()
            for dst in internals.get(q1, ()):
                add(q, dst)
            for key in calls.get(q1, ()):
                if key not in exits:
                    inner, g = key
                    exits[key] = {d for p in reach[inner] for d in returns.get((p, g), ())}
                    callers[key] = set()
                    pushed.setdefault(inner, []).append(g)
                if q not in callers[key]:
                    callers[key].add(q)
                    for dst in exits[key]:
                        add(q, dst)
            for g in pushed.get(q, ()):
                found = exits[(q, g)]
                for dst in returns.get((q1, g), ()):
                    if dst not in found:
                        found.add(dst)
                        for caller in callers[(q, g)]:
                            add(caller, dst)
        return reach

    def member(self, tw: TaggedWord) -> bool:
        run = vpa_run(self.m, tw)
        if run.stack is None:
            return False
        state, stack = run.state, run.stack
        current = set(self.summaries[state])
        acceptable_below = [True]
        for g in stack[1:]:
            acceptable_below.append(acceptable_below[-1] and g in self.m.accept_stack)
        for level in range(len(stack) - 1, 0, -1):
            if acceptable_below[level] and current & self.tail:
                return True
            popped = set()
            for q in current:
                popped.update(self.returns.get((q, stack[level]), ()))
            current = set()
            for q in popped:
                current |= self.summaries[q]
            if not current:
                return False
        return bool(current & self.tail_bottom)


# ---------------------------------------------------------------------------
# exact decisions


def vpa_is_empty(m: Vpa) -> bool:
    """Is L(m) empty?  Decided exactly by summary saturation: no accepting
    configuration is reachable from the initial state on the bottom."""
    return m.initial not in PrefixDecider(m).tail_bottom


def vpl_equivalent(m1: Vpa, m2: Vpa) -> bool:
    """Is L(m1) = L(m2)?  Decided exactly as emptiness of the product that
    accepts where exactly one side does."""
    xor = _vpa_product(
        _total_state_acceptance(m1), _total_state_acceptance(m2), lambda a, b: a != b
    )
    return vpa_is_empty(xor)


# ---------------------------------------------------------------------------
# shuffle with a regular language


def shuffle(m: Vpa, r: Fsa) -> Vpa:
    """Product machine for the interleavings of L(m) with the all-internal
    image of L(r); the regular letters never touch the stack."""
    if set(m.alphabet) & set(r.alphabet):
        raise NonDisjointAlphabets(f"{m.alphabet!r} overlaps {r.alphabet!r}")
    alphabet = tuple(m.alphabet) + tuple(r.alphabet)
    states = {(s, t) for s in m.states for t in r.states}
    delta_c = {}
    delta_i = {}
    delta_r = {}
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
        alphabet=alphabet,
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


# ---------------------------------------------------------------------------
# finite re-labeling


@dataclass
class Relabeling:
    """A letter substitution whose graph is an FSA over base-letter pairs.

    The pair FSA reads (input letter, output letter) pairs; tags are not
    consulted and are copied through, so lengths and matching relations are
    preserved by construction.  The map is required to be functional
    (at most one output word per input word), which `is_functional` checks
    by enumeration up to a length bound.
    """

    pair_fsa: Fsa

    def __post_init__(self):
        for sym in self.pair_fsa.alphabet:
            if not (isinstance(sym, tuple) and len(sym) == 2):
                raise ValueError(f"pair FSA symbol {sym!r} is not a letter pair")
        edges: dict = {}  # (pair state, input letter) -> [(output letter, next pair state)]
        for (p, (a_in, b_out)), dst in self.pair_fsa.delta.items():
            edges.setdefault((p, a_in), []).append((b_out, dst))
        self._edges = edges

    def input_letters(self) -> tuple:
        return tuple(sorted({a for a, _ in self.pair_fsa.alphabet}))

    def apply(self, tw: TaggedWord) -> list:
        """All relabelings of tw accepted by the pair FSA (tags copied), in
        depth-first order; one edge iterator per open position, no recursion."""
        accepts, edges = self.pair_fsa.accepts, self._edges
        if not tw:
            return [()] if self.pair_fsa.initial in accepts else []
        results = []
        out: list = []  # the output letters of positions before the top iterator's
        moves = [iter(edges.get((self.pair_fsa.initial, tw[0].base), ()))]
        while moves:
            i = len(out)
            for b_out, dst in moves[-1]:
                out.append(TaggedSymbol(b_out, tw[i].tag))
                if i + 1 < len(tw):
                    moves.append(iter(edges.get((dst, tw[i + 1].base), ())))
                    break
                if dst in accepts:
                    results.append(tuple(out))
                out.pop()
            else:
                moves.pop()
                if out:
                    out.pop()
        return results

    def is_functional(self, max_len: int = 6) -> bool:
        letters = self.input_letters()
        for word in all_plain_words(letters, max_len):
            tw = tuple(TaggedSymbol(a, Tag.INTERNAL) for a in word)
            if len(self.apply(tw)) > 1:
                return False
        return True


def relabel_image(m: Vpa, phi: Relabeling) -> Nvpa:
    """Machine for the image of L(m) under phi, reading output letters.

    A transition on output letter b exists wherever some input letter a with
    the same tag has both a pair-FSA move on (a, b) and an m-move on a.
    """
    pfsa = phi.pair_fsa
    alphabet = tuple(m.alphabet)
    letters = set(alphabet)
    for a_in, b_out in pfsa.alphabet:
        if a_in not in letters or b_out not in letters:
            raise AlphabetMismatch(f"pair ({a_in!r},{b_out!r}) outside machine alphabet")
    pair_moves = phi._edges
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

    states = {(q, p) for q in m.states for p in pfsa.states}
    return Nvpa(
        alphabet=alphabet,
        states=frozenset(states),
        stack_alphabet=m.stack_alphabet,
        bottom=m.bottom,
        initials=frozenset({(m.initial, pfsa.initial)}),
        accepts=frozenset((y, p) for y in m.accepts for p in pfsa.accepts),
        accept_stack=m.accept_stack,
        delta_c=delta_c,
        delta_i=delta_i,
        delta_r=delta_r,
    )
