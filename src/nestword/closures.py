"""Closure constructions for regular languages and VPLs.

Regular operations return deterministic FSAs holding only the states a run
reaches: products, complement and prefix read a missing move as a dead
state, never a materialized sink, and concatenation, star and reversal are
subset constructions that read their inputs' tables directly, with no NFA
in between.  Every VPL closure, shuffle and re-labeling included, is one
search (`machines.reached_vpa`) over lookups into its inputs, each called
with a state, a letter and, for a return, the stack top, with no machine
in between: a worklist over (state, stack top) pairs that keeps only the
states, stack symbols and moves a run can reach, and a return only at a
pair it reaches.  Tags keep both stacks of a product in lockstep.
Intersection reads its inputs as they are; union and complement read a
missing move as a dead state, and flag each state with "every pushed
symbol is acceptable".  Shuffle pairs a run of the VPA with one of the
FSA, and a re-labeling image a run with one of the pair FSA.
Concatenation, star, reversal and re-labeling return NVPAs whose
membership is decided by the summary run (`nvpa_run`: one frame per
pending call, mapping each entry to a bitmask of states, at any depth);
prefix-closure membership is decided directly by saturation instead of
building a machine, and the same summaries decide emptiness and
equivalence of VPAs exactly (`vpa_is_empty`, `vpl_equivalent`).

Every output has canonical q0/q1... names.
"""

from __future__ import annotations

import functools
from collections import deque, namedtuple
from dataclasses import dataclass

from .machines import (
    Fsa,
    Nvpa,
    Vpa,
    _repr_ordered,
    _vpa_end,
    add_move,
    reached_fsa,
    reached_vpa,
)
from .words import TaggedSymbol, TaggedWord


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


# Where a run of an input has no move: a state (and a VPA's stack symbol) of
# the completed input that moves only to itself and accepts nothing.
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


def _moved(delta: dict, states, a) -> set:
    """Where an FSA's moves on a take `states`, missing moves dropped."""
    return {dst for q in states if (dst := delta.get((q, a))) is not None}


def reg_concat(m1: Fsa, m2: Fsa) -> Fsa:
    """Subsets of the runs of m1 and then m2: a state is m1's state, or
    None once its run dies, and the set of states m2's runs are in.  An
    accepting m1 state starts a run of m2."""
    alphabet = _require_same_alphabet(m1, m2)

    def glued(p, runs: set):
        if p in m1.accepts:
            runs.add(m2.initial)
        return (p, frozenset(runs)) if p is not None or runs else None

    def step(state, a):
        p, runs = state
        return glued(m1.delta.get((p, a)), _moved(m2.delta, runs, a))

    return reached_fsa(alphabet, glued(m1.initial, set()), step, lambda state: not m2.accepts.isdisjoint(state[1]))


def reg_star(m: Fsa) -> Fsa:
    """Subsets of m's runs, a fresh run starting wherever one accepts.  The
    start is a state of its own, which accepts."""
    start = object()

    def step(runs, a):
        runs = _moved(m.delta, (m.initial,) if runs is start else runs, a)
        if not m.accepts.isdisjoint(runs):
            runs.add(m.initial)
        return frozenset(runs) or None

    return reached_fsa(m.alphabet, start, step, lambda runs: runs is start or not m.accepts.isdisjoint(runs))


def reg_reverse(m: Fsa) -> Fsa:
    """Subsets of m's runs read backwards from its accept states; a subset
    accepts when it holds m's initial state."""
    back: dict = {}  # (state, letter) -> the states whose move on it leads there
    for (q, a), dst in m.delta.items():
        add_move(back, (dst, a), q)

    def step(runs, a):
        return frozenset(q for dst in runs for q in back.get((dst, a), ())) or None

    return reached_fsa(m.alphabet, m.accepts, step, lambda runs: m.initial in runs)


def reg_prefix(m: Fsa) -> Fsa:
    """Every state that can reach an accept state becomes accepting."""
    reach = _reaching(m.accepts, ((q, dst) for (q, _), dst in m.delta.items()))
    return reached_fsa(m.alphabet, m.initial, lambda q, a: m.delta.get((q, a)), reach.__contains__)


# ---------------------------------------------------------------------------
# VPL closures: one search (`reached_vpa`) over lookups into the inputs


def _anything(_) -> bool:
    return True


# A Vpa as the Boolean closures read it: each table as a getter from a
# key to its one move, or None where the view has none.
_Lookups = namedtuple("_Lookups", "initial bottom calls internals returns accepting acceptable")


def _as_is(m: Vpa) -> _Lookups:
    return _Lookups(
        m.initial, m.bottom, m.delta_c.get, m.delta_i.get, m.delta_r.get,
        m.accepts.__contains__, m.accept_stack.__contains__,
    )


def _state_only(m: Vpa) -> _Lookups:
    """m completed, accepting by state alone: a missing move goes to
    `_DEAD`, which accepts nothing, moves only to itself and pushes `_DEAD`,
    an acceptable symbol.  States and pushed symbols carry the flag of
    `_flagged_call`, and the bottom is (m.bottom,), which no flagged symbol
    (g, ok) equals.  Every key has a move."""
    i, r = m.delta_i.get, m.delta_r.get
    bottom = (m.bottom,)

    def calls(key) -> tuple:
        (q, ok), a = key
        return _flagged_call(m, q, ok, a) or ((_DEAD, ok), (_DEAD, ok))

    def internals(key) -> tuple:
        (q, ok), a = key
        return i((q, a), _DEAD), ok

    def returns(key) -> tuple:
        (q, ok), a, top = key
        g, ok = (m.bottom, ok) if top == bottom else top
        return r((q, a, g), _DEAD), ok

    return _Lookups(
        (m.initial, True), bottom, calls, internals, returns,
        lambda state: state[1] and state[0] in m.accepts, _anything,
    )


def _state_only_cached(m: Vpa) -> _Lookups:
    """`_state_only(m)`, each move computed once per key: the pair states
    of a product share their states."""
    v = _state_only(m)
    return v._replace(
        calls=functools.cache(v.calls), internals=functools.cache(v.internals), returns=functools.cache(v.returns)
    )


def _vpa_product(m1: Vpa, m2: Vpa, view, keep) -> Vpa:
    """The reachable product of `view` of each input: a move exists where
    both views have one.  A pair state accepts when `keep` does on its two
    verdicts; a stack pair is acceptable when both symbols are."""
    alphabet = _require_same_alphabet(m1, m2)
    v1, v2 = view(m1), view(m2)
    c1, i1, r1, c2, i2, r2 = v1.calls, v1.internals, v1.returns, v2.calls, v2.internals, v2.returns

    def calls(state, a) -> tuple:
        p, q = state
        move1, move2 = c1((p, a)), c2((q, a))
        if move1 is None or move2 is None:
            return ()
        return (((move1[0], move2[0]), (move1[1], move2[1])),)

    def internals(state, a) -> tuple:
        p, q = state
        d1, d2 = i1((p, a)), i2((q, a))
        return () if d1 is None or d2 is None else ((d1, d2),)

    def returns(state, a, top) -> tuple:
        (p, q), (g1, g2) = state, top
        d1, d2 = r1((p, a, g1)), r2((q, a, g2))
        return () if d1 is None or d2 is None else ((d1, d2),)

    return reached_vpa(
        Vpa, alphabet, ((v1.initial, v2.initial),), (v1.bottom, v2.bottom), calls, internals, returns,
        lambda state: keep(v1.accepting(state[0]), v2.accepting(state[1])),
        lambda top: v1.acceptable(top[0]) and v2.acceptable(top[1]),
    )


def vpl_union(m1: Vpa, m2: Vpa) -> Vpa:
    """Both machines run to the end of every word, so each is completed;
    each accepts by state alone, so a pair accepts when either side does."""
    return _vpa_product(m1, m2, _state_only_cached, lambda a, b: a or b)


def vpl_intersection(m1: Vpa, m2: Vpa) -> Vpa:
    """A run dying on either side rejects, and both stack conditions hold
    exactly when every pushed pair is acceptable on both sides, so the
    inputs are read as they are."""
    return _vpa_product(m1, m2, _as_is, lambda a, b: a and b)


def vpl_complement(m: Vpa) -> Vpa:
    """m completed and accepting by state alone, its accept states swapped."""
    v = _state_only(m)
    return reached_vpa(
        Vpa, m.alphabet, (v.initial,), v.bottom, lambda q, a: (v.calls((q, a)),),
        lambda q, a: (v.internals((q, a)),), lambda q, a, top: (v.returns((q, a, top)),),
        lambda q: not v.accepting(q), v.acceptable,
    )


# ---------------------------------------------------------------------------
# VPL concatenation / star / reversal (nondeterministic gluings)


def _in_repr_order(found: set):
    """An Nvpa key's choices, None (no move) dropped, in repr order, as
    canonicalize would take them."""
    found.discard(None)
    return sorted(found, key=repr) if len(found) > 1 else tuple(found)


def _glued(followed, step):
    """A reached_vpa lookup for states that each follow some runs of the
    inputs (`followed`): a key's choices are what `step` gives each run."""

    def choices(state, *rest):
        runs = followed(state)
        if len(runs) == 1:
            move = step(runs[0], *rest)
            return () if move is None else (move,)
        return _in_repr_order({step(run, *rest) for run in runs})

    return choices


def _flagged_call(m: Vpa, q, ok: bool, a):
    """m's call from (q, ok) on a, or None, m read acceptance-normalized:
    ok says "every pushed symbol is acceptable", a call saves it in the
    symbol (g, ok) it pushes and the return popping that restores it, so
    m accepts at (q, ok) when ok and q in m.accepts."""
    move = m.delta_c.get((q, a))
    if move is None:
        return None
    dst, g = move
    return (dst, ok and g in m.accept_stack), (g, ok)


def vpl_concat(m1: Vpa, m2: Vpa) -> Nvpa:
    """Guess the split point at accepting configurations of m1.

    States and stack symbols are (phase, flagged label).  The split is
    folded into the next symbol: an accepting phase-1 state also moves as
    m2 would from its initial state.  Once the run is in phase 2, a
    return that finds a phase-1 symbol (or the true bottom) behaves as m2
    reading its own bottom, popping the dead symbol; a phase-1 state never
    has a phase-2 symbol on top.
    """
    alphabet = _require_same_alphabet(m1, m2)
    machine = {"1": m1, "2": m2}
    start1, start2 = ("1", (m1.initial, True)), ("2", (m2.initial, True))

    def followed(state) -> tuple:
        phase, (q, ok) = state
        return (state, start2) if phase == "1" and ok and q in m1.accepts else (state,)

    def call(run, a):
        phase, (q, ok) = run
        move = _flagged_call(machine[phase], q, ok, a)
        return None if move is None else ((phase, move[0]), (phase, move[1]))

    def internal(run, a):
        phase, (q, ok) = run
        dst = machine[phase].delta_i.get((q, a))
        return None if dst is None else (phase, (dst, ok))

    def ret(run, a, top):
        phase, (q, ok) = run
        m = machine[phase]
        g, flag = (m.bottom, ok) if top == "$" or top[0] != phase else top[1]
        dst = m.delta_r.get((q, a, g))
        return None if dst is None else (phase, (dst, flag))

    def accepting(state) -> bool:
        phase, (q, ok) = state
        return ok and (q in m2.accepts if phase == "2" else q in m1.accepts and m2.initial in m2.accepts)

    initials = (start1, start2) if m1.initial in m1.accepts else (start1,)
    return reached_vpa(
        Nvpa, alphabet, initials, "$", _glued(followed, call), _glued(followed, internal),
        _glued(followed, ret), accepting, _anything,
    )


def vpl_star(m: Vpa) -> Nvpa:
    """Iterated concatenation: restart at accepting states, nondeterministically.

    States are "start" and (s, b) for a flagged state s and a bit b, "a
    restart happened since the symbol now on top was pushed"; each push
    saves the current bit into the pushed symbol and a pop ORs the saved
    bit back in.  A pop with bit 0 is a same-iteration pop and uses the
    real symbol; with bit 1 the symbol is dead (pushed in an earlier
    iteration), so the machine reads its bottom instead.  An accepting
    state also moves as a fresh iteration would, with bit 1.
    """
    fresh = (m.initial, True)

    def followed(state) -> tuple:
        if state == "start":
            return ((fresh, 0), (fresh, 1)) if m.initial in m.accepts else ((fresh, 0),)
        (q, ok), _ = state
        return (state, (fresh, 1)) if ok and q in m.accepts else (state,)

    def call(run, a):
        (q, ok), b = run
        move = _flagged_call(m, q, ok, a)
        return None if move is None else ((move[0], 0), (move[1], b))

    def internal(run, a):
        (q, ok), b = run
        dst = m.delta_i.get((q, a))
        return None if dst is None else ((dst, ok), b)

    def ret(run, a, top):
        (q, ok), b = run
        if top == "$" or b:
            dst, flag, bit = m.delta_r.get((q, a, m.bottom)), ok, b
        else:
            (g, flag), bit = top
            dst = m.delta_r.get((q, a, g))
        return None if dst is None else ((dst, flag), bit)

    return reached_vpa(
        Nvpa, m.alphabet, ("start",), "$", _glued(followed, call), _glued(followed, internal),
        _glued(followed, ret), lambda state: state == "start" or state[0][1] and state[0][0] in m.accepts,
        _anything,
    )


def vpl_reverse(m: Vpa) -> Nvpa:
    """Run m backwards: reversed transitions with call and return roles swapped.

    Reading a call of the reversed word undoes a return step of m, pushing
    a guess of the symbol that step popped (or a marker when it read m's
    bottom); reading a return undoes a call step and checks the guess.
    Pending calls of the input correspond to returns m never matched, so
    the marker is the only symbol allowed to survive; pending returns
    correspond to m's never-popped pushes, which must satisfy m's stack
    acceptance condition.  The moves are indexed by target, each key's
    choices taken in repr order.
    """
    mark = "mark"
    calls, internals, returns = {}, {}, {}
    for (q, a, g), dst in m.delta_r.items():
        add_move(calls, (dst, a), (q, mark if g == m.bottom else ("sym", g)))
    for (q, a), dst in m.delta_i.items():
        add_move(internals, (dst, a), q)
    for (q, a), (dst, g) in m.delta_c.items():
        add_move(returns, (dst, a, ("sym", g)), q)
        if g in m.accept_stack:
            add_move(returns, (dst, a, "$"), q)
    return reached_vpa(
        Nvpa, m.alphabet, sorted(m.accepts, key=repr), "$",
        _repr_ordered(calls), _repr_ordered(internals), _repr_ordered(returns),
        {m.initial}.__contains__, {mark}.__contains__,
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
            for move in calls.get(q1, ()):
                if move not in exits:
                    inner, g = move
                    exits[move] = {d for p in reach[inner] for d in returns.get((p, g), ())}
                    callers[move] = set()
                    pushed.setdefault(inner, []).append(g)
                if q not in callers[move]:
                    callers[move].add(q)
                    for dst in exits[move]:
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
        state, stack, dead = _vpa_end(self.m, tw)
        if dead is not None:
            return False
        current = set(self.summaries[state])
        # the symbols at levels 1 to `level` are all acceptable exactly when level < unacceptable
        unacceptable = next(
            (level for level, g in enumerate(stack) if level and g not in self.m.accept_stack), len(stack)
        )
        for level in range(len(stack) - 1, 0, -1):
            if level < unacceptable and current & self.tail:
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
    return vpa_is_empty(_vpa_product(m1, m2, _state_only_cached, lambda a, b: a != b))


# ---------------------------------------------------------------------------
# shuffle with a regular language


def shuffle(m: Vpa, r: Fsa) -> Vpa:
    """The interleavings of L(m) with the all-internal image of L(r): runs
    of m paired with runs of r, whose letters never touch the stack."""
    if set(m.alphabet) & set(r.alphabet):
        raise NonDisjointAlphabets(f"{m.alphabet!r} overlaps {r.alphabet!r}")
    c, i, ret, step = m.delta_c.get, m.delta_i.get, m.delta_r.get, r.delta.get
    regular = frozenset(r.alphabet)

    def calls(state, a) -> tuple:
        s, t = state
        move = c((s, a))
        return () if move is None else (((move[0], t), move[1]),)

    def internals(state, a) -> tuple:
        s, t = state
        if a in regular:
            dst = step((t, a))
            return () if dst is None else ((s, dst),)
        dst = i((s, a))
        return () if dst is None else ((dst, t),)

    def returns(state, a, top) -> tuple:
        s, t = state
        dst = ret((s, a, top))
        return () if dst is None else ((dst, t),)

    return reached_vpa(
        Vpa, m.alphabet + r.alphabet, ((m.initial, r.initial),), m.bottom,
        calls, internals, returns, lambda state: state[0] in m.accepts and state[1] in r.accepts,
        m.accept_stack.__contains__,
    )


# ---------------------------------------------------------------------------
# finite re-labeling


@dataclass
class Relabeling:
    """A letter substitution whose graph is an FSA over base-letter pairs.

    The pair FSA reads (input letter, output letter) pairs; tags are not
    consulted and are copied through, so lengths and matching relations are
    preserved by construction.  The map is required to be functional
    (at most one output word per input word).
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


def relabel_image(m: Vpa, phi: Relabeling) -> Nvpa:
    """Machine for the image of L(m) under phi, reading output letters.

    States pair a state of m with one of the pair FSA.  A move on output
    letter b exists wherever some input letter a with the same tag has both
    a pair-FSA move on (a, b) and an m-move on a.
    """
    pfsa = phi.pair_fsa
    letters = set(m.alphabet)
    for a_in, b_out in pfsa.alphabet:
        if a_in not in letters or b_out not in letters:
            raise AlphabetMismatch(f"pair ({a_in!r},{b_out!r}) outside machine alphabet")
    sources: dict = {}  # (pair state, output letter) -> [(input letter, next pair state)]
    for (p, (a_in, b_out)), p_next in pfsa.delta.items():
        sources.setdefault((p, b_out), []).append((a_in, p_next))

    def image(table: dict, pushes: bool):
        """The choices on output letter b: the moves of `table` on each
        input letter that the pair FSA turns into b, paired with its move."""

        def choices(state, b, *top):
            q, p = state
            moves = ((table.get((q, a, *top)), p_next) for a, p_next in sources.get((p, b), ()))
            return _in_repr_order({
                ((move[0], p_next), move[1]) if pushes else (move, p_next)
                for move, p_next in moves if move is not None
            })

        return choices

    return reached_vpa(
        Nvpa, m.alphabet, ((m.initial, pfsa.initial),), m.bottom, image(m.delta_c, True),
        image(m.delta_i, False), image(m.delta_r, False),
        lambda pair: pair[0] in m.accepts and pair[1] in pfsa.accepts, m.accept_stack.__contains__,
    )
