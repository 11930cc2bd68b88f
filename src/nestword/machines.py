"""Machine definitions and run semantics: FSA and (non)deterministic VPA.

All machines are plain dataclasses validated on construction and treated as
immutable afterwards; runs keep their own private configuration state, so
machines may be shared freely between threads.  The one thing a run adds to
a machine is its run rows (`_rows`), compiled from its tables on its first
run: an Fsa's or a Vpa's rows of moves (`_RunRows`) and an Nvpa's rows of
images (`_SummaryRows`).  Both kernels read them in one layout,
`symbols[a, tag]`, which holds every tagged letter of the alphabet, so a
symbol they lack is at fault itself.  The rows are a cache no answer,
comparison, copy or document depends on.  An Fsa runs as its all-internal
VPA reading, so one deterministic loop (`_vpa_end`) serves fsa_run,
vpa_run and membership.

Stack conventions: stacks are tuples with the bottom symbol at index 0.
The bottom symbol is not part of the (pushable) stack alphabet and is
never pushed or popped; a return reading the exposed bottom leaves
the stack unchanged.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Hashable, Iterable, NamedTuple

from .words import Tag, TaggedSymbol, TaggedWord, check_alphabet, check_tag

State = Hashable
StackSym = Hashable


class ConfigurationSetOverflow(RuntimeError):
    """An NVPA run tracked more configurations than a cap allowed.

    The library no longer raises it: `nvpa_run` keeps one summary frame per
    pending call and has no cap.  The class stays for code that catches it.
    """


class Configuration(NamedTuple):
    state: State
    remaining: tuple
    stack: tuple


def _freeze_states(states: Iterable[State]) -> frozenset:
    return states if isinstance(states, frozenset) else frozenset(states)


def _state_set(states: Iterable[State]) -> frozenset:
    """A machine's state set, refusing the label None: runs and
    constructions read a None from a table as a missing move."""
    states = _freeze_states(states)
    if None in states:
        raise ValueError("None is not a state label: a table reads it as a missing move")
    return states


def _check_symbol(m, sym) -> None:
    """Raise ValueError if a symbol a run finds no move on is itself at
    fault: it is not a (letter, tag) pair, its letter lies outside the
    alphabet, or its tag equals no Tag.  Rows hold well-formed symbols
    only, so a run checks a symbol only where it finds no move, and a
    well-formed word pays nothing for the check."""
    base, tag = sym
    if base not in m._alpha:
        raise ValueError(f"letter {base!r} not in alphabet") from None
    check_tag(base, tag)


class _Machine:
    """What Fsa, Vpa and Nvpa share: run rows, which no copy or pickle keeps."""

    @functools.cached_property
    def _rows(self) -> _RunRows | _SummaryRows:
        """The rows a run reads, compiled on the first run: nvpa_run's
        `_SummaryRows` for an Nvpa, _vpa_end's `_RunRows` otherwise."""
        return _SummaryRows(self) if isinstance(self, Nvpa) else _RunRows(self)

    def __getstate__(self):
        """The fields without the run rows: a copy or an unpickled machine
        compiles its own."""
        return {key: value for key, value in vars(self).items() if key != "_rows"}


# ---------------------------------------------------------------------------
# finite-state machines


@dataclass(repr=False)
class Fsa(_Machine):
    """Deterministic finite automaton with a partial transition map.

    A missing transition kills the run (the word is rejected); an explicit
    fail state is a builder choice, not a requirement.  A run reads it as
    its all-internal VPA (`_RunRows`).
    """

    kind = "fsa"

    alphabet: tuple
    states: frozenset
    initial: State
    accepts: frozenset
    delta: dict  # (state, symbol) -> state

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        self.states = _state_set(self.states)
        self.accepts = _freeze_states(self.accepts)
        self.delta = dict(self.delta)
        self._alpha = alpha = frozenset(self.alphabet)
        if not alpha:
            raise ValueError("alphabet must be non-empty")
        if len(alpha) != len(self.alphabet):
            raise ValueError(f"duplicate letters in alphabet: {self.alphabet}")
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not in states")
        if not self.accepts <= self.states:
            raise ValueError("accept states not a subset of states")
        for (src, sym), dst in self.delta.items():
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition ({src!r},{sym!r})->{dst!r} leaves state set")
            if sym not in alpha:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")

    def __repr__(self):
        return f"Fsa(states={len(self.states)}, alphabet={self.alphabet!r})"


def reached_fsa(alphabet: tuple, initial, step, accepting) -> Fsa:
    """The Fsa of the states a run from `initial` reaches, named q0, q1, ...
    in the breadth-first order that first meets them, each state's letters
    taken in alphabet order.  step(q, a) is the successor of q on a, or
    None where there is no move; accepting(q) says whether q accepts."""
    names = {initial: "q0"}
    order = [initial]
    delta = {}
    for q in order:  # grows while it is walked: a breadth-first queue
        src = names[q]
        for a in alphabet:
            dst = step(q, a)
            if dst is None:
                continue
            name = names.get(dst)
            if name is None:
                name = names[dst] = f"q{len(order)}"
                order.append(dst)
            delta[src, a] = name
    accepts = frozenset(names[q] for q in order if accepting(q))
    return Fsa(alphabet, frozenset(names.values()), "q0", accepts, delta)


# ---------------------------------------------------------------------------
# visibly pushdown machines


class _VisiblyPushdown(_Machine):
    """What Vpa and Nvpa share: field normalization, validation and repr."""

    def _check(self, initials) -> None:
        """Normalize and validate the shared fields; a Vpa table entry is
        the only choice for its key."""
        self.alphabet = check_alphabet(self.alphabet)
        self.states = states = _state_set(self.states)
        self.stack_alphabet = stack = frozenset(self.stack_alphabet)
        self.accepts = _freeze_states(self.accepts)
        self.accept_stack = frozenset(self.accept_stack)
        if self.bottom in stack:
            raise ValueError("bottom symbol must not be a pushable stack symbol")
        if not initials <= states or not self.accepts <= states:
            raise ValueError("initial/accept states not a subset of states")
        if not self.accept_stack <= stack:
            raise ValueError("accept_stack must be a subset of the stack alphabet")
        alpha = frozenset(self.alphabet)
        for kind, table in (("call", self.delta_c), ("internal", self.delta_i), ("return", self.delta_r)):
            for key in table:
                if key[0] not in states or key[1] not in alpha:
                    raise ValueError(f"bad {kind} transition {key!r}")
        readable = stack | {self.bottom}
        for src, base, sym in self.delta_r:
            if sym not in readable:
                raise ValueError(f"return on ({src!r},{base!r}) reads unknown symbol {sym!r}")
        single = isinstance(self, Vpa)
        calls, internals, returns = (
            table.values() if single else chain.from_iterable(table.values())
            for table in (self.delta_c, self.delta_i, self.delta_r)
        )
        for dst, sym in calls:
            if dst not in states:
                raise ValueError(f"call transition into unknown state {dst!r}")
            if sym not in stack:
                raise ValueError(f"call pushes unknown symbol {sym!r}")
        unknown = set(chain(internals, returns)) - states
        if unknown:
            raise ValueError(f"transition into unknown state {min(unknown, key=repr)!r}")
        self._alpha = alpha

    def __repr__(self):
        return (
            f"{type(self).__name__}(states={len(self.states)}, alphabet={self.alphabet!r}, "
            f"stack={len(self.stack_alphabet)})"
        )


@dataclass(repr=False)
class Vpa(_VisiblyPushdown):
    """Deterministic visibly pushdown automaton.

    The tag of each input symbol selects the transition family: calls push
    one symbol, internals leave the stack alone, returns pop (or read the
    bottom symbol in place when the stack is empty above it).  Acceptance
    requires a surviving run, a final state in `accepts`, and every stack
    symbol above the bottom to lie in `accept_stack`.

    `stack_alphabet` holds the pushable symbols; `bottom` is separate and
    is never pushed.
    """

    kind = "vpa"

    alphabet: tuple
    states: frozenset
    stack_alphabet: frozenset
    bottom: StackSym
    initial: State
    accepts: frozenset
    accept_stack: frozenset
    delta_c: dict  # (state, base) -> (state, stack symbol)
    delta_i: dict  # (state, base) -> state
    delta_r: dict  # (state, base, stack symbol or bottom) -> state

    def __post_init__(self):
        self.delta_c = {k: (t, g) for k, (t, g) in self.delta_c.items()}
        self.delta_i = dict(self.delta_i)
        self.delta_r = dict(self.delta_r)
        self._check({self.initial})


@dataclass(repr=False)
class Nvpa(_VisiblyPushdown):
    """Nondeterministic VPA: set-valued transition families, several initials."""

    kind = "nvpa"

    alphabet: tuple
    states: frozenset
    stack_alphabet: frozenset
    bottom: StackSym
    initials: frozenset
    accepts: frozenset
    accept_stack: frozenset
    delta_c: dict  # (state, base) -> frozenset of (state, stack symbol)
    delta_i: dict  # (state, base) -> frozenset of states
    delta_r: dict  # (state, base, stack symbol or bottom) -> frozenset of states

    def __post_init__(self):
        self.initials = _freeze_states(self.initials)
        self.delta_c = {k: frozenset(v) for k, v in self.delta_c.items()}
        self.delta_i = {k: frozenset(v) for k, v in self.delta_i.items()}
        self.delta_r = {k: frozenset(v) for k, v in self.delta_r.items()}
        self._check(self.initials)


@dataclass
class VpaRun:
    """Outcome of a deterministic run.

    `state` is the last state reached (where the run died, if it did);
    `stack` is the final stack, bottom first, or None when the run died
    on a missing transition.
    """

    accepted: bool
    reason: str | None = None
    trace: tuple = field(default=())
    state: State = None
    stack: tuple | None = None


def _stack_ok(stack: tuple, accept_stack: frozenset) -> bool:
    return all(sym in accept_stack for sym in stack[1:])


class _RunRows:
    """A Vpa's transition tables as rows for _vpa_end, one per tagged letter
    of its alphabet: `symbols[a, tag]` is (tag, row), where a call row maps
    a state to its (target, pushed symbol), an internal row a state to its
    target, and a return row a stack top to a row from state to target.
    `acceptable` holds the pushed symbols an accepting stack may hold.  An
    Fsa's rows are those of its all-internal reading: internal rows from
    its delta, empty call and return rows, the bottom "$" and no
    acceptable pushed symbol.  Each state and stack symbol is one object
    throughout the rows, so a run compares labels by identity, on a
    machine read from a document as on a built one.  States and stack
    symbols are interned apart, the bottom as given, so a label never
    comes back as an equal label of the other kind (a state 1 as True)."""

    __slots__ = ("symbols", "initial", "bottom", "acceptable")

    def __init__(self, m: Fsa | Vpa):
        fsa = isinstance(m, Fsa)
        delta_c, delta_i, delta_r = ({}, m.delta, {}) if fsa else (m.delta_c, m.delta_i, m.delta_r)
        bottom, self.acceptable = ("$", frozenset()) if fsa else (m.bottom, m.accept_stack)
        states = {q: q for q in m.states}
        tops = {g: g for g in chain(() if fsa else m.stack_alphabet, (bottom,))}
        self.initial = states[m.initial]
        self.bottom = bottom
        calls, internals, returns = ({a: {} for a in m.alphabet} for _ in range(3))
        for (q, a), (dst, g) in delta_c.items():
            calls[a][states[q]] = (states[dst], tops[g])
        for (q, a), dst in delta_i.items():
            internals[a][states[q]] = states[dst]
        for (q, a, g), dst in delta_r.items():
            returns[a].setdefault(tops[g], {})[states[q]] = states[dst]
        self.symbols = {
            TaggedSymbol(a, tag): (tag, row)
            for tag, family in zip(Tag, (calls, internals, returns))
            for a, row in family.items()
        }


def _vpa_end(m: Fsa | Vpa, tw: TaggedWord, trace: list | None = None) -> tuple:
    """The run of m on a tagged word: (state, stack, None) where it ends,
    the stack a list, bottom first, or (state, stack, sym) where its rows
    have no move on sym from state and the stack's top.  A given trace
    list gets one Configuration per step, the start included.  Each step
    reads the machine's rows (`_RunRows`); a move they lack raises
    KeyError, which ends the run.  Only where the rows lack sym itself is
    sym checked: ValueError if it is at fault."""
    rows = m._rows
    symbols, state, bottom = rows.symbols, rows.initial, rows.bottom
    call, internal = Tag.CALL, Tag.INTERNAL
    stack = [bottom]
    push, pop = stack.append, stack.pop
    if trace is not None:
        tw = tuple(tw)  # read whole for each configuration, and once more step by step
        trace.append(Configuration(state, tw, (bottom,)))
    try:
        for sym in tw:
            family, row = symbols[sym]
            if family is call:
                state, pushed = row[state]
                push(pushed)
            elif family is internal:
                state = row[state]
            else:
                top = stack[-1]
                state = row[top][state]
                if top is not bottom:  # the bottom is never pushed, so it is only ever at the bottom
                    pop()
            if trace is not None:
                trace.append(Configuration(state, tw[len(trace):], tuple(stack)))
    except KeyError:
        if sym not in symbols:
            _check_symbol(m, sym)
        return state, stack, sym
    return state, stack, None


def vpa_run(m: Vpa | Fsa, tw: TaggedWord, record_trace: bool = False) -> VpaRun:
    """Deterministic run of m on a tagged word; an Fsa runs as its
    all-internal VPA reading, on the stack ("$",).

    A missing transition rejects (recorded as the reason) rather than
    raising.  A base letter outside the alphabet, or a tag that equals no
    Tag, raises ValueError only when the run reaches it: a run that dies
    earlier rejects.  Tags are compared by value, so an int tag runs as
    the Tag it equals.  A trace stores each configuration's remaining word
    and whole stack, so a traced run of n symbols takes time and memory
    O(n·(n + depth)); an untraced one is linear.
    """
    trace: list | None = [] if record_trace else None
    state, stack, dead = _vpa_end(m, tw, trace)
    trace = tuple(trace) if record_trace else ()
    if dead is not None:
        base, tag = dead
        if tag == Tag.RETURN:
            reason = f"no return transition from {state!r} on {base!r}/{stack[-1]!r}"
        else:
            reason = f"no {'call' if tag == Tag.CALL else 'internal'} transition from {state!r} on {base!r}"
        return VpaRun(False, reason, trace, state)
    stack = tuple(stack)
    if state in m.accepts and _stack_ok(stack, m._rows.acceptable):
        return VpaRun(True, None, trace, state, stack)
    return VpaRun(False, "final configuration not accepting", trace, state, stack)


# Most images one Nvpa's summary rows store beyond the single-state images
# compiled from its tables.  A run stores at most one image per step, and
# only for a state set it reaches; past this many, images are computed and
# not stored, so no answer depends on it.  An image takes about 100 bytes,
# so the rows of one machine stay within a few megabytes.
MAX_STORED_IMAGES = 1 << 15

class _Budget:
    """How many images one machine's rows have stored.  The rows hold it
    rather than their owner, so they form no reference cycle."""

    __slots__ = ("stored", "lock")

    def __init__(self):
        self.stored = 0
        self.lock = threading.Lock()


class _ImageRow(dict):
    """One letter's row of images, keyed by a state mask.  The image of a
    mask is the union of its states' images; one not compiled in is stored
    the first time a run asks for it, while the machine's budget lasts."""

    __slots__ = ("join", "budget")

    def __init__(self, join, budget: _Budget):
        super().__init__()
        self.join = join
        self.budget = budget

    def __missing__(self, key):
        image = self.join(self, key)
        budget = self.budget
        with budget.lock:  # runs on other threads may share the machine
            if budget.stored < MAX_STORED_IMAGES and key not in self:
                budget.stored += 1
                self[key] = image
        return image


def _join_states(row: _ImageRow, mask: int) -> int:
    image = 0
    while mask:
        low = mask & -mask
        image |= row.get(low, 0)
        mask ^= low
    return image


def _join_calls(row: _ImageRow, mask: int) -> tuple:
    items = []
    while mask:
        low = mask & -mask
        items.extend(row.get(low, ()))  # entries hold the caller bit, so never repeat
        mask ^= low
    return tuple(items)


class _SummaryRows:
    """An Nvpa's transition tables as image rows over state bitmasks, for
    nvpa_run, in _RunRows's layout: `symbols[a, tag]` is (tag, rows) for
    every tagged letter of the alphabet.  A frame entry is a small int: 0
    for the bottom, and one for each (caller bit, pushed symbol, ok) a
    call can open, with its caller bit in `callers` and its ok flag in
    `oks`.  An internal's rows are one row, mapping a mask to the mask of
    its successors.  A call's rows are a pair, for callers whose entry is
    not ok and for those whose entry is, each mapping a mask to the new
    frame's (entry, mask) items.  A return's rows are a list by entry:
    the row of the symbol under entry e (the bottom under entry 0), empty
    where the letter pops nothing off it.  A letter with no moves of a tag
    gets empty rows.  Compiled rows hold the single states that have
    moves; `budget` counts the images added since."""

    def __init__(self, m: Nvpa):
        bit = {q: 1 << i for i, q in enumerate(m.states)}

        def mask(states) -> int:
            return sum(bit[q] for q in states)

        self.budget = budget = _Budget()
        self.initial = mask(m.initials)
        self.accepts = mask(m.accepts)
        internals = {a: _ImageRow(_join_states, budget) for a in m.alphabet}
        for (q, base), dsts in m.delta_i.items():
            internals[base][bit[q]] = mask(dsts)
        entries: dict = {}  # (caller bit, pushed symbol, ok) -> its entry
        self.callers, self.oks, tops = [0], [True], [m.bottom]
        calls = {a: (_ImageRow(_join_calls, budget), _ImageRow(_join_calls, budget)) for a in m.alphabet}
        for (q, base), moves in m.delta_c.items():
            for ok in (False, True):
                frame: dict = {}
                for dst, g in moves:
                    key = (bit[q], g, ok and g in m.accept_stack)
                    entry = entries.get(key)
                    if entry is None:
                        entry = entries[key] = len(tops)
                        self.callers.append(bit[q])
                        self.oks.append(key[2])
                        tops.append(g)
                    frame[entry] = frame.get(entry, 0) | bit[dst]
                calls[base][ok][bit[q]] = tuple(frame.items())
        by_top: dict = {a: {} for a in m.alphabet}  # letter -> popped symbol -> row
        for (q, base, g), dsts in m.delta_r.items():
            rows = by_top[base]
            if g not in rows:
                rows[g] = _ImageRow(_join_states, budget)
            rows[g][bit[q]] = mask(dsts)
        empty = _ImageRow(_join_states, budget)
        returns = {a: [rows.get(g, empty) for g in tops] for a, rows in by_top.items()}
        self.symbols = {
            TaggedSymbol(a, tag): (tag, rows)
            for tag, family in zip(Tag, (calls, internals, returns))
            for a, rows in family.items()
        }


def nvpa_run(m: Nvpa, tw: TaggedWord) -> bool:
    """Summary run (Alur and Madhusudan): one frame per pending call.

    A frame maps each entry to a bitmask of the states the run can be in
    under it.  The bottom frame's only entry is 0; a call from state q
    pushing g opens a frame whose entries stand for (bit of q, g, ok),
    where ok says every pending symbol, g included, is in accept_stack.  A
    return joins the top frame with the saved caller frame: an entry's
    image goes to every caller entry whose mask holds its caller bit.  A
    frame holds at most 2|Q||stack| entries of |Q| bits at any depth, so
    the run is linear in the word.

    Most frames hold one entry.  The run keeps such a frame in two locals,
    `entry` and `mask`, and saves it as that pair; only a frame of two or
    more entries is a dict, saved as (None, dict), and a step that leaves
    one entry drops back to the locals.  A step on a one-entry frame is
    one lookup in the machine's image rows (`_SummaryRows`).  On a larger
    frame an internal or a return is one lookup per entry, and a call at
    most two: the union of the masks whose entry is not ok, then of those
    whose entry is, since the image of a mask is the union of its states'
    images.  The rows store at most MAX_STORED_IMAGES images besides their
    compiled single-state ones.  A letter outside the alphabet, or a tag
    that equals no Tag, raises ValueError when the run reaches it.  Tags
    are compared by value, as in vpa_run.
    """
    rows = m._rows
    symbols, callers, oks = rows.symbols, rows.callers, rows.oks
    call, internal = Tag.CALL, Tag.INTERNAL
    entry, mask = 0, rows.initial  # with no initials, the empty mask, which every row maps to nothing
    frame = None  # the dict of a frame of two or more entries, else None
    saved = []
    try:
        for sym in tw:
            family, row = symbols[sym]
            if frame is None:
                if family is internal:
                    mask = row[mask]
                    if not mask:
                        return False
                elif family is call:
                    saved.append((entry, mask))
                    items = row[oks[entry]][mask]
                    if len(items) == 1:
                        (entry, mask), = items
                    elif items:
                        frame = dict(items)  # entries hold their caller bit, so none repeats
                    else:
                        return False
                else:
                    mask = row[entry][mask]
                    if not mask:
                        return False
                    if saved:  # else the bottom frame, whose only entry is 0, reads the bottom in place
                        c, caller = saved.pop()
                        if c is not None:
                            entry = c  # the caller's mask holds the caller bit of every entry above it
                        else:
                            bit = callers[entry]
                            frame = {c: mask for c, held in caller.items() if held & bit}
                            if len(frame) == 1:
                                (entry, mask), = frame.items()
                                frame = None
                continue
            if family is internal:
                nxt = {}
                for e, held in frame.items():
                    image = row[held]
                    if image:
                        nxt[e] = image
            elif family is call:
                saved.append((None, frame))
                not_ok = ok = 0
                for e, held in frame.items():
                    if oks[e]:
                        ok |= held
                    else:
                        not_ok |= held
                nxt = dict(row[False][not_ok]) if not_ok else {}
                if ok:  # an entry both rows give has one image: its caller's moves pushing its symbol
                    nxt.update(row[True][ok])
            else:
                c, caller = saved.pop()  # a frame of two or more entries is never the bottom one
                if c is not None:  # one caller entry, whose mask holds every caller bit here
                    mask = 0
                    for e, held in frame.items():
                        mask |= row[e][held]
                    if not mask:
                        return False
                    entry, frame = c, None
                    continue
                nxt = {}
                for e, held in frame.items():
                    image = row[e][held]
                    if image:
                        bit = callers[e]
                        for c, under in caller.items():
                            if under & bit:
                                nxt[c] = nxt.get(c, 0) | image
            if len(nxt) == 1:
                (entry, mask), = nxt.items()
                frame = None
            elif nxt:
                frame = nxt
            else:
                return False
    except KeyError:
        # the rows hold every tagged letter of the alphabet: sym is at fault
        _check_symbol(m, sym)
        raise
    accepts = rows.accepts
    if frame is None:
        return bool(mask & accepts) and oks[entry]
    return any(held & accepts and oks[e] for e, held in frame.items())


def machine_accepts(m, tw: TaggedWord) -> bool:
    """Membership of a tagged word in L(m) for an Fsa, Vpa or Nvpa, with
    vpa_run's errors; an FSA is read as the all-internal image of its plain
    language.  An Fsa or Vpa run goes through vpa_run's loop and reads only
    where it ends."""
    if isinstance(m, (Fsa, Vpa)):
        state, stack, dead = _vpa_end(m, tw)
        return dead is None and state in m.accepts and _stack_ok(stack, m._rows.acceptable)
    if isinstance(m, Nvpa):
        return nvpa_run(m, tw)
    raise TypeError(f"cannot run words on a {type(m).__name__}")


def fsa_run(m: Fsa, word: Iterable) -> bool:
    """Accept iff the unique (possibly dying) run ends in an accept state:
    machine_accepts on the word's letters read as internal symbols."""
    return machine_accepts(m, zip(word, repeat(Tag.INTERNAL)))


# ---------------------------------------------------------------------------
# set-valued transition tables


def add_move(table: dict, key, value) -> None:
    """Add one choice to a set-valued (Nvpa-shaped) transition table."""
    table.setdefault(key, set()).add(value)


# ---------------------------------------------------------------------------
# canonical relabeling (deterministic names, reachable part only)


class _Names(dict):
    """state -> its name, q0, q1, ... in the order states are first looked up."""

    def __missing__(self, state) -> str:
        name = self[state] = f"q{len(self)}"
        return name


def reached_vpa(cls, alphabet, initials, bottom, calls, internals, returns, accepting, acceptable):
    """The Vpa or Nvpa (`cls`) of what runs from `initials` reach, its
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

    The visiting order is part of the contract: canonical names, and so
    every printed document and golden digest, depend on the order in which
    the search meets states, stack symbols and moves, and any change to it
    is a change of every output.  The worklist is first in, first out, and
    a waiting state that gains a top keeps its place.  An expansion looks
    up the letters in alphabet order, each letter's internal moves before
    its calls, then returns top by top in the order the tops were found;
    a key's choices are named in the order the lookup gives them.
    """
    single = cls is Vpa
    names = _Names()  # state -> its name
    name = names.__getitem__
    syms: dict = {bottom: "$"}  # stack symbol -> its name
    moves: dict = {}  # state -> (internal targets, pushed symbols)
    under: dict = {}  # pushed symbol -> tops found directly beneath it
    exits: dict = {}  # pushed symbol -> states a return popping it leads to
    tops_of: dict = {}  # state -> the tops it is reached with
    pending: dict = {}  # state -> those of its tops not yet expanded
    delta_c: dict = {}
    delta_i: dict = {}
    delta_r: dict = {}

    def reach(state, top) -> None:
        """`state` reached with `top`."""
        known = tops_of.get(state)
        if known is None:
            tops_of[state] = {top: None}
            pending[state] = {top: None}
        elif top not in known:
            known[top] = None
            waiting = pending.get(state)
            if waiting is None:
                pending[state] = {top: None}
            else:
                waiting[top] = None

    def reach_all(state, tops: dict) -> None:
        """`state` reached with each of `tops`, which is never empty."""
        known = tops_of.get(state)
        if known is None:
            tops_of[state] = tops.copy()
            pending[state] = tops.copy()
            return
        waiting = None
        for top in tops:
            if top not in known:
                known[top] = None
                if waiting is None:
                    waiting = pending.get(state)
                    if waiting is None:
                        waiting = pending[state] = {}
                waiting[top] = None

    for q in initials:
        names[q]
        reach(q, bottom)
    while pending:
        state = next(iter(pending))
        tops = pending.pop(state)
        src = names[state]
        if state not in moves:
            targets, pushes = moves[state] = [], []
            for a in alphabet:
                dsts = internals(state, a)
                if dsts:
                    delta_i[src, a] = names[dsts[0]] if single else frozenset(map(name, dsts))
                    targets += dsts
                choices = calls(state, a)
                if choices:
                    named = []
                    for dst, pushed in choices:
                        sym = syms.get(pushed)
                        if sym is None:
                            sym = syms[pushed] = f"g{len(syms) - 1}"
                            under[pushed], exits[pushed] = {}, {}
                        named.append((names[dst], sym))
                        pushes.append(pushed)
                        reach(dst, pushed)
                    delta_c[src, a] = named[0] if single else frozenset(named)
        targets, pushes = moves[state]
        for dst in targets:
            reach_all(dst, tops)
        for pushed in pushes:
            below = under[pushed]
            fresh = None
            for top in tops:
                if top not in below:
                    below[top] = None
                    if fresh is None:
                        fresh = {top: None}
                    else:
                        fresh[top] = None
            if fresh is not None:
                for dst in exits[pushed]:
                    reach_all(dst, fresh)
        for top in tops:
            found = exits.get(top)  # None for the bottom, which a return reads in place
            sym = syms[top]
            for a in alphabet:
                dsts = returns(state, a, top)
                if not dsts:
                    continue
                delta_r[src, a, sym] = names[dsts[0]] if single else frozenset(map(name, dsts))
                for dst in dsts:
                    if found is None:
                        reach(dst, top)
                    elif dst not in found:
                        found[dst] = None
                        reach_all(dst, under[top])

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


def vpa_lookup(table: dict):
    """A Vpa table as a reached_vpa lookup: a key's entry is its only choice."""
    return lambda *key: () if (move := table.get(key)) is None else (move,)


def _repr_ordered(table: dict):
    """An Nvpa table as a reached_vpa lookup: a key's choices in repr order."""
    return lambda *key: sorted(table.get(key, ()), key=repr)


def canonicalize(m):
    """The part of m that runs reach, its states named q0, q1, ... and a
    VPA's stack symbols g0, g1, ... in the order the search meets them.

    An Fsa is searched breadth-first (`reached_fsa`), a Vpa or Nvpa over
    (state, top) pairs (`reached_vpa`), which keeps a return only where
    some reached state can have its symbol on top; the language is kept.
    An Nvpa's initials and choices are taken in repr order.  Useful after
    product constructions, whose state tuples are not JSON-serializable.
    """
    if isinstance(m, Fsa):
        return reached_fsa(m.alphabet, m.initial, lambda q, a: m.delta.get((q, a)), m.accepts.__contains__)
    if isinstance(m, Vpa):
        initials, lookup = (m.initial,), vpa_lookup
    elif isinstance(m, Nvpa):
        initials, lookup = sorted(m.initials, key=repr), _repr_ordered
    else:
        raise TypeError(f"cannot canonicalize {type(m).__name__}")
    return reached_vpa(
        type(m), m.alphabet, initials, m.bottom, lookup(m.delta_c), lookup(m.delta_i),
        lookup(m.delta_r), m.accepts.__contains__, m.accept_stack.__contains__,
    )
