"""Independent answers for every benchmark operation.

Nothing here calls into ``nestword``: group words are evaluated by a small
group model of the benchmark's own, and closure outputs are judged by
running the *input* machines with a deterministic VPA simulator written
here.  A wrong answer from the library therefore cannot also be the
expected answer.
"""

from __future__ import annotations

import itertools

CALL, INTERNAL, RETURN = 0, 1, 2  # the numeric values of nestword.words.Tag


# ---------------------------------------------------------------------------
# groups: free letters x1, x1', ...; finite parts Z_k or S_m


def free_letters(n: int) -> tuple:
    return tuple(name for i in range(1, n + 1) for name in (f"x{i}", f"x{i}'"))


def invert_free(a: str) -> str:
    return a[:-1] if a.endswith("'") else a + "'"


def _perm_name(p: tuple) -> str:
    return "p" + "".join(map(str, p))


def _compose(s: tuple, t: tuple) -> tuple:
    """(s . t)(i) = s(t(i))."""
    return tuple(s[v - 1] for v in t)


def _perm_inverse(s: tuple) -> tuple:
    out = [0] * len(s)
    for i, v in enumerate(s, start=1):
        out[v - 1] = i
    return tuple(out)


class Finite:
    """A finite group given by element names, product and inverse."""

    def __init__(self, names, values, mul, inv, identity):
        self.names = tuple(names)
        self.value = dict(zip(names, values))
        self.name = dict(zip(values, names))
        self.mul = mul
        self.inv = inv
        self.identity = identity

    @classmethod
    def cyclic(cls, k: int) -> "Finite":
        names = ["e"] + ["t" if i == 1 else f"t{i}" for i in range(1, k)]
        return cls(names, range(k), lambda a, b: (a + b) % k, lambda a: -a % k, 0)

    @classmethod
    def symmetric(cls, m: int) -> "Finite":
        perms = sorted(itertools.permutations(range(1, m + 1)))
        return cls(
            [_perm_name(p) for p in perms], perms, _compose, _perm_inverse,
            tuple(range(1, m + 1)),
        )


class Group:
    """F_n, a finite group, F_n x G, or F_n x| S_m (S_m permuting x1..xm).

    A free letter read after the finite prefix sigma acts as its twist
    x_i -> x_sigma(i) when `twisted`; trivial words are those whose
    twisted free letters cancel and whose finite letters multiply to the
    identity.
    """

    def __init__(self, label: str, n: int, finite: Finite | None, twisted: bool = False):
        self.label = label
        self.n = n
        self.finite = finite
        self.twisted = twisted
        self.free = free_letters(n) if n else ()
        self.letters = self.free + (finite.names if finite else ())
        self._free_set = frozenset(self.free)

    def is_free(self, a: str) -> bool:
        return a in self._free_set

    def twist(self, sigma, a: str) -> str:
        if not self.twisted:
            return a
        mark = a.endswith("'")
        i = int(a[1:-1] if mark else a[1:])
        if i <= len(sigma):
            i = sigma[i - 1]
        return f"x{i}'" if mark else f"x{i}"

    def inverse_letter(self, a: str) -> str:
        if self.is_free(a):
            return invert_free(a)
        f = self.finite
        return f.name[f.inv(f.value[a])]

    def inverse_word(self, word) -> tuple:
        return tuple(self.inverse_letter(a) for a in reversed(word))

    def tags(self, word) -> list | None:
        """Tags of the canonical tagging, or None when the word is not trivial.

        Twisted free letters are paired by stack cancellation; finite
        letters stay internal.
        """
        f = self.finite
        acc = f.identity if f else None
        stack = []  # (position, twisted letter)
        tags = [INTERNAL] * len(word)
        for pos, a in enumerate(word):
            if self.is_free(a):
                t = self.twist(acc, a)
                if stack and stack[-1][1] == invert_free(t):
                    tags[stack.pop()[0]] = CALL
                    tags[pos] = RETURN
                else:
                    stack.append((pos, t))
            else:
                acc = f.mul(acc, f.value[a])
        if stack or (f and acc != f.identity):
            return None
        return tags

    def realize(self, slots) -> tuple:
        """Letters for a slot sequence: ('f', twisted letter) or ('g', value).

        A free slot is written as the letter whose twist under the current
        finite prefix is the requested twisted letter.
        """
        f = self.finite
        acc = f.identity if f else None
        out = []
        for kind, v in slots:
            if kind == "g":
                out.append(f.name[v])
                acc = f.mul(acc, v)
            else:
                out.append(self.twist(f.inv(acc), v) if self.twisted else v)
        return tuple(out)


def wordproblem_groups() -> list:
    return [
        Group("F2", 2, None),
        Group("F3xZ6", 3, Finite.cyclic(6)),
        Group("F2:S2", 2, Finite.symmetric(2), twisted=True),
        Group("F3:S3", 3, Finite.symmetric(3), twisted=True),
        Group("S4", 0, Finite.symmetric(4)),
    ]


def tokens(word) -> list:
    """Token text of (base, tag) pairs: `<a` call, `a>` return, `a` internal."""
    return [("<" + b) if t == CALL else (b + ">") if t == RETURN else b for b, t in word]


def word_text(word) -> str:
    return " ".join(tokens(word)) or "ε"


def matching_edges(tags) -> frozenset:
    """Call/return edges (1-based, pending ends at -inf/+inf) by stack discipline."""
    edges = []
    open_calls = []
    for pos, tag in enumerate(tags, start=1):
        if tag == CALL:
            open_calls.append(pos)
        elif tag == RETURN:
            edges.append((open_calls.pop() if open_calls else float("-inf"), pos))
    edges.extend((i, float("inf")) for i in open_calls)
    return frozenset(edges)


# ---------------------------------------------------------------------------
# machines as plain tables: the benchmark's own simulator


class VpaTable:
    """A deterministic VPA as plain dicts, as the generators emit it.

    Words are sequences of (base, tag) pairs with the tag values of
    ``nestword.words.Tag``.
    """

    def __init__(self, alphabet, states, stack, initial, accepts, accept_stack,
                 delta_c, delta_i, delta_r, bottom="$"):
        self.alphabet = tuple(alphabet)
        self.states = tuple(states)
        self.stack = tuple(stack)
        self.bottom = bottom
        self.initial = initial
        self.accepts = frozenset(accepts)
        self.accept_stack = frozenset(accept_stack)
        self.delta_c = dict(delta_c)
        self.delta_i = dict(delta_i)
        self.delta_r = dict(delta_r)

    def step(self, state, stack, base, tag):
        """One move on a mutable stack list; returns the new state or None."""
        if tag == CALL:
            move = self.delta_c.get((state, base))
            if move is None:
                return None
            stack.append(move[1])
            return move[0]
        if tag == INTERNAL:
            return self.delta_i.get((state, base))
        nxt = self.delta_r.get((state, base, stack[-1] if stack else self.bottom))
        if nxt is not None and stack:
            stack.pop()
        return nxt

    def accepting_prefixes(self, word, start: int = 0) -> list:
        """Ends j >= start such that word[start:j] is accepted from scratch."""
        state, stack, bad = self.initial, [], 0
        acc = self.accept_stack
        out = [start] if state in self.accepts else []
        for j in range(start, len(word)):
            base, tag = word[j]
            if tag == RETURN and stack and stack[-1] not in acc:
                bad -= 1
            state = self.step(state, stack, base, tag)
            if state is None:
                return out
            if tag == CALL and stack[-1] not in acc:
                bad += 1
            if not bad and state in self.accepts:
                out.append(j + 1)
        return out

    def accepts_word(self, word) -> bool:
        ends = self.accepting_prefixes(word)
        return bool(ends) and ends[-1] == len(word)

    def run_config(self, word):
        state, stack = self.initial, []
        for base, tag in word:
            state = self.step(state, stack, base, tag)
            if state is None:
                return None
        return state, stack


class FsaTable:
    def __init__(self, alphabet, states, initial, accepts, delta):
        self.alphabet = tuple(alphabet)
        self.states = tuple(states)
        self.initial = initial
        self.accepts = frozenset(accepts)
        self.delta = dict(delta)

    def accepts_word(self, letters) -> bool:
        state = self.initial
        for a in letters:
            state = self.delta.get((state, a))
            if state is None:
                return False
        return state in self.accepts


# ---------------------------------------------------------------------------
# closure answers from the input machines


def reverse_word(word) -> tuple:
    flip = {CALL: RETURN, RETURN: CALL, INTERNAL: INTERNAL}
    return tuple((b, flip[t]) for b, t in reversed(word))


def in_union(m1, m2, w) -> bool:
    return m1.accepts_word(w) or m2.accepts_word(w)


def in_intersection(m1, m2, w) -> bool:
    return m1.accepts_word(w) and m2.accepts_word(w)


def in_concat(m1, m2, w) -> bool:
    return any(m2.accepts_word(w[k:]) for k in m1.accepting_prefixes(w))


def in_star(m, w) -> bool:
    reach = [False] * (len(w) + 1)
    reach[0] = True
    for k in range(len(w)):
        if reach[k]:
            for j in m.accepting_prefixes(w, k):
                reach[j] = True
    return reach[len(w)]


def in_reverse(m, w) -> bool:
    return m.accepts_word(reverse_word(w))


def in_shuffle(m, r, w) -> bool:
    """Interleavings of L(m) with the all-internal image of L(r)."""
    regular = set(r.alphabet)
    reg_part = [(b, t) for b, t in w if b in regular]
    if any(t != INTERNAL for _, t in reg_part):
        return False
    return m.accepts_word([s for s in w if s[0] not in regular]) and r.accepts_word(
        [b for b, _ in reg_part]
    )


def in_relabel_image(m, pair_delta, pair_initial, pair_accepts, w) -> bool:
    """Some preimage u of w under the pair FSA lies in L(m).

    Depth-first over (position, pair state, m state, m stack).
    """
    by_out: dict = {}
    for (p, (a_in, b_out)), dst in pair_delta.items():
        by_out.setdefault((p, b_out), []).append((a_in, dst))

    def go(i, p, state, stack):
        if i == len(w):
            return (
                p in pair_accepts
                and state in m.accepts
                and all(g in m.accept_stack for g in stack)
            )
        base, tag = w[i]
        for a_in, pdst in by_out.get((p, base), ()):
            st = list(stack)
            nxt = m.step(state, st, a_in, tag)
            if nxt is not None and go(i + 1, pdst, nxt, st):
                return True
        return False

    return go(0, pair_initial, m.initial, [])


class PrefixOracle:
    """Membership in the prefix closure of L(m), by a worklist fixpoint.

    `wm[q]` holds the states reachable from q by well-matched words.  From
    a run's final configuration, acceptance is reachable iff some level of
    the stack can be left for good: at that level the run reaches an accept
    state through well-matched words and never-popped acceptable pushes,
    with everything below acceptable; or it pops the level's symbol and
    tries the level below; at the bottom, bottom reads are allowed too.
    """

    def __init__(self, m: VpaTable):
        self.m = m
        self.wm = self._well_matched()
        self.tail = self._backward(m.accepts, self._push_edges())
        self.tail_bottom = self._backward(self.tail, self._bottom_edges())

    def _well_matched(self) -> dict:
        m = self.m
        wm = {q: {q} for q in m.states}
        returns_by_sym: dict = {}
        for (p, _, g), dst in m.delta_r.items():
            returns_by_sym.setdefault((p, g), set()).add(dst)
        calls = [(q, dst, g) for (q, _), (dst, g) in m.delta_c.items()]
        internals = [(q, dst) for (q, _), dst in m.delta_i.items()]
        changed = True
        while changed:
            changed = False
            for src in m.states:
                reach = wm[src]
                for q, dst in internals:
                    if q in reach and dst not in reach:
                        reach.add(dst)
                        changed = True
                for q, inner, g in calls:
                    if q in reach:
                        for p in list(wm[inner]):
                            for dst in returns_by_sym.get((p, g), ()):
                                if dst not in reach:
                                    reach.add(dst)
                                    changed = True
        return wm

    def _push_edges(self):
        return [(q, dst) for (q, _), (dst, g) in self.m.delta_c.items() if g in self.m.accept_stack]

    def _bottom_edges(self):
        return [(q, dst) for (q, _, g), dst in self.m.delta_r.items() if g == self.m.bottom]

    def _backward(self, targets, edges) -> frozenset:
        good = set(targets)
        changed = True
        while changed:
            changed = False
            for q in self.m.states:
                if q in good:
                    continue
                if any(p in good for p in self.wm[q]) or any(
                    src == q and dst in good for src, dst in edges
                ):
                    good.add(q)
                    changed = True
        return frozenset(good)

    def member(self, w) -> bool:
        m = self.m
        config = m.run_config(w)
        if config is None:
            return False
        state, stack = config
        current = set(self.wm[state])
        for level in range(len(stack), 0, -1):
            below_ok = all(g in m.accept_stack for g in stack[:level])
            if below_ok and current & self.tail:
                return True
            popped = {
                m.delta_r[(q, a, stack[level - 1])]
                for q in current
                for a in m.alphabet
                if (q, a, stack[level - 1]) in m.delta_r
            }
            current = set().union(*(self.wm[q] for q in popped)) if popped else set()
            if not current:
                return False
        return bool(current & self.tail_bottom)
