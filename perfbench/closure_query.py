"""closure-query: single-word membership queries on closure outputs.

Set-up loads seeded random VPAs and builds reverse, concat and star NVPAs,
union and double-complement VPAs and PrefixDeciders from them.  One op is
one membership query.  Query words are walks on the input machines'
transitions, so the input runs survive; they are 16-256 symbols long with
nesting depth 2-4, each depth in equal share.  The CLI metric is the
`nestword enum` set: free F1 at --max-len 7 (sparse) and a concat output at
--max-len 6 (dense).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from typing import NamedTuple

from nestword import cli, serialize
from nestword.closures import PrefixDecider
from nestword.groups import build_free_vpa
from nestword.machines import ConfigurationSetOverflow, nvpa_run, vpa_run
from nestword.words import Tag, TaggedSymbol

from . import gen, oracles
from .harness import build_closure, expect, machine_size, sizes

N_BASE = 16  # machines each for reverse, star, concat and PrefixDecider
N_PAIRS = 3  # pairs for union, machines for double complement
DEPTHS = range(2, 5)
SPARSE_MAX_LEN, DENSE_MAX_LEN = 7, 6


class Query(NamedTuple):
    target: int
    word: tuple  # oracle form: (base, tag int) pairs
    tagged: tuple  # the same word as library TaggedSymbols
    depth: int


class Workload:
    name = "closure-query"
    shallow_max, deep_min = 2, DEPTHS[-1]
    # counted in `failed`: a configuration-set run may pass the library's cap
    tolerated = (ConfigurationSetOverflow,)

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        # The machines come from a fixed seed and only the query words from
        # `seed`: the cost of a configuration-set run swings by orders of
        # magnitude with the random machine, so seeded machines would make
        # every metric of this workload a draw of which machines came up.
        rng = random.Random("closure-query:machines")
        base = [gen.random_vpa(rng, *s) for s in gen.size_grid(rng, N_BASE)]
        partners = [gen.random_vpa(rng, 3 + i % 5, len(m.alphabet), 1 + i % 3)
                    for i, m in enumerate(base)]
        pairs = [(gen.random_vpa(rng, *s), gen.random_vpa(rng, *s)) for s in gen.size_grid(rng, N_PAIRS)]
        # targets: (kind, input tables, oracle verdict on an oracle-form word)
        self.targets = []
        for m in base:
            self.targets.append(("reverse", (m,), lambda w, m=m: oracles.in_reverse(m, w)))
        for m in base:
            self.targets.append(("star", (m,), lambda w, m=m: oracles.in_star(m, w)))
        for m, p in zip(base, partners):
            self.targets.append(("concat", (m, p), lambda w, m=m, p=p: oracles.in_concat(m, p, w)))
        for m in base:
            self.targets.append(("prefix", (m,), oracles.PrefixOracle(m).member))
        for a, b in pairs:
            self.targets.append(("union", (a, b), lambda w, a=a, b=b: oracles.in_union(a, b, w)))
        for a, _ in pairs:
            self.targets.append(("compcomp", (a,), a.accepts_word))
        self.docs = [[gen.vpa_doc(m) for m in inputs] for _, inputs, _ in self.targets]
        self.dense_inputs = (gen.random_vpa(rng, 4, 2, 2), gen.random_vpa(rng, 4, 2, 2))
        self._expected = {}

    # -- set-up: load the inputs, build every queried machine

    def setup(self):
        t = self.tracer
        self.machines = []
        for (kind, _, _), docs in zip(self.targets, self.docs):
            ms = [t.call("serialize.loads", serialize.loads, doc) for doc in docs]
            self.machines.append(build_closure(t, kind, ms))
        f1 = t.call("groups.build_free_vpa", build_free_vpa, 1)
        t.note(**sizes(f1.automaton))
        dense = build_closure(t, "concat", [serialize.loads(gen.vpa_doc(m)) for m in self.dense_inputs])
        self.files = {}
        for label, m in (("sparse", f1.automaton), ("dense", dense)):
            text = t.call("serialize.dumps", serialize.dumps, m)
            t.note(bytes=len(text))
            path = os.path.join(self.workdir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files[label] = path
        built = [m for m in self.machines if not isinstance(m, PrefixDecider)]
        self.output_transitions = sum(machine_size(m)[1] for m in built + [f1.automaton, dense])

    # -- the closed loop

    def blocks(self):
        """Every target at every depth once, lengths from log-uniform strata
        of 16..256, in shuffled order: all blocks have the same make-up."""
        rng = random.Random(f"{self.seed}:closure-query:queries")
        cells = [(i, d) for i in range(len(self.targets)) for d in DEPTHS]
        while True:
            lengths = gen.log_uniform_strata(rng, len(cells), 16, 256)
            rng.shuffle(lengths)
            block = []
            for (i, depth), length in zip(cells, lengths):
                kind, inputs, _ = self.targets[i]
                word = self._query_word(rng, kind, inputs, round(length), depth)
                tagged = tuple(TaggedSymbol(b, Tag(t)) for b, t in word)
                block.append(Query(i, word, tagged, depth))
            rng.shuffle(block)
            yield block

    @staticmethod
    def _query_word(rng, kind, inputs, length, depth) -> tuple:
        m = inputs[0]
        if kind == "reverse":
            return oracles.reverse_word(gen.walk(rng, m, length, depth)[0])
        if kind == "star":
            pieces = rng.randrange(1, 4)
            return sum((gen.walk(rng, m, length // pieces, depth)[0] for _ in range(pieces)), ())
        if kind == "concat":
            half = length // 2
            return gen.walk(rng, m, half, depth)[0] + gen.walk(rng, inputs[1], length - half, depth)[0]
        if kind == "union":
            return gen.walk(rng, inputs[rng.randrange(2)], length, depth)[0]
        return gen.walk(rng, m, length, depth)[0]

    def run_op(self, q: Query):
        t = self.tracer
        kind = self.targets[q.target][0]
        m = self.machines[q.target]
        n = len(q.tagged)
        if kind in ("reverse", "star", "concat"):
            return t.call("machines.nvpa_run", nvpa_run, m, q.tagged, n=n, depth=q.depth)
        if kind == "prefix":
            return t.call("closures.PrefixDecider.member", m.member, q.tagged, n=n, depth=q.depth)
        return t.call("machines.vpa_run", vpa_run, m, q.tagged, n=n, depth=q.depth).accepted

    def label(self, q: Query) -> str:
        return f"{self.targets[q.target][0]} machine {q.target} on {oracles.word_text(q.word)}"

    def check(self, q: Query, got) -> None:
        want = self.targets[q.target][2](q.word)
        expect(got == want, f"{self.label(q)} says {got}, the oracle {want}")

    # -- enumeration: `nestword enum`, sparse and dense

    def _enum_expected(self, label) -> list:
        if label not in self._expected:
            self._expected[label] = self._enumerate(label)
        return self._expected[label]

    def _enumerate(self, label) -> list:
        if label == "sparse":
            g = oracles.Group("F1", 1, None)
            words = []
            for n in range(SPARSE_MAX_LEN + 1):
                for word in itertools.product(g.letters, repeat=n):
                    tags = g.tags(word)
                    if tags is not None:
                        words.append(tuple(zip(word, tags)))
        else:
            m1, m2 = self.dense_inputs
            symbols = [(a, t) for a in m1.alphabet for t in (0, 1, 2)]
            words = [
                w for n in range(DENSE_MAX_LEN + 1)
                for w in itertools.product(symbols, repeat=n)
                if oracles.in_concat(m1, m2, w)
            ]
        return sorted(oracles.word_text(w) for w in words)

    def _enum_argv(self, label) -> list:
        max_len = SPARSE_MAX_LEN if label == "sparse" else DENSE_MAX_LEN
        return ["enum", "--automaton", self.files[label], "--max-len", str(max_len)]

    def _enum_checker(self, label):
        def check(stdout):
            got = sorted(stdout.splitlines())
            want = self._enum_expected(label)
            expect(got == want, f"`nestword enum` on the {label} case lists {len(got)} words, "
                                f"the oracle {len(want)}")
        return check

    def cli_calls(self) -> list:
        return [(self._enum_argv(label), 0, self._enum_checker(label)) for label in ("sparse", "dense")]

    def trace_extra(self) -> None:
        """In-process enum of both cases, traced as cli.enum."""
        for label in ("sparse", "dense"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.tracer.call("cli.enum", cli.main, self._enum_argv(label), case=label)
            expect(code == 0, f"in-process enum on the {label} case exited {code}")
            self._enum_checker(label)(buf.getvalue())
