"""closure-build: the compile path, one construction per op.

An op is one closure construction or group builder on random inputs,
followed by serialize.dumps and serialize.loads of its output (the
PrefixDecider has no serialized form, so its op is the constructor alone).
A block is one round of the whole op set; every round repeats it.  Outputs
are judged on short verification words by the oracles, outside the timed
region.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import NamedTuple

from nestword import serialize
from nestword.closures import Relabeling
from nestword.groups import (
    build_direct_product,
    build_finite_fsa,
    build_free_vpa,
    build_semidirect,
    cyclic_group,
    symmetric_group,
)
from nestword.machines import Vpa, nvpa_run, vpa_run
from nestword.words import Tag, TaggedSymbol

from . import gen, oracles
from .harness import build_closure, expect, machine_size, sizes

CLOSURE_KINDS = (
    "union", "intersection", "complement", "compcomp", "concat",
    "star", "reverse", "shuffle", "relabel", "prefix",
)
PER_KIND = 6  # closure ops of each kind per round

# (builder name, arguments, group model that judges its verification words)
BUILDERS = (
    ("build_free_vpa", (2,), lambda: oracles.Group("F2", 2, None)),
    ("build_free_vpa", (8,), lambda: oracles.Group("F8", 8, None)),
    ("build_free_vpa", (20,), lambda: oracles.Group("F20", 20, None)),
    ("build_direct_product", (3, "Z6"), lambda: oracles.Group("F3xZ6", 3, oracles.Finite.cyclic(6))),
    ("build_direct_product", (2, "S3"), lambda: oracles.Group("F2xS3", 2, oracles.Finite.symmetric(3))),
    ("build_semidirect", (2, 2), lambda: oracles.Group("F2:S2", 2, oracles.Finite.symmetric(2), True)),
    ("build_semidirect", (3, 3), lambda: oracles.Group("F3:S3", 3, oracles.Finite.symmetric(3), True)),
    ("build_semidirect", (4, 3), lambda: oracles.Group("F4:S3", 4, oracles.Finite.symmetric(3), True)),
    ("symmetric_group", (4,), lambda: oracles.Group("S4", 0, oracles.Finite.symmetric(4))),
    ("symmetric_group", (5,), lambda: oracles.Group("S5", 0, oracles.Finite.symmetric(5))),
)
BUILDER_FNS = {
    "build_free_vpa": build_free_vpa,
    "build_direct_product": build_direct_product,
    "build_semidirect": build_semidirect,
    "symmetric_group": symmetric_group,
}


class Op(NamedTuple):
    idx: int
    kind: str  # a CLOSURE_KINDS entry or "builder"
    inputs: tuple  # input tables, or the BUILDERS entry
    words: tuple  # verification words as library tagged words
    expected: tuple  # oracle verdicts, one per word


def to_tagged(word) -> tuple:
    return tuple(TaggedSymbol(b, Tag(t)) for b, t in word)


def accepts(m, tw) -> bool:
    """The library's own verdict of closure output m (a Vpa or an Nvpa) on
    tagged word tw."""
    return vpa_run(m, tw).accepted if isinstance(m, Vpa) else nvpa_run(m, tw)


def _random_word(rng, letters, n) -> tuple:
    return tuple((rng.choice(letters), rng.randrange(3)) for _ in range(n))


def _walks(rng, m, count) -> list:
    return [gen.walk(rng, m, rng.randrange(11), 3)[0] for _ in range(count)]


def verification_words(rng, kind, inputs) -> tuple:
    """Short words near the inputs' languages, with the oracle's verdicts."""
    m1 = inputs[0]
    letters = m1.alphabet
    words = _walks(rng, m1, 6) + [_random_word(rng, letters, rng.randrange(9)) for _ in range(3)]
    if kind in ("union", "intersection", "concat"):
        m2 = inputs[1]
        words += _walks(rng, m2, 4)
        words += [a + b for a, b in zip(_walks(rng, m1, 3), _walks(rng, m2, 3))]
    elif kind == "star":
        words += [sum(_walks(rng, m1, rng.randrange(1, 4)), ()) for _ in range(4)]
    elif kind == "reverse":
        words += [oracles.reverse_word(w) for w in _walks(rng, m1, 6)]
    elif kind == "shuffle":
        r = inputs[1]
        for w in _walks(rng, m1, 6):
            mixed = list(w)
            for _ in range(rng.randrange(4)):
                mixed.insert(rng.randrange(len(mixed) + 1), (rng.choice(r.alphabet), oracles.INTERNAL))
            words.append(tuple(mixed))
    elif kind == "relabel":
        _, delta, initial, _ = inputs[1]
        for w in _walks(rng, m1, 6):
            p, image = initial, []
            for base, tag in w:
                (_, (_, out)), p = next(
                    ((k, v) for k, v in delta.items() if k[0] == p and k[1][0] == base))
                image.append((out, tag))
            words.append(tuple(image))
    oracle = {
        "union": lambda w: oracles.in_union(m1, inputs[1], w),
        "intersection": lambda w: oracles.in_intersection(m1, inputs[1], w),
        "complement": lambda w: not m1.accepts_word(w),
        "compcomp": m1.accepts_word,
        "concat": lambda w: oracles.in_concat(m1, inputs[1], w),
        "star": lambda w: oracles.in_star(m1, w),
        "reverse": lambda w: oracles.in_reverse(m1, w),
        "shuffle": lambda w: oracles.in_shuffle(m1, inputs[1], w),
        "relabel": lambda w: oracles.in_relabel_image(m1, inputs[1][1], inputs[1][2], inputs[1][3], w),
        "prefix": oracles.PrefixOracle(m1).member,
    }[kind]
    return tuple(to_tagged(w) for w in words), tuple(oracle(w) for w in words)


def group_verification(rng, g: oracles.Group) -> tuple:
    """Trivial words in their canonical tagging (accept), the same with one
    tag flipped (reject), and non-trivial words all-internal (reject)."""
    words, expected = [], []
    for i in range(5):
        word, _ = gen.trivial_walk(rng, g, rng.randrange(2, 17))
        tags = g.tags(word)
        if i >= 3:
            pos = gen.flip_at((rng.random(),), len(tags))
            tags[pos] = gen.other_tag(tags[pos], rng.randrange(2))
        words.append(tuple(zip(word, tags)))
        expected.append(i < 3)
    for _ in range(2):
        word = gen.nontrivial(rng, g, rng.randrange(1, 13))
        words.append(tuple((a, oracles.INTERNAL) for a in word))
        expected.append(False)
    return tuple(to_tagged(w) for w in words), tuple(expected)


class Workload:
    name = "closure-build"
    shallow_max = deep_min = None  # no run kernels are timed here
    tolerated = ()  # a healthy run raises nothing

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        # The input machines come from a fixed seed; `seed` draws the
        # verification words and the order of the round.  With seeded
        # machines the spread across seeds of the median op and of the CLI
        # products was 18-20%, a draw of which machines came up.
        machine_rng = random.Random("closure-build:machines")
        word_rng = random.Random(f"{seed}:closure-build:words")
        ops = []
        for entry in BUILDERS:
            words, expected = group_verification(word_rng, entry[2]())
            ops.append(Op(len(ops), "builder", entry, words, expected))
        for kind in CLOSURE_KINDS:
            grid = zip(gen.size_grid(machine_rng, PER_KIND), gen.size_grid(machine_rng, PER_KIND))
            for size, size2 in grid:
                m1 = gen.random_vpa(machine_rng, *size)
                if kind in ("union", "intersection", "concat"):
                    inputs = (m1, gen.random_vpa(machine_rng, size2[0], size[1], size2[2]))
                elif kind == "shuffle":
                    inputs = (m1, gen.random_fsa(machine_rng, 2 + size2[0] % 3))
                elif kind == "relabel":
                    inputs = (m1, gen.random_pair_fsa(machine_rng, m1.alphabet))
                else:
                    inputs = (m1,)
                words, expected = verification_words(word_rng, kind, inputs)
                ops.append(Op(len(ops), kind, inputs, words, expected))
        word_rng.shuffle(ops)
        self.round = ops
        self.docs = {op.idx: _docs(op) for op in ops if op.kind != "builder"}
        self.cli_inputs = (gen.random_vpa(machine_rng, 5, 2, 2), gen.random_vpa(machine_rng, 5, 2, 2))
        self.cli_words = {
            kind: verification_words(word_rng, kind, self.cli_inputs)
            for kind in ("union", "intersection", "concat", "reverse")
        }
        self.out_transitions: dict = {}

    @property
    def output_transitions(self) -> int:
        return sum(self.out_transitions.values())

    # -- set-up: load every input machine from its JSON document

    def setup(self):
        t = self.tracer
        self.finite_factors = {"Z6": cyclic_group(6), "S3": symmetric_group(3)}
        self.machines = {}
        for op in self.round:
            if op.kind == "builder":
                continue
            ms = [t.call("serialize.loads", serialize.loads, doc) for doc in self.docs[op.idx]]
            if op.kind == "relabel":
                ms[1] = t.call("closures.Relabeling", Relabeling, ms[1])
            self.machines[op.idx] = ms
        self.cli_files = []
        for i, table in enumerate(self.cli_inputs):
            path = os.path.join(self.workdir, f"in{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.vpa_doc(table))
            self.cli_files.append(path)

    # -- the closed loop

    def blocks(self):
        while True:
            yield self.round

    def run_op(self, op: Op):
        """(output, its JSON text, the machine loaded back); a builder's
        output is its Recognizer, the PrefixDecider's is not serialized."""
        t = self.tracer
        if op.kind == "builder":
            name, args, _ = op.inputs
            args = tuple(self.finite_factors.get(a, a) for a in args)
            out = t.call("groups." + name, BUILDER_FNS[name], *args)
            if name == "symmetric_group":
                t.note(states=len(out.elements), transitions=len(out.table))
                out = t.call("groups.build_finite_fsa", build_finite_fsa, out)
            else:
                t.note(**sizes(out.automaton))
            machine = out.automaton
        else:
            out = machine = build_closure(t, op.kind, self.machines[op.idx])
            if op.kind == "prefix":
                return out, None, None
        text = t.call("serialize.dumps", serialize.dumps, machine)
        t.note(bytes=len(text))
        loaded = t.call("serialize.loads", serialize.loads, text)
        return out, text, loaded

    @staticmethod
    def label(op: Op) -> str:
        return f"{op.kind} op {op.idx}" if op.kind != "builder" else f"{op.inputs[0]}{op.inputs[1]}"

    def check(self, op: Op, out) -> None:
        built, text, loaded = out
        label = self.label(op)
        if op.kind == "prefix":
            verdicts = [built.member(w) for w in op.words]
        elif op.kind == "builder":
            # the library's recognizer decides, tag checks of an FSA included
            recognizer = dataclasses.replace(built, automaton=loaded)
            verdicts = [recognizer.accepts(w) for w in op.words]
            self.out_transitions[op.idx] = machine_size(built.automaton)[1]
        else:
            verdicts = [accepts(loaded, w) for w in op.words]
            self.out_transitions[op.idx] = machine_size(built)[1]
        if text is not None:
            expect(serialize.dumps(loaded) == text, f"dumps(loads(dumps(m))) != dumps(m) for {label}")
        for w, got, want in zip(op.words, verdicts, op.expected):
            expect(got == want, f"{label} gives {got} on {oracles.word_text(w)}, the oracle {want}")

    # -- the CLI: `nestword closure` on two files

    def cli_calls(self) -> list:
        calls = []
        for kind, (words, expected) in self.cli_words.items():
            out = os.path.join(self.workdir, f"{kind}.out.json")
            inputs = self.cli_files if kind in ("union", "intersection", "concat") else self.cli_files[:1]
            argv = ["closure", "--op", kind, "--inputs", *inputs, "--out", out]
            calls.append((argv, 0, self._cli_checker(kind, out, words, expected)))
        return calls

    @staticmethod
    def _cli_checker(kind, path, words, expected):
        def check(_stdout):
            m = serialize.load(path)
            for w, want in zip(words, expected):
                got = accepts(m, w)
                expect(got == want, f"`nestword closure --op {kind}` gives {got} on {oracles.word_text(w)}")
        return check

    def trace_extra(self) -> None:
        pass


def _docs(op: Op) -> list:
    docs = [gen.vpa_doc(op.inputs[0])]
    if op.kind == "shuffle":
        r = op.inputs[1]
        docs.append(gen.fsa_doc(r.alphabet, r.states, r.initial, r.accepts, r.delta))
    elif op.kind == "relabel":
        pairs, delta, initial, accepts = op.inputs[1]
        docs.append(gen.fsa_doc(pairs, ("p0", "p1"), initial, accepts, delta))
    elif len(op.inputs) > 1:
        docs.append(gen.vpa_doc(op.inputs[1]))
    return docs
