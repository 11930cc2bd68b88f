"""wordproblem: decide group words through the compiled recognizers.

One op takes one group word through is_identity -> annotate_word ->
format_word -> parse_word -> Recognizer.accepts -> decode.  The groups are
F2 and F3xZ6 (deterministic VPAs), F2:S2 and F3:S3 (NVPAs) and S4 (FSA);
lengths are log-uniform on 4..4096.  No closure or builder runs outside
set-up.
"""

from __future__ import annotations

import itertools
import os
import random

from nestword import serialize
from nestword.groups import (
    DirectProductSpec,
    FreeGroupSpec,
    SemidirectProductSpec,
    annotate_word,
    build_direct_product,
    build_finite_fsa,
    build_free_vpa,
    build_semidirect,
    cyclic_group,
    is_identity,
    symmetric_group,
)
from nestword.machines import Fsa, Vpa
from nestword.words import Tag, TaggedSymbol, decode, format_word, parse_word

from . import gen
from .harness import expect, machine_size, sizes
from .oracles import matching_edges, tokens, wordproblem_groups



def _kernel_name(m) -> str:
    if isinstance(m, Fsa):
        return "machines.fsa_run"
    return "machines.vpa_run" if isinstance(m, Vpa) else "machines.nvpa_run"


class Workload:
    name = "wordproblem"
    # w.w^-1 words nest to depth n/2; cancelling walks stay near sqrt(n)
    shallow_max, deep_min = 8, 256
    tolerated = ()  # a healthy run raises nothing

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.groups = wordproblem_groups()

    # -- set-up: compile the five recognizers and write two for the CLI

    def setup(self):
        t = self.tracer
        n = t.call("groups.build_free_vpa", build_free_vpa, 2)
        t.note(**sizes(n.automaton))
        d = t.call("groups.build_direct_product", build_direct_product, 3, cyclic_group(6))
        t.note(**sizes(d.automaton))
        s2 = t.call("groups.build_semidirect", build_semidirect, 2, 2)
        t.note(**sizes(s2.automaton))
        s3 = t.call("groups.build_semidirect", build_semidirect, 3, 3)
        t.note(**sizes(s3.automaton))
        s4 = t.call("groups.symmetric_group", symmetric_group, 4)
        t.note(states=len(s4.elements), transitions=len(s4.table))
        f4 = t.call("groups.build_finite_fsa", build_finite_fsa, s4)
        self.specs = [
            FreeGroupSpec(2), DirectProductSpec(3, cyclic_group(6)),
            SemidirectProductSpec(2, 2), SemidirectProductSpec(3, 3), s4,
        ]
        self.recs = [n, d, s2, s3, f4]
        self.kernels = [_kernel_name(r.automaton) for r in self.recs]
        self.files = {}
        for label, rec in (("F2", n), ("F3:S3", s3)):
            text = t.call("serialize.dumps", serialize.dumps, rec.automaton)
            t.note(bytes=len(text))
            path = os.path.join(self.workdir, label.replace(":", "_") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files[label] = path
        self.output_transitions = sum(machine_size(r.automaton)[1] for r in self.recs)

    # -- the closed loop

    def blocks(self):
        rng = random.Random(f"{self.seed}:wordproblem:words")
        for index in itertools.count():
            yield gen.group_word_block(rng, self.groups, index)

    def run_op(self, item):
        t = self.tracer
        spec, rec, n = self.specs[item.group], self.recs[item.group], len(item.word)
        trivial = t.call("groups.is_identity", is_identity, spec, item.word, n=n)
        tagged = t.call("groups.annotate_word", annotate_word, spec, item.word, n=n)
        if tagged is None:
            return trivial, None, None, None, None
        if item.flip:
            pos = gen.flip_at(item.flip, n)
            base, tag = tagged[pos]
            sym = TaggedSymbol(base, Tag(gen.other_tag(tag, item.flip[1])))
            tagged = tagged[:pos] + (sym,) + tagged[pos + 1:]
        text = t.call("words.format_word", format_word, tagged, n=n)
        parsed = t.call("words.parse_word", parse_word, text, n=n)
        accepted = t.call(self.kernels[item.group], rec.accepts, parsed, n=n, depth=item.depth)
        nested = t.call("words.decode", decode, parsed, n=n)
        return trivial, tagged, parsed, accepted, nested

    def label(self, item) -> str:
        return f"{self.groups[item.group].label} {item.kind} word of length {len(item.word)}"

    def check(self, item, out) -> None:
        trivial, tagged, parsed, accepted, nested = out
        label = self.label(item)
        tags = self.groups[item.group].tags(item.word)
        expect(trivial == (tags is not None), f"is_identity wrong on {label}")
        if tags is None:
            expect(tagged is None, f"annotate_word tagged the non-trivial {label}")
            return
        expect(tagged is not None, f"annotate_word returned None on the trivial {label}")
        if item.flip:
            pos = gen.flip_at(item.flip, len(tags))
            tags[pos] = gen.other_tag(tags[pos], item.flip[1])
        expect(
            [s.base for s in tagged] == list(item.word) and [int(s.tag) for s in tagged] == tags,
            f"annotate_word is not the canonical tagging of the {label}",
        )
        expect(parsed == tagged, f"parse_word(format_word(w)) != w for the {label}")
        expect(
            accepted == (item.flip is None),
            f"Recognizer.accepts={accepted} contradicts the bijection on the {label}",
        )
        expect(
            nested.word == item.word and nested.matching.edges == matching_edges(tags),
            f"decode gave the wrong nested word for the {label}",
        )

    # -- the CLI: `nestword check` on the F2 and F3:S3 files

    def cli_calls(self) -> list:
        rng = random.Random(f"{self.seed}:wordproblem:cli")
        calls = []
        for gi, label in ((0, "F2"), (3, "F3:S3")):
            g = self.groups[gi]
            for flip in (None, (rng.random(), rng.randrange(2))):
                word, _ = gen.trivial_walk(rng, g, 48)
                tags = g.tags(word)
                if flip:
                    pos = gen.flip_at(flip, len(tags))
                    tags[pos] = gen.other_tag(tags[pos], flip[1])
                argv = ["check", "--automaton", self.files[label], *tokens(zip(word, tags))]
                calls.append((argv, 1 if flip else 0, None))
        return calls

    def trace_extra(self) -> None:
        pass
