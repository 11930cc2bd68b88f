"""Standard-library-only smoke of the run kernels and constructions
against their references, and of the serialized bytes against the golden
digests, for interpreters that have no pytest:

    PYTHONPATH=src python tests/nvpa_smoke.py

Runs every tagged word of length <= 4 over two letters, 20 walks of up
to 80 letters, and walks that go 22 calls deep whose frames fork to
several entries and rejoin to one (`fork_walks`), on the reverse, star
and concat closures and the NVPA embedding of seeded random VPAs, and
`fork_nvpa_words` on `fork_nvpa`, checking that those runs take every
path of the summary run (`summary_lanes`); runs `vpa_run` (with and
without a trace) and `machine_accepts` on each of those VPAs against the
reference VPA run, over every tagged word of length <= 3 that may also
hold a letter outside the alphabet, and those walks; runs both kernels
the same way on each machine's twin read back from its document, and on
words ending in a symbol whose tag equals no Tag, which must raise as
the references do;
runs `vpa_run` (with and without a trace) and `machine_accepts` on
seeded random FSAs and their twins read back from their documents
against the reference VPA run of their all-internal VPA reading, over
the same kinds of words, and `fsa_run` against a walk of the FSA's table
over every plain word of length <= 3 that may hold an outside letter;
runs `vpa_run` and `machine_accepts` the same way on a VPA whose states
0 and 1, pushable True and bottom False are equal by value across kinds,
and on its twin, where a result whose repr differs from the reference's
(a state 1 reported as True) counts as a disagreement;
checks that each of the six VPL closures of those VPAs, their shuffle
with a random FSA and their images under an identity and a
non-functional relabeling equal canonicalize of the whole machine its
reference builder makes, and that each product
builder dumps as its whole-table reference does; checks that the
regular concatenation, star and reversal of seeded FSAs (some with no
accept states, some with an accepting initial state) dump as their
determinized epsilon-NFA references do; checks `is_identity`
and `annotate_word` against the reference reduction on seeded words of
a free, a finite, a direct and a semidirect product group, some trivial,
some holding a letter outside the alphabet, some of 4,096 letters that are
trivial or one letter from it, and runs each tagging and a one-tag flip of
it through the group's VPA by `vpa_run` and `machine_accepts` against the
reference; checks `decode` against the reference on seeded tagged words
given as tuples, as lists and with int tags, and its error text on a word
holding a tag that equals no Tag; checks that `dumps` prints
seeded machines labelled with numbers whose texts extend one another, with
strings holding ", ", "]", a quote or a backslash, with pairs, and with
labels equal to a state but of another type (1.0 and True for 1), the
VPA above, and a VPA and an NVPA whose documents hold more distinct
tokens than the token memo keeps, as the reference writer does, that
`loads` reads each document back as the reference reader does, keeping
the same labels in every transition table, and that `dumps` of what it
reads is the document again; checks that `loads` reads a VPA and an NVPA
document whose keys repeat as the reference reader does; checks that
every search the VPL closures, shuffle, re-labelings and canonicalize
make on 200 seeded cases (`search_cases`) names, orders and keeps
exactly what the reference search does on the same lookups; then checks that the golden closure, builder and regular
machines dump to the pinned digests.
Exits 1 on the first disagreement.  Run under two PYTHONHASHSEED values,
it also shows that no canonical name depends on hashing.
"""
import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    GOLDEN_BUILDER_DIGEST,
    GOLDEN_CLOSURE_DIGEST,
    GOLDEN_REGULAR_DIGEST,
    PRODUCT_SPECS,
    REGULAR_GLUING_REFERENCES,
    REPEATED_KEY_DOCUMENTS,
    SPEC_KINDS,
    SUMMARY_LANES,
    VPL_CLOSURE_REFERENCES,
    dumps_digest,
    fork_nvpa,
    fork_nvpa_words,
    fork_walks,
    forked_relabeling,
    golden_builder_machines,
    golden_closure_machines,
    golden_regular_machines,
    gluing_inputs,
    group_letters,
    identity_relabeling,
    mixed_label_vpa,
    nvpa_from_vpa,
    random_fsa,
    random_vpa,
    random_walk,
    reader_disagreement,
    reference_annotate_word,
    reference_build_product,
    reference_decode,
    reference_dumps,
    reference_fsa_run,
    reference_is_identity,
    reference_nvpa_run,
    reference_relabel_image,
    reference_shuffle,
    reference_vpa_from_fsa,
    reference_vpa_run,
    search_cases,
    search_disagreement,
    summary_lanes,
    tricky_label_machines,
    trivial_word,
    wide_alphabet_machines,
)

from nestword.closures import relabel_image, shuffle, vpl_concat, vpl_reverse, vpl_star  # noqa: E402
from nestword.groups import annotate_word, build_recognizer, is_identity  # noqa: E402
from nestword.machines import Vpa, canonicalize, fsa_run, machine_accepts, nvpa_run, vpa_run  # noqa: E402
from nestword.serialize import dumps, loads  # noqa: E402
from nestword.words import Tag, TaggedSymbol, all_tagged_words, decode  # noqa: E402


def outcome(f, *args):
    """f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def vpa_disagreement(m, tw, reference=None) -> str | None:
    """What vpa_run (traced or not) or machine_accepts answers differently
    on m from the reference VPA run on tw of `reference` (m itself, if
    None), if anything.  Answers that are equal but differ in repr
    disagree too: a label of another type (True for the state 1) is
    equal to the right one."""
    reference = m if reference is None else reference
    for trace in (False, True):
        got, want = outcome(vpa_run, m, tw, trace), outcome(reference_vpa_run, reference, tw, trace)
        if got != want or repr(got) != repr(want):
            return f"vpa_run(record_trace={trace}) gives {got!r}, the reference {want!r}"
    want = outcome(lambda: reference_vpa_run(reference, tw).accepted)
    got = outcome(machine_accepts, m, tw)
    return None if got == want else f"machine_accepts gives {got}, the reference {want}"


def serialize_disagreement(m) -> str | None:
    """Where dumps or loads differs from the reference writer or reader on
    m, or printing what loads reads changes the text, if anywhere."""
    text = dumps(m)
    if text != reference_dumps(m):
        return "dumps differs from the reference"
    problem = reader_disagreement(text)
    if problem is not None:
        return problem
    return None if dumps(loads(text)) == text else "dumps of what loads reads differs from the document"


def group_disagreement(spec, rec, word) -> str | None:
    """What is_identity, annotate_word, or a run of the recognizer on the
    tagging or on a one-tag flip of it, answers differently from the
    references on word, if anything."""
    tagged = outcome(annotate_word, spec, word)
    for name, got, want in (
        ("is_identity", outcome(is_identity, spec, word), outcome(reference_is_identity, spec, word)),
        ("annotate_word", tagged, outcome(reference_annotate_word, spec, word)),
    ):
        if got != want:
            return f"{name} gives {got}, the reference {want}"
    if not isinstance(rec, Vpa) or not isinstance(tagged, tuple):
        return None
    runs = [tagged]
    if tagged:
        pos = len(word) // 2
        base, tag = tagged[pos]
        runs.append(tagged[:pos] + (TaggedSymbol(base, (tag + 1) % 3),) + tagged[pos + 1:])
    for tw in runs:
        problem = vpa_disagreement(rec, tw)
        if problem is not None:
            return problem
    return None


def main() -> int:
    words = list(all_tagged_words(("a", "b"), 4))
    vpa_words = list(all_tagged_words(("a", "b", "x9"), 3))
    bad_tags = [tw + (TaggedSymbol(base, tag),) for tw in all_tagged_words(("a", "b"), 2)
                for base in ("a", "x9") for tag in (3, -1)]
    fsa_words = list(all_tagged_words(("c", "d", "x9"), 3))
    fsa_words += [tw + (TaggedSymbol(base, tag),) for tw in all_tagged_words(("c", "d"), 2)
                  for base in ("c", "x9") for tag in (3, -1)]
    plain_words = [w for n in range(4) for w in itertools.product(("c", "d", "x9"), repeat=n)]
    runs = accepted = built = documents = searched = 0
    lanes = set()
    fork = fork_nvpa()
    for twin in (fork, loads(dumps(fork))):
        for tw in fork_nvpa_words():
            lanes |= summary_lanes(twin, tw)
            got, want = nvpa_run(twin, tw), reference_nvpa_run(twin, tw)
            if got != want:
                print(f"fork_nvpa: nvpa_run says {got}, the reference {want}, on {tw}")
                return 1
            runs += 1
            accepted += got
    for seed in range(30):
        rng = random.Random(seed)
        m = random_vpa(rng, 1 + seed % 5, n_stack=1 + seed % 3)
        p = random_vpa(rng, 3)
        walks = [random_walk(m, rng, 40) + random_walk(p, rng, 40) for _ in range(20)]
        for twin in (m, loads(dumps(m))):
            for tw in vpa_words + bad_tags + walks:
                problem = vpa_disagreement(twin, tw)
                if problem is not None:
                    print(f"seed {seed}: on {tw}, {problem}")
                    return 1
                runs += 1
        forks = fork_walks(m, p, random.Random(f"fork {seed}"))
        for n in (vpl_reverse(m), vpl_star(m), vpl_concat(m, p), nvpa_from_vpa(m)):
            for tw in forks:
                lanes |= summary_lanes(n, tw)
            for twin in (n, loads(dumps(n))):
                for tw in words + bad_tags + walks + forks:
                    got, want = outcome(nvpa_run, twin, tw), outcome(reference_nvpa_run, twin, tw)
                    if got != want:
                        print(f"seed {seed}: nvpa_run says {got}, the reference {want}, on {tw}")
                        return 1
                    runs += 1
                    accepted += got is True
        for name, closure, reference, arity in VPL_CLOSURE_REFERENCES:
            args = (m, p)[:arity]
            if closure(*args) != canonicalize(reference(*args)):
                print(f"seed {seed}: vpl_{name} differs from canonicalize of its reference builder")
                return 1
            built += 1
        r = random_fsa(rng, 1 + seed % 4)
        for twin in (r, loads(dumps(r))):
            reading = reference_vpa_from_fsa(twin)
            for tw in fsa_words:
                problem = vpa_disagreement(twin, tw, reading)
                if problem is not None:
                    print(f"seed {seed}: on the FSA and {tw}, {problem}")
                    return 1
                runs += 1
            for w in plain_words:
                got, want = outcome(fsa_run, twin, w), outcome(reference_fsa_run, twin, w)
                if got != want:
                    print(f"seed {seed}: fsa_run says {got}, the reference {want}, on {w}")
                    return 1
                runs += 1
        pairs = [("shuffle", shuffle(m, r), reference_shuffle(m, r))]
        for phi in (identity_relabeling(m.alphabet), forked_relabeling()):
            pairs.append(("relabel_image", relabel_image(m, phi), reference_relabel_image(m, phi)))
        for name, got, reference in pairs:
            if dumps(got) != dumps(canonicalize(reference)):
                print(f"seed {seed}: {name} differs from canonicalize of its reference builder")
                return 1
            built += 1
    if lanes != SUMMARY_LANES:
        print(f"the NVPA runs never took {sorted(SUMMARY_LANES - lanes)}")
        return 1
    for pair in gluing_inputs():
        for name, gluing, reference, arity in REGULAR_GLUING_REFERENCES:
            args = pair[:arity]
            if dumps(gluing(*args)) != dumps(reference(*args)):
                print(f"reg_{name} differs from its NFA reference on {args}")
                return 1
            built += 1
    mixed = mixed_label_vpa()
    for twin in (mixed, loads(dumps(mixed))):
        for tw in vpa_words + bad_tags:
            problem = vpa_disagreement(twin, tw)
            if problem is not None:
                print(f"on the VPA with labels equal across kinds and {tw}, {problem}")
                return 1
            runs += 1
    for spec in SPEC_KINDS:
        rng = random.Random(type(spec).__name__)
        rec = build_recognizer(spec).automaton
        letters = group_letters(spec)
        for i in range(400):
            if i % 2:
                word = list(trivial_word(rng, spec, rng.randrange(0, 41, 2)))
            else:
                word = [rng.choice(letters) for _ in range(rng.randrange(13))]
            if i % 5 == 4:  # one letter outside the alphabet, anywhere
                word.insert(rng.randrange(len(word) + 1), "y1")
            problem = group_disagreement(spec, rec, word)
            if problem is not None:
                print(f"{type(spec).__name__}: on {word}, {problem}")
                return 1
            runs += 1
        trivial = trivial_word(rng, spec, 4096)
        pending = next(c for c in letters if not reference_is_identity(spec, (c,)))
        for word in (trivial, trivial[:-1], trivial + (pending,), (pending,) + trivial):
            problem = group_disagreement(spec, rec, word)
            if problem is not None:
                print(f"{type(spec).__name__}: on a word of {len(word)} letters, {problem}")
                return 1
            runs += 1
    pool = [TaggedSymbol(base, tag) for base in ("a", "b'") for tag in Tag]
    for seed in range(40):
        rng = random.Random(f"decode {seed}")
        tw = tuple(rng.choices(pool, k=rng.randrange(4096 if seed % 8 == 0 else 40)))
        want = reference_decode(tw)
        twin = [TaggedSymbol(base, int(tag)) for base, tag in tw]
        for form in (tw, list(tw), twin, tuple(twin)):
            if decode(form) != want:
                print(f"decode of the {type(form).__name__} {form} differs from the reference's")
                return 1
            runs += 1
        pos = rng.randrange(len(tw) + 1)
        bad = tw[:pos] + (TaggedSymbol("b'", 3),) + tw[pos:]
        got = outcome(decode, bad)
        if got != "tag 3 on \"b'\" is not a call, internal or return tag":
            print(f"decode of {bad} gives {got!r}")
            return 1
        runs += 1
    for seed in range(200):
        for m in [*tricky_label_machines(random.Random(seed)), mixed]:
            problem = serialize_disagreement(m)
            if problem is not None:
                print(f"seed {seed}: on {m!r}, {problem}")
                return 1
            documents += 1
    for m in wide_alphabet_machines():
        problem = serialize_disagreement(m)
        if problem is not None:
            print(f"on the {type(m).__name__} with 4,200 distinct tokens, {problem}")
            return 1
        documents += 1
    for text in REPEATED_KEY_DOCUMENTS:
        problem = reader_disagreement(text)
        if problem is not None:
            print(f"on a document whose keys repeat, {problem}")
            return 1
        documents += 1
    for seed in range(200):
        for name, build in search_cases(seed):
            problem = search_disagreement(build)
            if problem is not None:
                print(f"seed {seed}: {name}: {problem}")
                return 1
            searched += 1
    for spec in PRODUCT_SPECS:
        if dumps(build_recognizer(spec).automaton) != dumps(reference_build_product(spec).automaton):
            print(f"{type(spec).__name__}(n={spec.n}): the product builder differs from its reference")
            return 1
        built += 1
    for what, machines, pinned in (
        ("closure", golden_closure_machines(), GOLDEN_CLOSURE_DIGEST),
        ("builder", golden_builder_machines(), GOLDEN_BUILDER_DIGEST),
        ("regular", golden_regular_machines(), GOLDEN_REGULAR_DIGEST),
    ):
        digest, _ = dumps_digest(machines)
        if digest != pinned:
            print(f"golden {what} machines dump to {digest}, pinned {pinned}")
            return 1
    print(
        f"Python {sys.version.split()[0]}: {runs} runs and words agree ({accepted} NVPA runs accepted); "
        f"{built} closures and builders equal their references; {documents} documents print and read "
        f"as the reference's; {searched} builds search as the reference search does; golden digests match"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
