"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints one ACCEPTANCE line when it passes; a pytest failure is
the fail line.  Random checks are seeded and deterministic.
"""

import itertools
import random

from oracles import (
    ExtensionOracle,
    astar_bstar_fsa,
    canonical_matching,
    concat_oracle,
    direct_oracle,
    enumerate_taggings,
    free_reduce,
    group_letters,
    random_fsa,
    random_vpa,
    reverse_oracle,
    semidirect_oracle,
    semidirect_relabeling,
    shuffle_oracle,
    star_oracle,
)
from test_cli import DIRECT_F1_Z2, FREE1, FREE2, SEMI_F2_S2, Z2, build, run_cli, write_spec

from nestword.closures import PrefixDecider, shuffle, vpl_complement, vpl_concat, vpl_intersection, vpl_reverse, vpl_star, vpl_union
from nestword.groups import (
    DirectProductSpec,
    SemidirectProductSpec,
    annotate_word,
    build_direct_product,
    build_finite_fsa,
    build_free_vpa,
    build_recognizer,
    build_semidirect,
    cyclic_group,
    free_letters,
    group_spec_from_doc,
    symmetric_group,
)
from nestword.machines import (
    fsa_run,
    nvpa_run,
    vpa_run,
)
from nestword.words import (
    NestedWord,
    TaggedSymbol,
    Tag,
    all_tagged_words,
    decode,
    encode,
    parse_word,
    validate_matching,
)


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def test_c01_encoding_bijection():
    for tw in all_tagged_words(("a", "b"), 6):
        nw = decode(tw)
        assert validate_matching(nw.word, nw.matching) is None
        assert encode(nw) == tw
        assert decode(encode(nw)) == nw
    report("01 encoding-bijection")


def test_c02_textbook_machines():
    fsa = astar_bstar_fsa()
    for length in range(9):
        for w in itertools.product("ab", repeat=length):
            expected = all(not (w[i] == "b" and w[i + 1] == "a") for i in range(len(w) - 1))
            assert fsa_run(fsa, w) == expected
    report("02 textbook-machines")


def test_c03_free_group_rho_bijection():
    recognizer = build_free_vpa(2)
    machine = recognizer.automaton
    letters = free_letters(2)
    for n in range(7):
        for w in itertools.product(letters, repeat=n):
            trivial = not free_reduce(w)
            found = None
            failed = False
            for tw in enumerate_taggings(w):
                if vpa_run(machine, tw).accepted:
                    if found is not None or not trivial:
                        failed = True
                        break
                    found = tw
            assert not failed, f"too many accepted taggings for {w}"
            if trivial:
                assert found is not None, f"no accepted tagging for {w}"
                assert found == encode(NestedWord(w, canonical_matching(w)))
            else:
                assert found is None
    # random long words: canonical tagging accepted, oracle agreement
    rng = random.Random(2025)
    for _ in range(10_000):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(11)))
        trivial = not free_reduce(w)
        if trivial:
            tagged = encode(NestedWord(w, canonical_matching(w)))
            assert vpa_run(machine, tagged).accepted
        else:
            assert canonical_matching(w) is None
            for _ in range(3):
                tags = tuple(
                    TaggedSymbol(c, rng.choice((Tag.CALL, Tag.INTERNAL, Tag.RETURN)))
                    for c in w
                )
                assert not vpa_run(machine, tags).accepted
    report("03 free-group-rho-bijection")


def test_c04_canonical_choice():
    recognizer = build_free_vpa(1)
    word = ("x1", "x1'", "x1", "x1'")
    accepted = [tw for tw in enumerate_taggings(word) if recognizer.accepts(tw)]
    assert len(accepted) == 1
    assert sorted(decode(accepted[0]).matching.edges) == [(1, 2), (3, 4)]
    crossing_free = parse_word("<x1 <x1' x1> x1'>")  # matching {(1,4),(2,3)}
    assert sorted(decode(crossing_free).matching.edges) == [(1, 4), (2, 3)]
    assert not recognizer.accepts(crossing_free)
    report("04 canonical-choice")


def test_c05_closure_algebra_vs_oracles():
    rng = random.Random(424242)
    words6 = list(all_tagged_words(("a", "b"), 6))
    words5 = [w for w in words6 if len(w) <= 5]
    for pair_index in range(50):
        m1 = random_vpa(rng, n_states=rng.randrange(2, 5), n_stack=rng.choice((1, 2)))
        m2 = random_vpa(rng, n_states=rng.randrange(2, 5), n_stack=rng.choice((1, 2)))
        mem1 = {w: vpa_run(m1, w).accepted for w in words6}
        mem2 = {w: vpa_run(m2, w).accepted for w in words6}
        union = vpl_union(m1, m2)
        inter = vpl_intersection(m1, m2)
        comp = vpl_complement(m1)
        cat = vpl_concat(m1, m2)
        star = vpl_star(m1)
        rev = vpl_reverse(m1)
        prefix = PrefixDecider(m1)
        extension = ExtensionOracle(m1)
        for w in words6:
            assert vpa_run(union, w).accepted == (mem1[w] or mem2[w])
            assert vpa_run(inter, w).accepted == (mem1[w] and mem2[w])
            assert vpa_run(comp, w).accepted == (not mem1[w])
            assert nvpa_run(cat, w) == concat_oracle(mem1, mem2, w)
            assert nvpa_run(rev, w) == reverse_oracle(mem1, w)
            assert prefix.member(w) == extension.member(w)
        for w in words5:
            assert nvpa_run(star, w) == star_oracle(mem1, w)
    report("05 closure-algebra-vs-oracles")


def test_c06_shuffle_interleavings():
    cases = []
    free1 = build_free_vpa(1).automaton
    z2 = build_finite_fsa(cyclic_group(2)).automaton
    cases.append((free1, z2))
    rng = random.Random(606)
    for _ in range(2):
        cases.append((random_vpa(rng, alphabet=("a", "b")), random_fsa(rng, alphabet=("c",))))
    for m, r in cases:
        combined = shuffle(m, r)
        alphabet = combined.alphabet
        for w in all_tagged_words(alphabet, 6):
            assert vpa_run(combined, w).accepted == shuffle_oracle(m, r, w)
    report("06 shuffle-interleavings")


def test_c07_direct_product():
    z2 = cyclic_group(2)
    recognizer = build_direct_product(1, z2)
    letters = group_letters(DirectProductSpec(1, z2))
    machine = recognizer.automaton
    # rho image equals the evaluator's trivial set, length <= 6
    for n in range(7):
        for w in itertools.product(letters, repeat=n):
            trivial = direct_oracle(1, z2, w)
            if trivial:
                tagged = annotate_word(DirectProductSpec(1, z2), w)
                assert tagged is not None and vpa_run(machine, tagged).accepted
                if n <= 5:
                    count = sum(
                        1 for tw in enumerate_taggings(w) if vpa_run(machine, tw).accepted
                    )
                    assert count == 1
            else:
                assert not any(
                    vpa_run(machine, tw).accepted for tw in enumerate_taggings(w)
                )
    report("07 direct-product")


def test_c08_semidirect_product():
    spec = SemidirectProductSpec(2, 2)
    recognizer = build_semidirect(2, 2)
    machine = recognizer.automaton
    letters = group_letters(spec)
    for n in range(6):
        for w in itertools.product(letters, repeat=n):
            trivial = semidirect_oracle(2, 2, w)
            if trivial:
                tagged = annotate_word(spec, w)
                assert tagged is not None and vpa_run(machine, tagged).accepted
                if n <= 4:
                    count = sum(1 for tw in enumerate_taggings(w) if vpa_run(machine, tw).accepted)
                    assert count == 1
            else:
                assert not any(vpa_run(machine, tw).accepted for tw in enumerate_taggings(w))
    rng = random.Random(808)
    for _ in range(10_000):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(9)))
        trivial = semidirect_oracle(2, 2, w)
        tagged = annotate_word(spec, w)
        assert (tagged is not None) == trivial
        if trivial:
            assert vpa_run(machine, tagged).accepted
    report("08 semidirect-product")


def test_c09_relabeling_preservation():
    # witnessed pairs: members of the shuffled pre-image language (length <= 5)
    free = build_free_vpa(2).automaton
    cayley = build_finite_fsa(symmetric_group(2)).automaton
    shuffled = shuffle(free, cayley)
    phi = semidirect_relabeling(2, 2)
    image_members = set()
    witnessed = 0
    for u in all_tagged_words(shuffled.alphabet, 5):
        if not vpa_run(shuffled, u).accepted:
            continue
        outputs = phi.apply(u)
        assert len(outputs) == 1
        w = outputs[0]
        witnessed += 1
        assert len(w) == len(u)
        assert decode(w).matching == decode(u).matching
        image_members.add(w)
    assert witnessed > 50
    # the built semidirect machine accepts every witnessed image
    machine = build_semidirect(2, 2).automaton
    for w in image_members:
        assert vpa_run(machine, w).accepted
    report("09 relabeling-preservation")


def test_c10_cli_round_trip(tmp_path):
    from nestword import serialize
    from nestword.machines import Fsa, Vpa

    specs = {"free2": FREE2, "z2": Z2, "direct": DIRECT_F1_Z2, "semi": SEMI_F2_S2}
    rng = random.Random(1010)
    for stem, doc in specs.items():
        aut_path, _ = build(tmp_path, doc, stem)
        on_disk = serialize.load(aut_path)
        in_memory = build_recognizer(group_spec_from_doc(doc))
        letters = group_letters(group_spec_from_doc(doc))
        symbols = [TaggedSymbol(c, t) for c in letters for t in Tag]
        for _ in range(1000):
            tw = tuple(rng.choice(symbols) for _ in range(rng.randrange(9)))
            expected = in_memory.accepts(tw)
            if isinstance(on_disk, Fsa):
                got = all(s.tag is Tag.INTERNAL for s in tw) and fsa_run(
                    on_disk, [s.base for s in tw]
                )
            elif isinstance(on_disk, Vpa):
                got = vpa_run(on_disk, tw).accepted
            else:
                got = nvpa_run(on_disk, tw)
            assert got == expected
    # twenty golden invocations with the 0/1/2 exit contract
    free2_spec = write_spec(tmp_path, "g_free2.json", FREE2)
    free1_spec = write_spec(tmp_path, "g_free1.json", FREE1)
    bad_semi = write_spec(tmp_path, "g_bad.json", {"kind": "semidirect", "n": 1, "m": 2})
    free1_aut, _ = build(tmp_path, FREE1, "g_free1")
    free2_aut = tmp_path / "g_free2.aut.json"
    assert run_cli("build", "--group", free2_spec, "--out", free2_aut)[0] == 0
    golden = [
        (("build", "--group", free2_spec, "--out", tmp_path / "g1.json"), 0),
        (("build", "--group", write_spec(tmp_path, "g_z2.json", Z2), "--out", tmp_path / "g2.json"), 0),
        (("build", "--group", write_spec(tmp_path, "g_d.json", DIRECT_F1_Z2), "--out", tmp_path / "g3.json"), 0),
        (("build", "--group", write_spec(tmp_path, "g_s.json", SEMI_F2_S2), "--out", tmp_path / "g4.json"), 0),
        (("build", "--group", bad_semi, "--out", tmp_path / "g5.json"), 2),
        (("build", "--group", tmp_path / "missing.json", "--out", tmp_path / "g6.json"), 1),
        (("check", "--automaton", free2_aut, "<x1", "x1'>"), 0),
        (("check", "--automaton", free2_aut, "x1", "x1'>"), 1),
        (("check", "--automaton", free2_aut, "x1", "x1"), 2),
        (("check", "--automaton", free2_aut), 0),
        (("check", "--automaton", free2_aut, "<"), 2),
        (("annotate", "--group", free1_spec, "x1", "x1'"), 0),
        (("annotate", "--group", free1_spec, "x1"), 1),
        (("annotate", "--group", free1_spec, "<x1"), 2),
        (("oracle", "--group", free2_spec, "x1", "x2", "x2'", "x1'"), 0),
        (("oracle", "--group", free2_spec, "x1"), 1),
        (("oracle", "--group", free2_spec, "x>1<"), 2),
        (("enum", "--automaton", free1_aut, "--max-len", "2"), 0),
        (("enum", "--automaton", free1_aut, "--max-len", "12"), 2),
        (("closure", "--op", "union", "--inputs", free1_aut), 2),
    ]
    assert len(golden) == 20
    for args, expected in golden:
        code = run_cli(*args)[0]
        assert code == expected, (args, code, expected)
    report("10 cli-round-trip")
