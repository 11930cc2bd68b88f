"""Closure constructions against brute-force set-theoretic oracles."""

import dataclasses
import itertools
import random
import time

import pytest

from oracles import (
    REGULAR_GLUING_REFERENCES,
    VPL_CLOSURE_REFERENCES,
    ExtensionOracle,
    astar_bstar_fsa,
    concat_oracle,
    exact_state_tops,
    forked_relabeling,
    full_vpa_product,
    full_vpl_complement,
    gluing_inputs,
    identity_relabeling,
    interleavings,
    internal_word,
    pair_product,
    random_fsa,
    random_nfa,
    random_vpa,
    reference_canonicalize_fsa,
    reference_fsa_determinize,
    reference_reg_complement,
    reference_reg_concat,
    reference_reg_intersection,
    reference_reg_prefix,
    reference_reg_reverse,
    reference_reg_star,
    reference_reg_union,
    reference_relabel_image,
    reference_shuffle,
    reference_state_only,
    reference_vpl_complement,
    reference_vpl_concat,
    reference_vpl_intersection,
    reference_vpl_star,
    reference_vpl_union,
    rename_machine,
    reverse_oracle,
    semidirect_relabeling,
    shuffle_oracle,
    star_oracle,
    vpa_language,
    well_matched_pairs_sweep,
)

from nestword.groups import build_finite_fsa, symmetric_group
from nestword.closures import (
    AlphabetMismatch,
    NonDisjointAlphabets,
    PrefixDecider,
    Relabeling,
    reg_complement,
    reg_concat,
    reg_intersection,
    reg_prefix,
    reg_reverse,
    reg_star,
    reg_union,
    relabel_image,
    shuffle,
    vpa_is_empty,
    vpl_complement,
    vpl_concat,
    vpl_equivalent,
    vpl_intersection,
    vpl_reverse,
    vpl_star,
    vpl_union,
)
from nestword.machines import (
    Fsa,
    Nfa,
    Nvpa,
    Vpa,
    canonicalize,
    fsa_determinize,
    fsa_run,
    nvpa_run,
    vpa_run,
)
from nestword.serialize import dumps
from nestword.groups import build_free_vpa
from nestword.words import Tag, TaggedSymbol, all_tagged_words, decode, parse_word, reverse as reverse_word


def plain_words(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def singleton_vpa(text, alphabet=("a", "b")) -> Vpa:
    """Chain machine accepting exactly the given tagged word."""
    tw = parse_word(text)
    states = [f"c{i}" for i in range(len(tw) + 1)]
    stack = [f"k{i}" for i in range(len(tw))]
    delta_c, delta_i, delta_r = {}, {}, {}
    sim_stack = ["$"]
    for i, sym in enumerate(tw):
        if sym.tag is Tag.CALL:
            delta_c[(states[i], sym.base)] = (states[i + 1], stack[i])
            sim_stack.append(stack[i])
        elif sym.tag is Tag.INTERNAL:
            delta_i[(states[i], sym.base)] = states[i + 1]
        else:
            delta_r[(states[i], sym.base, sim_stack[-1])] = states[i + 1]
            if len(sim_stack) > 1:
                sim_stack.pop()
    return Vpa(
        alphabet, states, stack, "$", states[0], {states[-1]},
        set(stack), delta_c, delta_i, delta_r,
    )


def empty_vpa(alphabet=("a", "b")) -> Vpa:
    return Vpa(alphabet, {"q"}, set(), "$", "q", set(), set(), {}, {}, {})


def all_accepting_vpa(alphabet=("a", "b")) -> Vpa:
    delta_c = {("q", a): ("q", "g") for a in alphabet}
    delta_i = {("q", a): "q" for a in alphabet}
    delta_r = {("q", a, g): "q" for a in alphabet for g in ("g", "$")}
    return Vpa(alphabet, {"q"}, {"g"}, "$", "q", {"q"}, {"g"}, delta_c, delta_i, delta_r)


# ---------------------------------------------------------------------------
# regular closures


def test_reg_complement_involution():
    m = astar_bstar_fsa()
    twice = reg_complement(reg_complement(m))
    for w in plain_words(("a", "b"), 8):
        assert fsa_run(twice, w) == fsa_run(m, w)


def test_reg_complement_flips():
    m = astar_bstar_fsa()
    c = reg_complement(m)
    for w in plain_words(("a", "b"), 6):
        assert fsa_run(c, w) != fsa_run(m, w)


def test_reg_intersection_with_universe():
    m = astar_bstar_fsa()
    universe = Fsa(("a", "b"), {"u"}, "u", {"u"}, {("u", "a"): "u", ("u", "b"): "u"})
    inter = reg_intersection(m, universe)
    for w in plain_words(("a", "b"), 6):
        assert fsa_run(inter, w) == fsa_run(m, w)


def test_reg_concat_single_letters():
    a = Fsa(("a", "b"), {0, 1}, 0, {1}, {(0, "a"): 1})
    b = Fsa(("a", "b"), {0, 1}, 0, {1}, {(0, "b"): 1})
    cat = reg_concat(a, b)
    for w in plain_words(("a", "b"), 4):
        assert fsa_run(cat, w) == (w == ("a", "b"))


def test_reg_ops_against_oracles_random():
    rng = random.Random(41)
    words = list(plain_words(("c", "d"), 6))
    for _ in range(5):
        m1, m2 = random_fsa(rng), random_fsa(rng)
        mem1 = {w: fsa_run(m1, w) for w in words}
        mem2 = {w: fsa_run(m2, w) for w in words}
        union = reg_union(m1, m2)
        inter = reg_intersection(m1, m2)
        comp = reg_complement(m1)
        cat = reg_concat(m1, m2)
        star = reg_star(m1)
        rev = reg_reverse(m1)
        pre = reg_prefix(m1)
        accepted = [w for w in words if mem1[w]]
        prefixes = {w[:k] for w in accepted for k in range(len(w) + 1)}
        for w in words:
            assert fsa_run(union, w) == (mem1[w] or mem2[w])
            assert fsa_run(inter, w) == (mem1[w] and mem2[w])
            assert fsa_run(comp, w) == (not mem1[w])
            assert fsa_run(cat, w) == any(
                mem1[w[:k]] and mem2[w[k:]] for k in range(len(w) + 1)
            )
            assert fsa_run(rev, w) == mem1[w[::-1]]
            if len(w) <= 5:
                assert fsa_run(star, w) == star_oracle(mem1, w)
            if w in prefixes:
                assert fsa_run(pre, w)


def test_reg_prefix_rejects_nonprefixes():
    # {ab} has prefixes ε, a, ab
    m = Fsa(("a", "b"), {0, 1, 2}, 0, {2}, {(0, "a"): 1, (1, "b"): 2})
    pre = reg_prefix(m)
    assert fsa_run(pre, "")
    assert fsa_run(pre, "a")
    assert fsa_run(pre, "ab")
    assert not fsa_run(pre, "b")
    assert not fsa_run(pre, "abb")


def test_reg_alphabet_mismatch():
    m1 = Fsa(("a",), {0}, 0, {0}, {})
    m2 = Fsa(("b",), {0}, 0, {0}, {})
    with pytest.raises(AlphabetMismatch):
        reg_union(m1, m2)


REGULAR_LIBRARY = {
    "union": reg_union, "intersection": reg_intersection, "complement": reg_complement,
    "concat": reg_concat, "star": reg_star, "reverse": reg_reverse, "prefix": reg_prefix,
    "canonicalize": canonicalize,
}
REGULAR_REFERENCE = {
    "union": reference_reg_union, "intersection": reference_reg_intersection,
    "complement": reference_reg_complement, "prefix": reference_reg_prefix,
    "canonicalize": reference_canonicalize_fsa, "concat": reference_reg_concat,
    "star": reference_reg_star, "reverse": reference_reg_reverse,
}
BINARY_REGULAR = ("union", "intersection", "concat")


def _regular_texts(builders: dict, names, m1: Fsa, m2: Fsa) -> dict:
    """The dumps text of each named builder's output on m1 (and m2)."""
    return {
        name: dumps(builders[name](m1, m2) if name in BINARY_REGULAR else builders[name](m1))
        for name in names
    }


def _assert_regular_matches_references(m1: Fsa, m2: Fsa, names=tuple(REGULAR_LIBRARY)) -> None:
    got = _regular_texts(REGULAR_LIBRARY, names, m1, m2)
    want = _regular_texts(REGULAR_REFERENCE, names, m1, m2)
    for name in names:
        assert got[name] == want[name], name


def test_regular_outputs_match_reference_builders():
    # seeded pairs of 1-5 states, moves drawn with density 0.3-1.0
    rng = random.Random(20261019)
    for i in range(150):
        alphabet = ("a", "b", "c")[: 1 + i % 3]
        density = 0.3 + 0.7 * (i % 8) / 7
        m1 = random_fsa(rng, 1 + i % 5, alphabet=alphabet, density=density)
        m2 = random_fsa(rng, 1 + rng.randrange(5), alphabet=alphabet, density=density)
        _assert_regular_matches_references(m1, m2)
        nested = reg_complement(reg_union(m1, reg_star(m2)))
        _assert_regular_matches_references(nested, reg_intersection(m2, m1))


@pytest.mark.parametrize(
    "gluing, reference, arity", [entry[1:] for entry in REGULAR_GLUING_REFERENCES],
    ids=[entry[0] for entry in REGULAR_GLUING_REFERENCES],
)
def test_regular_gluings_match_their_nfa_references(gluing, reference, arity):
    # subset constructions read from the input tables against the
    # determinized epsilon-NFA gluings, on inputs with no accept states
    # and with an accepting initial state among them
    for pair in gluing_inputs():
        args = pair[:arity]
        assert dumps(gluing(*args)) == dumps(reference(*args)), args


def test_regular_edge_cases_match_reference_builders():
    ab = ("a", "b")
    one_state = Fsa(ab, {"x"}, "x", {"x"}, {})
    no_moves = Fsa(ab, {0, 1, 2}, 0, {1}, {})
    every_move = Fsa(ab, {0, 1}, 0, {1}, {(q, a): 1 - q for q in (0, 1) for a in ab})
    no_accepts = Fsa(ab, {0, 1}, 0, set(), {(0, "a"): 1, (1, "b"): 0})
    loop = Fsa(ab, {"u"}, "u", {"u"}, {("u", a): "u" for a in ab})
    for m1 in (one_state, no_moves, every_move, no_accepts, loop):
        for m2 in (one_state, no_moves, every_move, no_accepts, loop):
            _assert_regular_matches_references(m1, m2)
    # the S4 Cayley FSA under every op but concat and star, kept out to
    # keep the test short
    s4 = build_finite_fsa(symmetric_group(4)).automaton
    _assert_regular_matches_references(
        s4, s4, names=("union", "intersection", "complement", "reverse", "prefix", "canonicalize")
    )


def test_determinize_matches_reference_builder():
    no_initial = Nfa(("a",), {"s"}, set(), {"s"}, {("s", "a"): {"s"}})
    eps_cycle = Nfa(
        ("a", "b"), {0, 1, 2}, {0}, {2},
        {(0, None): {1}, (1, None): {0, 2}, (2, "a"): {0}, (1, "b"): {1, 2}},
    )
    nothing = Nfa(("a",), {"s"}, {"s"}, set(), {})
    rng = random.Random(7)
    randoms = [
        random_nfa(rng, 1 + i % 5, alphabet=("a", "b", "c")[: 1 + i % 3], density=0.1 + 0.05 * (i % 10))
        for i in range(200)
    ]
    for n in (no_initial, eps_cycle, nothing, *randoms):
        assert dumps(fsa_determinize(n)) == dumps(reference_fsa_determinize(n))


# ---------------------------------------------------------------------------
# VPL boolean closures


def test_vpl_union_with_empty_language():
    m = singleton_vpa("<a a>")
    u = vpl_union(m, empty_vpa())
    for tw in all_tagged_words(("a", "b"), 6):
        assert vpa_run(u, tw).accepted == vpa_run(m, tw).accepted


def test_vpl_union_two_singletons():
    u = vpl_union(singleton_vpa("<a a>"), singleton_vpa("b"))
    expected = {parse_word("<a a>"), parse_word("b")}
    assert vpa_language(u, 4) == expected


def test_vpl_union_commutes():
    m1, m2 = singleton_vpa("<a b>"), singleton_vpa("b a")
    left, right = vpl_union(m1, m2), vpl_union(m2, m1)
    assert vpa_language(left, 5) == vpa_language(right, 5)


def test_vpl_intersection_idempotent():
    m = singleton_vpa("<a a>")
    i = vpl_intersection(m, m)
    for tw in all_tagged_words(("a", "b"), 6):
        assert vpa_run(i, tw).accepted == vpa_run(m, tw).accepted


def test_vpl_intersection_free_with_complement_empty():
    m = build_free_vpa(1).automaton
    i = vpl_intersection(m, vpl_complement(m))
    assert vpa_language(i, 6) == set()


def test_vpl_intersection_of_overlapping_sets():
    m1 = vpl_union(singleton_vpa("<a a>"), singleton_vpa("b"))
    m2 = vpl_union(singleton_vpa("b"), singleton_vpa("<a b>"))
    inter = vpl_intersection(m1, m2)
    assert vpa_language(inter, 4) == {parse_word("b")}


def test_vpl_complement_flips_membership():
    rng = random.Random(17)
    m = random_vpa(rng)
    c = vpl_complement(m)
    for tw in all_tagged_words(("a", "b"), 6):
        assert vpa_run(c, tw).accepted != vpa_run(m, tw).accepted


def test_vpl_complement_of_universe_is_empty():
    c = vpl_complement(all_accepting_vpa())
    assert vpa_language(c, 5) == set()


def test_vpl_double_complement():
    m = singleton_vpa("<a b>")
    twice = vpl_complement(vpl_complement(m))
    for tw in all_tagged_words(("a", "b"), 6):
        assert vpa_run(twice, tw).accepted == vpa_run(m, tw).accepted


def test_vpl_boolean_outputs_are_deterministic_vpa():
    m1, m2 = singleton_vpa("<a a>"), singleton_vpa("b")
    assert isinstance(vpl_union(m1, m2), Vpa)
    assert isinstance(vpl_intersection(m1, m2), Vpa)
    assert isinstance(vpl_complement(m1), Vpa)


def test_vpl_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        vpl_union(singleton_vpa("a", ("a",)), singleton_vpa("b", ("b",)))


def random_vpa_pairs(seed, count):
    """Seeded random VPA pairs of mixed shape: 2-5 states, 1-3 stack
    symbols, sparse to total tables, some accepting on every stack."""
    rng = random.Random(seed)

    def one():
        return random_vpa(
            rng, n_states=rng.randrange(2, 6), n_stack=rng.randrange(1, 4),
            density=rng.choice((0.5, 0.8, 1.0)),
        )

    return [(one(), one()) for _ in range(count)]


def _seed_pair():
    # the 6-state, 3-letter machines of seeds 1 and 2, where the products
    # keep the fewest of the all-tops search's returns
    return (
        random_vpa(random.Random(1), 6, ("a", "b", "c"), 3),
        random_vpa(random.Random(2), 6, ("a", "b", "c"), 3),
    )


def test_vpl_boolean_ops_agree_with_full_products():
    # the reachable-only products against the full products of completed,
    # normalized machines, on every tagged word up to length 5
    runs = 0
    for m1, m2 in random_vpa_pairs(7001, 16) + [_seed_pair()]:
        words = list(all_tagged_words(m1.alphabet, 5))
        full_comp = full_vpl_complement(m1)
        pairs = (
            (vpl_union(m1, m2), full_vpa_product(m1, m2, lambda a, b: a or b)),
            (vpl_intersection(m1, m2), full_vpa_product(m1, m2, lambda a, b: a and b)),
            (vpl_complement(m1), full_comp),
            (vpl_complement(vpl_complement(m1)), full_vpl_complement(full_comp)),
        )
        for new, reference in pairs:
            for w in words:
                assert vpa_run(new, w).accepted == vpa_run(reference, w).accepted, w
            runs += 2 * len(words)
    assert runs >= 1_500_000


def _in_labels_of(out: Vpa, m: Vpa) -> Vpa:
    """`out`, a canonical search of the deterministic machine m, with its
    names mapped back to m's labels by walking both machines in lockstep."""
    states, syms = {out.initial: m.initial}, {out.bottom: m.bottom}

    def pair(found: dict, name, label) -> bool:
        if name in found:
            assert found[name] == label, (name, label)
            return False
        found[name] = label
        return True

    grew = True
    while grew:
        grew = False
        for (q, a), dst in out.delta_i.items():
            if q in states:
                grew |= pair(states, dst, m.delta_i[states[q], a])
        for (q, a), (dst, g) in out.delta_c.items():
            if q in states:
                dst_m, g_m = m.delta_c[states[q], a]
                grew |= pair(states, dst, dst_m) | pair(syms, g, g_m)
        for (q, a, g), dst in out.delta_r.items():
            if q in states and g in syms:
                grew |= pair(states, dst, m.delta_r[states[q], a, syms[g]])
    assert len(set(states.values())) == len(states) == len(out.states)
    return rename_machine(out, states, syms)


def _assert_keeps_every_return_a_run_can_take(out: Vpa, m: Vpa) -> None:
    """`out`, searched from machine m, keeps each return row of m at every
    (state, top) pair a run of m reaches, and only rows of m."""
    out = _in_labels_of(out, m)
    pairs = exact_state_tops(m)
    assert {q for q, _ in pairs} <= out.states
    for q, top in pairs:
        for a in m.alphabet:
            if (q, a, top) in m.delta_r:
                assert out.delta_r.get((q, a, top)) == m.delta_r[(q, a, top)], (q, a, top)
    assert out.delta_r.items() <= m.delta_r.items()
    assert out.delta_c.items() <= m.delta_c.items()
    assert out.delta_i.items() <= m.delta_i.items()


def test_reachable_search_keeps_every_return_a_run_can_take():
    rng = random.Random(7006)
    for _ in range(40):
        m = random_vpa(
            rng, n_states=rng.randrange(2, 7), alphabet=("a", "b", "c")[: rng.randrange(1, 4)],
            n_stack=rng.randrange(1, 4), density=rng.choice((0.3, 0.5, 0.8, 1.0)),
        )
        _assert_keeps_every_return_a_run_can_take(canonicalize(m), m)


def test_boolean_products_keep_every_return_a_run_can_take():
    for m1, m2 in random_vpa_pairs(7007, 12) + [_seed_pair()]:
        for out, machine in (
            (vpl_union(m1, m2), reference_vpl_union(m1, m2)),
            (vpl_intersection(m1, m2), reference_vpl_intersection(m1, m2)),
            (vpl_complement(m1), reference_state_only(m1)),
        ):
            _assert_keeps_every_return_a_run_can_take(out, machine)


def _reference_inputs():
    """120 seeded pairs (1-6 states, 1-3 letters, densities 0.3-1), then a
    1-state machine, one with no moves, and a machine made to accept on
    every stack and on none, each with a random partner and with itself."""
    pairs = []
    for seed in range(120):
        rng = random.Random(seed)
        letters = ("a", "b", "c")[: 1 + seed % 3]
        density = 0.3 + 0.1 * (seed % 8)
        pairs.append((
            random_vpa(rng, 1 + seed % 6, letters, 1 + seed % 3, density),
            random_vpa(rng, 1 + seed % 4, letters, 1 + (seed // 3) % 3, density),
        ))
    one_state = Vpa(
        ("a", "b"), {"q"}, {"g"}, "$", "q", {"q"}, set(),
        {("q", "a"): ("q", "g")}, {("q", "b"): "q"}, {("q", "a", "g"): "q", ("q", "b", "$"): "q"},
    )
    no_moves = Vpa(("a", "b"), {"p", "q"}, {"g"}, "$", "p", {"q"}, {"g"}, {}, {}, {})
    m = random_vpa(random.Random(121), 4, n_stack=3)
    all_acceptable = dataclasses.replace(m, accept_stack=m.stack_alphabet)
    none_acceptable = dataclasses.replace(m, accept_stack=frozenset())
    for special in (one_state, no_moves, all_acceptable, none_acceptable):
        pairs += [(special, random_vpa(random.Random(122), 3)), (special, special)]
    return pairs


@pytest.mark.parametrize(
    "closure, reference, arity", [entry[1:] for entry in VPL_CLOSURE_REFERENCES],
    ids=[entry[0] for entry in VPL_CLOSURE_REFERENCES],
)
def test_vpl_closures_equal_canonicalize_of_their_reference_builders(closure, reference, arity):
    # the lookups into each input against the whole machine the reference
    # builds (completed, normalized, glued), searched by canonicalize
    for pair in _reference_inputs():
        args = pair[:arity]
        assert closure(*args) == canonicalize(reference(*args)), args


def _bottom_like_a_flagged_symbol() -> Vpa:
    # the bottom ("g", True) is what the flag makes of the unacceptable g
    return Vpa(
        ("a",), {"p", "q"}, {"g"}, ("g", True), "p", {"p"}, set(),
        {("p", "a"): ("q", "g")}, {("q", "a"): "p"},
        {("q", "a", "g"): "p", ("p", "a", ("g", True)): "q"},
    )


def test_state_only_view_keeps_the_bottom_apart_from_flagged_symbols():
    m = _bottom_like_a_flagged_symbol()
    other = dataclasses.replace(m, accepts={"q"})
    assert vpl_union(m, other) == canonicalize(reference_vpl_union(m, other))
    assert vpl_complement(m) == canonicalize(reference_vpl_complement(m))
    assert vpl_concat(m, other) == canonicalize(reference_vpl_concat(m, other))
    assert vpl_star(m) == canonicalize(reference_vpl_star(m))
    for m2 in (m, other):
        xor = pair_product(reference_state_only(m), reference_state_only(m2), lambda a, b: a != b)
        assert vpl_equivalent(m, m2) == vpa_is_empty(xor)
    assert vpl_equivalent(m, m) and not vpl_equivalent(m, other)
    for tw in all_tagged_words(("a",), 6):
        assert vpa_run(vpl_complement(m), tw).accepted != vpa_run(m, tw).accepted, tw


def test_vpl_union_keeps_at_most_half_the_returns_of_the_all_tops_search():
    m1, m2 = _seed_pair()
    union = vpl_union(m1, m2)
    # the search that gave every reached state a return on every reached
    # top kept 98 states and 9,702 returns
    assert len(union.states) == 98
    assert len(union.delta_r) <= 9_702 // 2


def _edges(m: Vpa):
    """(src, dst) for every move of m, whatever it reads or pushes."""
    for (q, _), (dst, _) in m.delta_c.items():
        yield q, dst
    for table in (m.delta_i, m.delta_r):
        for key, dst in table.items():
            yield key[0], dst


def _closure(starts, edges) -> set:
    succ: dict = {}
    for src, dst in edges:
        succ.setdefault(src, set()).add(dst)
    seen, todo = set(starts), list(starts)
    while todo:
        for dst in succ.get(todo.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def _sinks(m: Vpa) -> set:
    """Completion sinks: states with every move defined, on every letter
    and top, and no path to an accept state."""
    tops = m.stack_alphabet | {m.bottom}
    total = {
        q for q in m.states
        if all(
            (q, a) in m.delta_c and (q, a) in m.delta_i
            and all((q, a, g) in m.delta_r for g in tops)
            for a in m.alphabet
        )
    }
    return total - _closure(m.accepts, ((dst, src) for src, dst in _edges(m)))


def test_vpl_boolean_outputs_have_only_reachable_states():
    for m1, m2 in random_vpa_pairs(7002, 20):
        comp = vpl_complement(m1)
        for out in (vpl_union(m1, m2), vpl_intersection(m1, m2), comp, vpl_complement(comp)):
            assert _closure({out.initial}, _edges(out)) == set(out.states)


def test_vpl_intersection_has_no_sink():
    # inputs with partial tables, where the full product's completion shows
    rng = random.Random(7003)
    for _ in range(20):
        m1, m2 = (
            random_vpa(rng, n_states=rng.randrange(2, 6), n_stack=rng.randrange(1, 4), density=0.7)
            for _ in range(2)
        )
        inter = vpl_intersection(m1, m2)
        assert not _sinks(inter)
        assert len(inter.states) <= len(m1.states) * len(m2.states)
        assert _sinks(full_vpa_product(m1, m2, lambda a, b: a and b))


def test_vpl_double_complement_is_smaller_than_full_product():
    m = random_vpa(random.Random(1), 6, ("a", "b", "c"), 3)
    full = full_vpl_complement(full_vpl_complement(m))
    twice = vpl_complement(vpl_complement(m))
    # the reference naming keeps 8 of the full product's 30 states, as it
    # follows a return only on a symbol that a reached call pushes
    assert len(full.states) == 8
    assert len(twice.states) < 8
    assert len(twice.delta_r) < len(full.delta_r)
    for w in all_tagged_words(m.alphabet, 4):
        assert vpa_run(twice, w).accepted == vpa_run(m, w).accepted


# ---------------------------------------------------------------------------
# exact decisions, alongside the bounded oracles


def test_vpl_equivalent_decides_double_complement_in_milliseconds():
    m = random_vpa(random.Random(1), 6, ("a", "b", "c"), 3)
    twice = vpl_complement(vpl_complement(m))
    start = time.perf_counter()
    assert vpl_equivalent(m, twice)
    assert time.perf_counter() - start < 1.0  # the full XOR product took 5 s
    assert not vpl_equivalent(m, vpl_complement(m))


def test_vpl_equivalent_closure_laws_random():
    for m1, m2 in random_vpa_pairs(7004, 25):
        c1, c2 = vpl_complement(m1), vpl_complement(m2)
        union, inter = vpl_union(m1, m2), vpl_intersection(m1, m2)
        assert vpl_equivalent(m1, vpl_complement(c1))
        assert vpl_equivalent(vpl_complement(union), vpl_intersection(c1, c2))
        assert vpl_equivalent(vpl_complement(inter), vpl_union(c1, c2))
        assert vpl_equivalent(union, vpl_union(m2, m1))
        assert vpl_equivalent(inter, vpl_intersection(m2, m1))
        assert vpl_equivalent(vpl_union(m1, m1), m1)
        assert vpl_equivalent(vpl_intersection(m1, m1), m1)
        assert vpa_is_empty(vpl_intersection(m1, c1))
        assert not vpl_equivalent(m1, c1)
        assert not vpa_is_empty(vpl_union(m1, c1))


def test_vpl_exact_decisions_against_bounded_languages():
    # an exact "empty" or "equivalent" must hold on every short word, and a
    # short accepted word must make the language non-empty
    for m1, m2 in random_vpa_pairs(7005, 25):
        lang1, lang2 = vpa_language(m1, 4), vpa_language(m2, 4)
        if vpa_is_empty(m1):
            assert not lang1
        if lang1:
            assert not vpa_is_empty(m1)
        if vpl_equivalent(m1, m2):
            assert lang1 == lang2
        elif lang1 != lang2:
            assert not vpl_equivalent(m1, m2)
        inter = vpl_intersection(m1, m2)
        assert vpa_is_empty(inter) or not vpa_is_empty(m1)
        if lang1 & lang2:
            assert not vpa_is_empty(inter)


def test_vpl_exact_decisions_see_past_the_bounded_oracles():
    # languages that agree on every word up to length 5
    long_word = singleton_vpa("<a <b a a> b> <a b>")
    pending = singleton_vpa("a a b <a <b b")
    bottom_reads = singleton_vpa("b> a> <a b <b a>")
    for m in (long_word, pending, bottom_reads):
        assert vpa_language(m, 5) == set()
        assert not vpa_is_empty(m)
        assert not vpl_equivalent(m, empty_vpa())
        assert vpl_equivalent(m, vpl_complement(vpl_complement(m)))
    assert vpa_is_empty(empty_vpa())
    assert vpa_is_empty(vpl_complement(all_accepting_vpa()))
    assert vpa_is_empty(vpl_intersection(long_word, pending))
    # the pending calls must be acceptable: with none, nothing is accepted
    unacceptable = Vpa(
        pending.alphabet, pending.states, pending.stack_alphabet, "$", pending.initial,
        pending.accepts, set(), pending.delta_c, pending.delta_i, pending.delta_r,
    )
    assert vpa_is_empty(unacceptable)


# ---------------------------------------------------------------------------
# concatenation, star, reversal


def test_vpl_concat_with_epsilon_language():
    m = singleton_vpa("<a b>")
    eps = Vpa(("a", "b"), {"q"}, set(), "$", "q", {"q"}, set(), {}, {}, {})
    cat = vpl_concat(m, eps)
    for tw in all_tagged_words(("a", "b"), 5):
        assert nvpa_run(cat, tw) == vpa_run(m, tw).accepted


def test_vpl_concat_matches_pending_call_with_later_return():
    cat = vpl_concat(singleton_vpa("<a"), singleton_vpa("a>"))
    assert nvpa_run(cat, parse_word("<a a>"))
    assert not nvpa_run(cat, parse_word("<a a"))
    assert not nvpa_run(cat, parse_word("a> a>"))


def test_vpl_concat_single_letters():
    cat = vpl_concat(singleton_vpa("a"), singleton_vpa("b"))
    assert vpa_language_nvpa(cat, 4) == {parse_word("a b")}


def test_vpl_concat_nested_then_internal():
    cat = vpl_concat(singleton_vpa("<a a>"), singleton_vpa("b"))
    assert nvpa_run(cat, parse_word("<a a> b"))
    assert not nvpa_run(cat, parse_word("b <a a>"))


def vpa_language_nvpa(m: Nvpa, max_len: int) -> set:
    return {w for w in all_tagged_words(m.alphabet, max_len) if nvpa_run(m, w)}


def test_vpl_star_of_empty_language():
    st = vpl_star(empty_vpa())
    assert vpa_language_nvpa(st, 4) == {()}


def test_vpl_star_iterates():
    st = vpl_star(singleton_vpa("<a a>"))
    block = parse_word("<a a>")
    for k in range(4):
        assert nvpa_run(st, block * k)
    assert not nvpa_run(st, parse_word("<a"))
    assert not nvpa_run(st, parse_word("<a <a a> a> "))


def test_vpl_star_contains_language_and_epsilon():
    m = singleton_vpa("<a b>")
    st = vpl_star(m)
    assert nvpa_run(st, ())
    for tw in all_tagged_words(("a", "b"), 5):
        if vpa_run(m, tw).accepted:
            assert nvpa_run(st, tw)


def test_vpl_reverse_singleton():
    rev = vpl_reverse(singleton_vpa("<a b>"))
    assert vpa_language_nvpa(rev, 4) == {parse_word("<b a>")}


def test_vpl_reverse_fixes_self_reverse_language():
    m = singleton_vpa("<a a>")  # its own reversal
    rev = vpl_reverse(m)
    assert vpa_language_nvpa(rev, 4) == vpa_language(m, 4)


def test_vpl_double_reverse():
    rng = random.Random(23)
    m = random_vpa(rng)
    rev = vpl_reverse(m)
    for tw in all_tagged_words(("a", "b"), 5):
        assert nvpa_run(rev, reverse_word(tw)) == vpa_run(m, tw).accepted


def test_vpl_constructions_against_oracles_random():
    rng = random.Random(97)
    words = list(all_tagged_words(("a", "b"), 5))
    for _ in range(4):
        m1, m2 = random_vpa(rng), random_vpa(rng)
        mem1 = {w: vpa_run(m1, w).accepted for w in words}
        mem2 = {w: vpa_run(m2, w).accepted for w in words}
        cat = vpl_concat(m1, m2)
        st = vpl_star(m1)
        rev = vpl_reverse(m1)
        for w in words:
            assert nvpa_run(cat, w) == concat_oracle(mem1, mem2, w)
            assert nvpa_run(rev, w) == reverse_oracle(mem1, w)
            if len(w) <= 4:
                assert nvpa_run(st, w) == star_oracle(mem1, w)


# ---------------------------------------------------------------------------
# prefix closure


def test_prefix_of_accepted_words_are_members():
    m = build_free_vpa(1).automaton
    decider = PrefixDecider(m)
    for tw in all_tagged_words(m.alphabet, 6):
        if vpa_run(m, tw).accepted:
            for k in range(len(tw) + 1):
                assert decider.member(tw[:k])


def test_prefix_free_vpa_call_extends():
    member = PrefixDecider(build_free_vpa(2).automaton).member
    assert member(parse_word("<x1"))
    assert member(parse_word("<x1 <x2"))
    # a call on the inverse of the pending letter can never be completed:
    # the canonical matching would have cancelled it as a return
    assert not member(parse_word("<x1 <x1'"))
    # an internal letter kills the run for every extension
    assert not member(parse_word("x1"))


def test_prefix_needs_a_way_to_pop_an_unacceptable_symbol():
    # "<a" leaves the unacceptable g above the accepting state q: only a
    # machine that can move to r, whose return pops g, extends it
    calls, returns = {("q", "a"): ("q", "g")}, {("r", "a", "g"): "q"}
    for internals, expected in (({}, False), ({("q", "b"): "r"}, True)):
        m = Vpa(("a", "b"), {"q", "r"}, {"g"}, "$", "q", {"q"}, set(), calls, internals, returns)
        assert PrefixDecider(m).member(parse_word("<a")) == expected
        assert ExtensionOracle(m).member(parse_word("<a")) == expected


def test_prefix_against_extension_oracle_random():
    rng = random.Random(71)
    words = list(all_tagged_words(("a", "b"), 5))
    for _ in range(4):
        m = random_vpa(rng, n_stack=rng.choice([1, 2]))
        decider = PrefixDecider(m)
        oracle = ExtensionOracle(m, start_height_max=6)
        for w in words:
            assert decider.member(w) == oracle.member(w)


def test_prefix_summaries_worklist_agrees_with_sweep():
    rng = random.Random(7006)
    for _ in range(30):
        m = random_vpa(
            rng, n_states=rng.randrange(1, 8), alphabet=("a", "b", "c")[: rng.randrange(1, 4)],
            n_stack=rng.randrange(1, 4), density=rng.choice((0.3, 0.6, 0.9)),
        )
        assert PrefixDecider(m).summaries == well_matched_pairs_sweep(m)


# ---------------------------------------------------------------------------
# shuffle


def test_shuffle_with_epsilon_regular_language():
    m = singleton_vpa("<a b>")
    eps_only = Fsa(("c",), {"r"}, "r", {"r"}, {})
    sh = shuffle(m, eps_only)
    for tw in all_tagged_words(("a", "b"), 4):
        assert vpa_run(sh, tw).accepted == vpa_run(m, tw).accepted


def test_shuffle_three_letter_listing():
    m = singleton_vpa("<a a>", alphabet=("a",))
    r = Fsa(("c",), {0, 1}, 0, {1}, {(0, "c"): 1})  # exactly "c"
    sh = shuffle(m, r)
    length3 = {w for w in all_tagged_words(("a", "c"), 3) if len(w) == 3 and vpa_run(sh, w).accepted}
    assert length3 == {
        parse_word("c <a a>"),
        parse_word("<a c a>"),
        parse_word("<a a> c"),
    }
    # and those are exactly the interleavings
    expected = {w for w in interleavings(parse_word("<a a>"), internal_word("c"))}
    assert length3 == expected


def test_shuffle_membership_against_projection_oracle():
    rng = random.Random(13)
    m, r = random_vpa(rng), random_fsa(rng)
    sh = shuffle(m, r)
    for w in all_tagged_words(("a", "b", "c", "d"), 4):
        assert vpa_run(sh, w).accepted == shuffle_oracle(m, r, w)


def test_shuffle_preserves_stack_height_profile():
    rng = random.Random(29)
    m, r = random_vpa(rng), random_fsa(rng)
    sh = shuffle(m, r)
    vpa_letters = set(m.alphabet)
    for w in all_tagged_words(("a", "b", "c", "d"), 4):
        run = vpa_run(sh, w, record_trace=True)
        if not run.accepted:
            continue
        heights = [
            len(config.stack)
            for sym, config in zip(w, run.trace[1:])
            if sym.base in vpa_letters
        ]
        projection = tuple(sym for sym in w if sym.base in vpa_letters)
        inner = vpa_run(m, projection, record_trace=True)
        assert heights == [len(c.stack) for c in inner.trace[1:]]


def test_shuffle_requires_disjoint_alphabets():
    with pytest.raises(NonDisjointAlphabets):
        shuffle(singleton_vpa("a"), astar_bstar_fsa())


def test_shuffle_keeps_only_reached_canonically_named_states():
    # the regular factor's state "dead" is unreachable, so no pair holds it
    m = singleton_vpa("<a b>")
    r = Fsa(("c",), {"r", "dead"}, "r", {"r"}, {("r", "c"): "r", ("dead", "c"): "r"})
    sh = shuffle(m, r)
    assert sh.states == {f"q{i}" for i in range(len(m.states))}
    assert sh.initial == "q0" and sh.bottom == "$"
    assert sh == canonicalize(reference_shuffle(m, r))


# ---------------------------------------------------------------------------
# finite re-labeling


def test_relabel_identity():
    m = singleton_vpa("<a b>")
    image = relabel_image(m, identity_relabeling(("a", "b")))
    for tw in all_tagged_words(("a", "b"), 5):
        assert nvpa_run(image, tw) == vpa_run(m, tw).accepted


def swap_relabeling():
    pairs = (("a", "b"), ("b", "a"))
    return Relabeling(Fsa(pairs, {"p"}, "p", {"p"}, {("p", p): "p" for p in pairs}))


def test_relabel_swap():
    m = singleton_vpa("<a a>")
    image = relabel_image(m, swap_relabeling())
    assert vpa_language_nvpa(image, 4) == {parse_word("<b b>")}


def test_relabel_preserves_matching_and_length():
    phi = swap_relabeling()
    for tw in all_tagged_words(("a", "b"), 4):
        for out in phi.apply(tw):
            assert len(out) == len(tw)
            assert [s.tag for s in out] == [s.tag for s in tw]
            assert decode(out).matching == decode(tw).matching


def test_relabeling_apply_on_a_long_word():
    # one search step per letter, with no recursion per letter
    phi = semidirect_relabeling(2, 2)
    rng = random.Random(5000)
    tw = tuple(TaggedSymbol(rng.choice(phi.input_letters()), rng.choice(list(Tag))) for _ in range(5000))
    (out,) = phi.apply(tw)
    assert len(out) == len(tw)
    assert [s.tag for s in out] == [s.tag for s in tw]


def test_shuffle_and_relabel_equal_canonicalize_of_their_references():
    # one search over lookups into the inputs against the whole product
    # table, searched by canonicalize, byte for byte
    for seed in range(200):
        rng = random.Random(9100 + seed)
        m = random_vpa(
            rng, n_states=rng.randrange(1, 6), n_stack=rng.randrange(1, 4), density=rng.choice((0.3, 0.6, 0.9)),
        )
        r = random_fsa(rng, n_states=rng.randrange(1, 5), density=rng.choice((0.3, 0.6, 1.0)))
        assert dumps(shuffle(m, r)) == dumps(canonicalize(reference_shuffle(m, r))), seed
        for phi in (identity_relabeling(m.alphabet), swap_relabeling(), forked_relabeling()):
            assert dumps(relabel_image(m, phi)) == dumps(canonicalize(reference_relabel_image(m, phi))), seed


def test_relabeling_functional_check():
    assert swap_relabeling().is_functional(4)
    pairs = (("a", "a"), ("a", "b"))
    forked = Relabeling(Fsa(pairs, {"p"}, "p", {"p"}, {("p", p): "p" for p in pairs}))
    assert not forked.is_functional(2)
