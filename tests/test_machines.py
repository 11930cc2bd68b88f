"""FSA/PDA/VPA run semantics, determinization, completion, serialization."""

import copy
import dataclasses
import itertools
import pickle
import signal
import sys

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    GOLDEN_BUILDER_DIGEST,
    GOLDEN_CLOSURE_DIGEST,
    GOLDEN_REGULAR_DIGEST,
    SUMMARY_LANES,
    Nfa,
    anbn_pda,
    astar_bstar_fsa,
    configuration_set_run,
    deep_walk,
    dumps_digest,
    fork_nvpa,
    fork_nvpa_words,
    fork_walks,
    golden_builder_machines,
    golden_closure_machines,
    golden_regular_machines,
    mixed_label_vpa,
    nfa_run,
    nvpa_from_vpa,
    random_fsa,
    random_pda,
    random_vpa,
    random_walk,
    reference_bfs_canonicalize,
    reference_fsa_determinize,
    reference_fsa_run,
    reference_nvpa_run,
    reference_pda_run,
    reference_vpa_run,
    reference_vpa_from_fsa,
    reference_vpl_concat,
    reference_vpl_reverse,
    reference_vpl_star,
    search_cases,
    search_disagreement,
    summary_lanes,
    transition_rows,
    vpa_complete,
    vpa_normalize_acceptance,
)
import random

from nestword.machines import (
    Configuration,
    EpsilonBudgetExceeded,
    Fsa,
    Nvpa,
    Pda,
    Vpa,
    canonicalize,
    fsa_run,
    machine_accepts,
    nvpa_run,
    pda_run,
    pda_step,
    vpa_run,
)
from nestword import closures, machines, serialize
from nestword.closures import vpl_concat, vpl_reverse, vpl_star, vpl_union
from nestword.words import Tag, TaggedSymbol, all_tagged_words, decode, parse_word, reverse as reverse_word
from nestword.groups import build_finite_fsa, build_free_vpa, build_semidirect, cyclic_group, symmetric_group


# ---------------------------------------------------------------------------
# FSA


def test_fsa_ambn_examples():
    m = astar_bstar_fsa()
    assert fsa_run(m, "aab")
    assert not fsa_run(m, "aba")
    assert fsa_run(m, "")  # initial state accepts


def test_fsa_epsilon_accept_iff_initial_accepting():
    m = Fsa(("a",), {"q", "y"}, "q", {"y"}, {("q", "a"): "y"})
    assert not fsa_run(m, "")
    assert fsa_run(m, "a")


def test_fsa_missing_transition_rejects():
    m = Fsa(("a", "b"), {"q"}, "q", {"q"}, {("q", "a"): "q"})
    assert fsa_run(m, "aa")
    assert not fsa_run(m, "ab")


def test_fsa_symbol_outside_alphabet_raises():
    with pytest.raises(ValueError, match="letter 'x' not in alphabet"):
        fsa_run(astar_bstar_fsa(), "ax")


def test_machine_accepts_on_fsa_runs_like_its_vpa_reading():
    # same verdict as the all-internal VPA reading, and the same error where it raises
    m = build_finite_fsa(cyclic_group(2)).automaton
    vpa = reference_vpa_from_fsa(m)

    def outcome(run, tw):
        try:
            return run(tw)
        except ValueError as exc:
            return str(exc)

    outcomes = set()
    for tw in all_tagged_words(m.alphabet + ("x9",), 3):
        got = outcome(lambda w: machine_accepts(m, w), tw)
        assert got == outcome(lambda w: vpa_run(vpa, w).accepted, tw), tw
        outcomes.add(got)
    assert outcomes == {True, False, "letter 'x9' not in alphabet"}
    with pytest.raises(ValueError, match="letter 'x9' not in alphabet"):
        machine_accepts(m, parse_word("<x9"))


# ---------------------------------------------------------------------------
# PDA


def test_pda_step_example_transitions():
    m = anbn_pda()
    c = Configuration("s0", tuple("aabb"), ("0",))
    assert pda_step(c, m) == Configuration("s1", tuple("abb"), ("0", "1"))
    # the final epsilon move drains the bottom symbol
    assert pda_step(Configuration("s2", (), ("0",)), m) == Configuration("sy", (), ())
    # no transition enabled: empty stack
    assert pda_step(Configuration("sy", ("a",), ()), m) is None


def test_pda_run_letter_outside_alphabet_raises():
    with pytest.raises(ValueError, match=r"^letter 'x' not in alphabet$"):
        pda_run(anbn_pda(), "ax")


def test_pda_run_examples():
    m = anbn_pda()
    assert pda_run(m, "aabb")
    assert not pda_run(m, "aab")
    assert pda_run(m, "")
    assert pda_run(m, "ab")
    assert not pda_run(m, "ba")
    assert not pda_run(m, "abb")


def test_pda_anbn_language_small():
    m = anbn_pda()
    for n in range(6):
        for k in range(6):
            assert pda_run(m, "a" * n + "b" * k) == (n == k)


def test_pda_run_is_linear_in_the_word():
    # a^n b^n with n = 100,000: a run that copies the rest of the word and
    # the stack on every step takes minutes, a linear one well under a second
    def expire(signum, frame):
        raise TimeoutError("pda_run took more than 10 s on 200,000 letters")

    m = anbn_pda()
    word = "a" * 100_000 + "b" * 100_000
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        assert pda_run(m, word)
        assert not pda_run(m, word + "b")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_pda_run_matches_stepping_by_pda_step():
    # epsilon priority, popping the bottom, running on an empty stack and
    # the epsilon budget, against whole configurations stepped by pda_step
    def outcome(run, m, w):
        try:
            return run(m, w)
        except EpsilonBudgetExceeded as exc:
            return str(exc)

    rng = random.Random(31)
    words = [w for n in range(6) for w in itertools.product("ab", repeat=n)]
    outcomes = set()
    for _ in range(60):
        m = random_pda(rng, n_states=rng.randrange(1, 5))
        for w in words:
            got = outcome(pda_run, m, w)
            assert got == outcome(reference_pda_run, m, w), w
            outcomes.add(got if isinstance(got, bool) else "budget")
    assert outcomes == {True, False, "budget"}


def test_pda_epsilon_budget():
    # an epsilon self-loop must trip the budget, not hang
    m = Pda(
        ("a",),
        {"q"},
        {"0"},
        "q",
        "0",
        set(),
        {("q", None, "0"): ("q", ("0",))},
    )
    with pytest.raises(EpsilonBudgetExceeded):
        pda_run(m, "")


def test_pda_epsilon_determinism_validated():
    with pytest.raises(ValueError):
        Pda(
            ("a",),
            {"q"},
            {"0"},
            "q",
            "0",
            set(),
            {("q", None, "0"): ("q", ("0",)), ("q", "a", "0"): ("q", ("0",))},
        )


# ---------------------------------------------------------------------------
# VPA


def vpa_accepting_nested_ab():
    # accepts exactly <a a> nestings: { <a^k a>^k } with one state loop
    return Vpa(
        ("a",),
        {"q", "y"},
        {"g"},
        "$",
        "q",
        {"y", "q"},
        set(),
        delta_c={("q", "a"): ("q", "g")},
        delta_i={},
        delta_r={("q", "a", "g"): "q"},
    )


def test_vpa_epsilon_acceptance():
    m = vpa_accepting_nested_ab()
    assert vpa_run(m, ()).accepted


def test_vpa_pending_call_rejected_when_accept_stack_empty():
    m = vpa_accepting_nested_ab()
    run = vpa_run(m, parse_word("<a"))
    assert not run.accepted
    assert run.reason == "final configuration not accepting"


def test_vpa_missing_transition_rejects_with_reason():
    m = vpa_accepting_nested_ab()
    run = vpa_run(m, parse_word("a"), record_trace=True)
    assert not run.accepted
    assert "internal" in run.reason
    assert len(run.trace) == 1  # only the initial configuration


def test_vpa_return_on_bottom_reads_without_popping():
    m = Vpa(
        ("a",),
        {"q", "y"},
        set(),
        "$",
        "q",
        {"y"},
        set(),
        delta_c={},
        delta_i={},
        delta_r={("q", "a", "$"): "y", ("y", "a", "$"): "y"},
    )
    run = vpa_run(m, parse_word("a> a>"), record_trace=True)
    assert run.accepted
    assert all(config.stack == ("$",) for config in run.trace)


def test_vpa_letter_outside_alphabet_raises():
    with pytest.raises(ValueError):
        vpa_run(vpa_accepting_nested_ab(), parse_word("c"))


def test_vpa_stack_height_tracks_open_calls():
    rng = random.Random(11)
    m = vpa_complete(random_vpa(rng))
    for tw in all_tagged_words(("a", "b"), 6):
        run = vpa_run(m, tw, record_trace=True)
        for k, config in enumerate(run.trace):
            open_calls = sum(
                1 for i, j in decode(tw[:k]).matching.edges if j == float("inf")
            )
            assert len(config.stack) == 1 + open_calls


def test_vpa_run_reports_final_configuration():
    m = vpa_accepting_nested_ab()
    run = vpa_run(m, parse_word("<a <a a>"))
    assert (run.accepted, run.state, run.stack) == (False, "q", ("$", "g"))
    run = vpa_run(m, parse_word("<a a>"))
    assert (run.accepted, run.state, run.stack) == (True, "q", ("$",))


def test_vpa_run_dead_run_has_no_stack():
    m = vpa_accepting_nested_ab()
    run = vpa_run(m, parse_word("<a a"))
    assert not run.accepted
    assert run.state == "q"  # where the missing internal move was looked up
    assert run.stack is None


def test_free_vpa_trace_example():
    m = build_free_vpa(1).automaton
    run = vpa_run(m, parse_word("<x1 x1'>"), record_trace=True)
    assert run.accepted
    assert [c.state for c in run.trace] == ["e", "x1", "e"]


def test_parallel_runs_share_machine():
    # eight threads share one machine from before its rows are compiled
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(17)
    m = random_vpa(rng, 5, ("a", "b", "c"), 3, density=0.7)
    words = [random_walk(m, rng, 80) for _ in range(400)]
    words += [w[:-1] + (TaggedSymbol(w[-1].base, (w[-1].tag + 1) % 3),) for w in words[:200] if w]
    serial = [reference_vpa_run(m, w) for w in words]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda w: vpa_run(m, w), words, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    assert {run.accepted for run in serial} == {True, False}


def _bad_tag_words() -> list:
    """Words whose last or only symbol has a tag that equals no Tag, on a
    letter of the test machines' alphabet and on one outside it."""
    return [tw + (TaggedSymbol(base, tag),) for tw in all_tagged_words(("a", "b"), 2)
            for base in ("a", "x9") for tag in (3, -1)]


def test_vpa_run_and_machine_accepts_match_the_reference_run():
    # the row loop tests a symbol only where a run dies; every field of the
    # run, with and without a trace, and every error text stay the same, on
    # a machine as built and as read back from its document
    words = list(all_tagged_words(("a", "b", "x9"), 4))
    words += [tuple(TaggedSymbol(base, int(tag)) for base, tag in tw) for tw in words if len(tw) == 3]
    words += _bad_tag_words()
    outcomes = set()
    for seed in range(12):
        rng = random.Random(seed)
        m = random_vpa(rng, 1 + seed % 5, n_stack=1 + seed % 3, density=0.5 + seed % 4 * 0.15)
        walks = [random_walk(m, rng, 40) for _ in range(10)]
        twins = (m, serialize.loads(serialize.dumps(m)))
        for twin in twins:
            for tw in words + walks:
                for trace in (False, True):
                    try:
                        want = reference_vpa_run(twin, tw, record_trace=trace)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as info:
                            vpa_run(twin, tw, record_trace=trace)
                        assert str(info.value) == str(exc), (seed, tw)
                        continue
                    assert vpa_run(twin, tw, record_trace=trace) == want, (seed, tw, trace)
                try:
                    want = reference_vpa_run(twin, tw).accepted
                except ValueError as exc:
                    want = str(exc)
                try:
                    got = machine_accepts(twin, tw)
                except ValueError as exc:
                    got = str(exc)
                assert got == want, (seed, tw)
                outcomes.add(want)
        built, loaded = (closures.PrefixDecider(twin) for twin in twins)
        for tw in words + walks:
            assert _outcome(lambda d, w: d.member(w), built, tw) == _outcome(lambda d, w: d.member(w), loaded, tw)
    assert outcomes == {
        True, False, "letter 'x9' not in alphabet",
        "tag 3 on 'a' is not a call, internal or return tag",
        "tag -1 on 'a' is not a call, internal or return tag",
    }


def test_dying_runs_give_the_reference_reason_and_check_only_a_reached_symbol():
    # the run loop reports where a run dies and vpa_run alone words the
    # reason; a bad symbol raises only where the run reaches it
    bad = [TaggedSymbol("x9", Tag.CALL), TaggedSymbol("a", 3)]
    reasons = set()
    for seed in range(20):
        rng = random.Random(seed)
        m = random_vpa(rng, 2 + seed % 4, n_stack=1 + seed % 3, density=0.45)
        for twin in (m, serialize.loads(serialize.dumps(m))):
            decider = closures.PrefixDecider(twin)
            for _ in range(15):
                walk = random_walk(twin, rng, 30)
                for sym in bad:  # the walk survives, so its run reaches sym
                    want = _outcome(reference_vpa_run, twin, walk + (sym,))
                    assert _outcome(vpa_run, twin, walk + (sym,)) == want and want[0] is ValueError
                    assert _outcome(machine_accepts, twin, walk + (sym,)) == want
                    assert _outcome(lambda d, w: d.member(w), decider, walk + (sym,)) == want
                for tail in all_tagged_words(("a", "b"), 2):
                    tw = walk + tail
                    want = reference_vpa_run(twin, tw)
                    if want.reason is None or not want.reason.startswith("no "):
                        continue
                    reasons.add(want.reason.split()[1])
                    assert vpa_run(twin, tw) == want, (seed, tw)
                    assert vpa_run(twin, tw, record_trace=True) == reference_vpa_run(twin, tw, record_trace=True)
                    for sym in bad:  # past the death, never reached
                        assert vpa_run(twin, tw + (sym,)) == want
                        assert machine_accepts(twin, tw + (sym,)) is False
                        assert decider.member(tw + (sym,)) is False
    assert reasons == {"call", "internal", "return"}


def test_fsa_runs_match_the_reference_vpa_reading():
    # an Fsa runs in the VPA loop on its own rows: every field of the run,
    # with and without a trace, every error text, and fsa_run's verdicts
    # stay those of its all-internal Vpa and of a walk of its table
    outcomes, plain = set(), set()
    for seed in range(12):
        rng = random.Random(seed)
        m = random_fsa(rng, 1 + seed % 4, density=0.5 + seed % 4 * 0.15)
        letters = m.alphabet + ("x9",)
        words = list(all_tagged_words(letters, 3))
        words += [tw + (TaggedSymbol(base, tag),) for tw in all_tagged_words(m.alphabet, 2)
                  for base in ("c", "x9") for tag in (3, -1)]
        for twin in (m, serialize.loads(serialize.dumps(m))):
            vpa = reference_vpa_from_fsa(twin)
            for tw in words:
                for trace in (False, True):
                    want = _outcome(lambda v, w: reference_vpa_run(v, w, trace), vpa, tw)
                    assert _outcome(lambda v, w: vpa_run(v, w, trace), twin, tw) == want, (seed, tw, trace)
                want = _outcome(lambda v, w: reference_vpa_run(v, w).accepted, vpa, tw)
                assert _outcome(machine_accepts, twin, tw) == want, (seed, tw)
                outcomes.add(want if isinstance(want, bool) else want[1])
            for w in itertools.chain.from_iterable(itertools.product(letters, repeat=n) for n in range(4)):
                want = _outcome(reference_fsa_run, twin, w)
                assert _outcome(fsa_run, twin, w) == want, (seed, w)
                plain.add(want if isinstance(want, bool) else want[1])
    assert outcomes == {
        True, False, "letter 'x9' not in alphabet",
        "tag 3 on 'c' is not a call, internal or return tag",
        "tag -1 on 'c' is not a call, internal or return tag",
    }
    assert plain == {True, False, "letter 'x9' not in alphabet"}


def test_traced_run_reads_a_one_shot_word_once():
    free, fsa = build_free_vpa(1).automaton, build_finite_fsa(cyclic_group(2)).automaton
    for m, text in ((free, "<x1"), (free, "<x1 x1'>"), (fsa, "t t"), (fsa, "t")):
        word = parse_word(text)
        for trace in (False, True):
            assert vpa_run(m, iter(word), trace) == vpa_run(m, word, trace), (text, trace)
    assert not vpa_run(free, iter(parse_word("<x1")), True).accepted
    assert len(vpa_run(fsa, iter(parse_word("t t")), True).trace) == 3


# ---------------------------------------------------------------------------
# NVPA


def test_nvpa_singleton_embedding_agrees():
    rng = random.Random(3)
    for trial in range(3):
        m = random_vpa(rng)
        n = nvpa_from_vpa(m)
        for tw in all_tagged_words(("a", "b"), 6 if trial == 0 else 4):
            assert nvpa_run(n, tw) == vpa_run(m, tw).accepted


def test_nvpa_empty_initials_rejects_everything():
    n = Nvpa(("a",), {"q"}, set(), "$", set(), {"q"}, set(), {}, {}, {})
    assert not nvpa_run(n, ())
    assert not nvpa_run(n, parse_word("a"))


def test_nvpa_run_agrees_with_configuration_sets():
    words = list(all_tagged_words(("a", "b"), 5))
    for seed in range(12):
        rng = random.Random(seed)
        m = random_vpa(rng, 1 + seed % 5, n_stack=1 + seed % 3)
        p = random_vpa(rng, 3)
        for n in (vpl_reverse(m), vpl_star(m), vpl_concat(m, p), nvpa_from_vpa(m)):
            for tw in words:
                assert nvpa_run(n, tw) == configuration_set_run(n, tw), (seed, tw)


def test_nvpa_two_push_choices_at_depth_64():
    # two push choices per call: 2^64 distinct stacks at depth 64
    def machine(accept_stack):
        return Nvpa(
            ("a",), {"p"}, {"g", "h"}, "$", {"p"}, {"p"}, accept_stack,
            delta_c={("p", "a"): {("p", "g"), ("p", "h")}},
            delta_i={},
            delta_r={("p", "a", "h"): {"p"}},
        )

    deep = parse_word("<a " * 64)
    assert nvpa_run(machine({"g"}), deep)
    assert not nvpa_run(machine(set()), deep)
    assert nvpa_run(machine(set()), deep + parse_word("a> " * 64))
    assert not nvpa_run(machine({"g", "h"}), deep + parse_word("a> " * 65))


def test_reverse_nvpa_at_depth_10000():
    verdicts = set()
    for seed in (0, 1):
        rng = random.Random(seed)
        m = random_vpa(rng)
        w = deep_walk(m, rng, 10_000)
        assert w is not None
        verdict = nvpa_run(vpl_reverse(m), reverse_word(w))
        assert verdict == vpa_run(m, w).accepted
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _outcome(run, n, tw):
    """A run's verdict, or the type and text of what it raised."""
    try:
        return run(n, tw)
    except ValueError as exc:
        return type(exc), str(exc)


def _closure_nvpas(seed: int) -> tuple:
    rng = random.Random(seed)
    m = random_vpa(rng, 1 + seed % 5, n_stack=1 + seed % 3)
    p = random_vpa(rng, 3)
    return m, p, (vpl_reverse(m), vpl_star(m), vpl_concat(m, p), nvpa_from_vpa(m))


def test_nvpa_run_agrees_with_the_reference_on_short_words():
    words = list(all_tagged_words(("a", "b"), 5))
    for seed in range(30):
        for n in _closure_nvpas(seed)[2]:
            for tw in words:
                assert nvpa_run(n, tw) == reference_nvpa_run(n, tw), (seed, tw)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=39))
def test_nvpa_run_agrees_with_the_reference_at_depth(seed, flip):
    m, p, nvpas = _closure_nvpas(seed % 60)
    rng = random.Random(seed)
    u, v = random_walk(m, rng, 20), random_walk(p, rng, 20)
    words = [u + v, u, reverse_word(u + v)]
    # one symbol retagged, so that runs also die and reject at depth
    words += [w[:flip] + (TaggedSymbol(w[flip].base, (w[flip].tag + 1) % 3),) + w[flip + 1:]
              for w in words if flip < len(w)]
    for n in nvpas:
        for w in words:
            assert nvpa_run(n, w) == reference_nvpa_run(n, w), (seed, w)


def test_nvpa_run_forks_and_rejoins_at_depth_as_the_reference_does():
    # frames that fork to several entries and rejoin to one, 20 and more
    # calls deep, under callers of one entry and of several; calls on
    # frames whose entries differ in their ok flag, since accept_stack
    # holds only some stack symbols; and returns at the bottom after both.
    # Int tags run as the Tags they equal.
    lanes, verdicts = set(), set()
    fork = fork_nvpa()
    for w in fork_nvpa_words():
        lanes |= summary_lanes(fork, w)
        for tw in (w, _int_tagged(w)):
            want = reference_nvpa_run(fork, tw)
            assert nvpa_run(fork, tw) == want, tw
            verdicts.add(want)
    for seed in range(24):
        rng = random.Random(seed)
        m = random_vpa(rng, 2 + seed % 4, n_stack=1 + seed % 3)
        p = random_vpa(rng, 3)
        for n in (vpl_reverse(m), vpl_star(m), vpl_concat(m, p), nvpa_from_vpa(m)):
            for w in fork_walks(m, p, rng):
                lanes |= summary_lanes(n, w)
                for tw in (w, _int_tagged(w)):
                    want = reference_nvpa_run(n, tw)
                    assert nvpa_run(n, tw) == want, (seed, w)
                    verdicts.add(want)
    assert verdicts == {True, False}
    assert lanes == SUMMARY_LANES


def test_an_nvpa_with_no_initials_fails_on_a_bad_letter_as_the_reference_does():
    n = dataclasses.replace(fork_nvpa(), initials=frozenset())
    for text in ("x9", "<a x9", "b x9", "c> x9"):
        tw = parse_word(text)
        want = _outcome(reference_nvpa_run, n, tw)
        assert _outcome(nvpa_run, n, tw) == want, text
        assert _outcome(nvpa_run, n, _int_tagged(tw)) == want, text
    assert _outcome(nvpa_run, n, parse_word("x9")) == (ValueError, "letter 'x9' not in alphabet")


def test_nvpa_run_edge_cases_match_the_reference():
    bare = Nvpa(("a",), {"q"}, set(), "$", set(), {"q"}, set(), {}, {}, {})
    # returns at the bottom read it in place; g is pushed but never accepted
    loop = Nvpa(
        ("a", "b"), {"p", "q"}, {"g", "h"}, "$", {"p"}, {"p"}, {"h"},
        delta_c={("p", "a"): {("p", "g"), ("q", "h")}, ("q", "a"): {("q", "h")}},
        delta_i={("p", "b"): {"p", "q"}},
        delta_r={("p", "b", "$"): {"p"}, ("q", "b", "$"): {"q"}, ("q", "a", "h"): {"p", "q"}},
    )
    words = [
        "", "a", "b", "b>", "b> b> b", "<a", "<a <a", "<a <a a>", "<a a> a>",
        "b <a <a a> b>", "x9", "b x9", "<a x9", "b> x9", "<b x9", "a> x9", "<a <a a> a> x9",
    ]
    verdicts = set()
    for n in (bare, loop):
        for text in words:
            tw = parse_word(text)
            want = _outcome(reference_nvpa_run, n, tw)
            assert _outcome(nvpa_run, n, tw) == want, text
            assert _outcome(nvpa_run, n, tuple(TaggedSymbol(b, int(t)) for b, t in tw)) == want, text
            verdicts.add(want if isinstance(want, bool) else want[0])
    assert verdicts == {True, False, ValueError}
    # a run that dies before the letter rejects; one that reaches it raises
    assert not nvpa_run(loop, parse_word("<b x9"))
    with pytest.raises(ValueError, match="letter 'x9' not in alphabet"):
        nvpa_run(loop, parse_word("<a x9"))
    with pytest.raises(ValueError, match="letter 'x9' not in alphabet"):
        nvpa_run(bare, parse_word("x9"))


def _concat_with_states(at_least: int):
    for seed in itertools.count():
        rng = random.Random(seed)
        m, p = random_vpa(rng, 6, ("a", "b", "c"), 3), random_vpa(rng, 6, ("a", "b", "c"), 3)
        n = vpl_concat(m, p)
        if len(n.states) >= at_least:
            return m, p, n


def _concat_words(m, p, rng, length: int) -> tuple:
    """A walk of m then one of p, the first cut to its longest prefix that
    m accepts and, on half the calls, the second likewise, so that many
    words lie in the concatenation and many do not."""
    u, v = random_walk(m, rng, length), random_walk(p, rng, length)
    cut = max((i for i in range(len(u) + 1) if vpa_run(m, u[:i]).accepted), default=len(u))
    if rng.random() < 0.5:
        v = v[:max((j for j in range(len(v) + 1) if vpa_run(p, v[:j]).accepted), default=len(v))]
    return u[:cut] + v


def test_nvpa_stored_images_stay_under_the_cap_on_long_runs():
    m, p, n = _concat_with_states(20)
    rng = random.Random(7)
    verdicts = set()
    for _ in range(300):
        verdicts.add(nvpa_run(n, _concat_words(m, p, rng, 150)))
    assert verdicts == {True, False}
    assert 0 < n._rows.budget.stored < machines.MAX_STORED_IMAGES


def test_nvpa_image_rows_are_invisible():
    m, p, n = _concat_with_states(20)
    twin = vpl_concat(m, p)
    before = (repr(n), serialize.dumps(n))
    rng = random.Random(3)
    for _ in range(50):
        nvpa_run(n, random_walk(m, rng, 60) + random_walk(p, rng, 60))
    assert n._rows.budget.stored > 0
    assert n == twin and twin == n
    assert (repr(n), serialize.dumps(n)) == before
    for clone in (copy.copy(n), copy.deepcopy(n), pickle.loads(pickle.dumps(n))):
        assert clone == n and "_rows" not in vars(clone)


def test_replaced_nvpa_gets_fresh_image_rows():
    m, p, n = _concat_with_states(20)
    rng = random.Random(5)
    words = [_concat_words(m, p, rng, 40) for _ in range(40)]
    accepted = [w for w in words if nvpa_run(n, w)]
    assert accepted
    twin = dataclasses.replace(n)
    assert twin == n and twin._rows is not n._rows
    none_accept = dataclasses.replace(n, accepts=frozenset())
    assert not any(nvpa_run(none_accept, w) for w in accepted)


def test_threads_sharing_an_nvpa_store_each_image_once():
    from concurrent.futures import ThreadPoolExecutor

    m, p, n = _concat_with_states(20)
    rows = n._rows
    # a return row serves every entry over its symbol, and the empty row
    # every symbol a letter pops nothing off, so count each row once
    distinct = {
        id(row): row
        for family, found in rows.symbols.values()
        for row in ([found] if family is Tag.INTERNAL else found)
    }
    tables = list(distinct.values())
    compiled = sum(map(len, tables))
    rng = random.Random(13)
    words = [_concat_words(m, p, rng, 80) for _ in range(400)]
    serial = [reference_nvpa_run(n, w) for w in words]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda w: nvpa_run(n, w), words, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    assert 0 < rows.budget.stored == sum(map(len, tables)) - compiled


@pytest.mark.parametrize("cap", [0, 3])
def test_nvpa_answers_do_not_depend_on_the_image_cap(cap, monkeypatch):
    monkeypatch.setattr(machines, "MAX_STORED_IMAGES", cap)
    m, p, n = _concat_with_states(20)
    rng = random.Random(11)
    for _ in range(60):
        w = random_walk(m, rng, 60) + random_walk(p, rng, 60)
        assert nvpa_run(n, w) == reference_nvpa_run(n, w)
    assert n._rows.budget.stored == cap


# ---------------------------------------------------------------------------
# compiled run rows: agreement, bad symbols, shared labels, lifecycle


def test_nvpa_run_on_loaded_twins_matches_the_reference():
    # letters outside the alphabet, int tags and tags that equal no Tag, on
    # closure outputs as built and as read back from their documents
    words = list(all_tagged_words(("a", "b", "x9"), 3))
    words += [_int_tagged(tw) for tw in words if len(tw) == 3]
    words += _bad_tag_words()
    outcomes = set()
    for seed in range(12):
        m, p, nvpas = _closure_nvpas(seed)
        rng = random.Random(seed)
        walks = [random_walk(m, rng, 30) + random_walk(p, rng, 30) for _ in range(10)]
        for n in nvpas:
            for twin in (n, serialize.loads(serialize.dumps(n))):
                for tw in words + walks:
                    want = _outcome(reference_nvpa_run, twin, tw)
                    assert _outcome(nvpa_run, twin, tw) == want, (seed, tw)
                    outcomes.add(want if isinstance(want, bool) else want[1])
    assert outcomes == {
        True, False, "letter 'x9' not in alphabet",
        "tag 3 on 'a' is not a call, internal or return tag",
        "tag -1 on 'a' is not a call, internal or return tag",
    }


@pytest.mark.parametrize("tag", [7, 3, -1, "x", None])
def test_a_tag_equal_to_no_tag_raises_in_every_kernel(tag):
    m = build_free_vpa(1).automaton
    fsa = build_finite_fsa(cyclic_group(2)).automaton
    word = (TaggedSymbol("x1", 0), TaggedSymbol("x1'", tag))
    kernels = {
        "vpa_run": lambda w: vpa_run(m, w).accepted,
        "traced vpa_run": lambda w: vpa_run(m, w, record_trace=True).accepted,
        "machine_accepts": lambda w: machine_accepts(m, w),
        "PrefixDecider.member": closures.PrefixDecider(m).member,
        "nvpa_run": lambda w: nvpa_run(nvpa_from_vpa(m), w),
        "nvpa_run on a reversal": lambda w: nvpa_run(vpl_reverse(m), w),
    }
    for name, run in kernels.items():
        run(word[:1])  # the well-tagged prefix runs
        with pytest.raises(ValueError, match="is not a call, internal or return tag"):
            run(word)
        # a run that dies before the symbol rejects
        assert not run((TaggedSymbol("x1'", 2),) + word[1:]), name
    for run in (lambda w: machine_accepts(fsa, w), lambda w: vpa_run(fsa, w, record_trace=True)):
        with pytest.raises(ValueError, match="is not a call, internal or return tag"):
            run((TaggedSymbol("t", 1), TaggedSymbol("t", tag)))
    with pytest.raises(ValueError, match="letter 'x9' not in alphabet"):
        vpa_run(m, (TaggedSymbol("x9", tag),))


@pytest.mark.parametrize("sym", [("x1", 0, 9), ("x1",)])
def test_a_symbol_that_is_not_a_pair_raises_the_same_error_in_both_kernels(sym):
    # nvpa_run used to pass the symbol's items to the symbol check and
    # raise a TypeError about its arguments
    m = build_free_vpa(1).automaton
    errors = set()
    for run in (lambda w: vpa_run(m, w), lambda w: nvpa_run(nvpa_from_vpa(m), w)):
        with pytest.raises(ValueError) as caught:
            run((TaggedSymbol("x1", 0), sym))
        errors.add(str(caught.value))
    assert len(errors) == 1 and "values to unpack" in errors.pop()


def test_rows_of_a_loaded_machine_hold_one_object_per_label():
    m = serialize.loads(serialize.dumps(build_semidirect(3, 3).automaton))
    assert vpa_run(m, ()).accepted
    rows = m._rows
    labels = [rows.initial, rows.bottom]
    for family, row in rows.symbols.values():
        for key, move in row.items():
            labels.append(key)
            if family is Tag.CALL:
                labels.extend(move)
            elif family is Tag.RETURN:
                labels.extend(itertools.chain.from_iterable(move.items()))
            else:
                labels.append(move)
    assert len(labels) > 1000
    first: dict = {}
    for label in labels:
        assert first.setdefault(label, label) is label, label
    assert set(first) == m.states | m.stack_alphabet | {m.bottom}


def test_runs_report_labels_equal_across_kinds_as_the_machine_gives_them():
    # True == 1 and False == 0, and VpaRun equality cannot tell them
    # apart, so reprs are compared: the states, stack, trace and reasons
    m = mixed_label_vpa()
    words = list(all_tagged_words(("a", "b"), 3))
    for twin in (m, serialize.loads(serialize.dumps(m))):
        run = vpa_run(twin, ())
        assert repr((run.state, run.stack)) == "(1, (False,))"
        run = vpa_run(twin, parse_word("<a"), record_trace=True)
        assert repr((run.state, run.stack)) == "(0, (False, True))"
        assert repr(run.trace[0].state) == "1"
        for tw in words:
            for trace in (False, True):
                assert repr(vpa_run(twin, tw, trace)) == repr(reference_vpa_run(twin, tw, trace)), tw


def test_an_nvpa_with_no_initials_rejects_every_word_and_raises_on_bad_symbols():
    # its frame is empty from the start, so only the lookup of the first
    # symbol can find fault with it, and every run dies there
    n = dataclasses.replace(nvpa_from_vpa(random_vpa(random.Random(4), 3)), initials=frozenset())
    words = list(all_tagged_words(("a", "b"), 3))
    assert () in words
    bad = {
        TaggedSymbol("x9", Tag.CALL): "letter 'x9' not in alphabet",
        TaggedSymbol("a", 3): "tag 3 on 'a' is not a call, internal or return tag",
        TaggedSymbol("b", -1): "tag -1 on 'b' is not a call, internal or return tag",
    }
    for twin in (n, serialize.loads(serialize.dumps(n))):
        assert not twin.initials
        for run in (nvpa_run, machine_accepts):
            assert not any(run(twin, tw) for tw in words)
            for sym, text in bad.items():
                for tw in words:
                    with pytest.raises(ValueError, match=f"^{text}$"):
                        run(twin, (sym,) + tw)
                # the run dies on a well-formed first symbol, before sym
                assert not run(twin, (TaggedSymbol("a", Tag.INTERNAL), sym))


def _deterministic_builders() -> tuple:
    """A Vpa and an Fsa builder, each with the table whose emptying kills
    a run at its first symbol of a tag."""
    return (
        (lambda: build_semidirect(2, 2).automaton, "delta_c", Tag.CALL),
        (lambda: build_finite_fsa(symmetric_group(3)).automaton, "delta", Tag.INTERNAL),
    )


def test_vpa_run_rows_are_invisible():
    for build, _, _ in _deterministic_builders():
        m, twin = build(), build()
        before = (repr(m), serialize.dumps(m))
        words = list(all_tagged_words(m.alphabet[:3], 3))
        verdicts = [vpa_run(m, tw).accepted for tw in words]
        assert any(verdicts)
        assert "_rows" in vars(m) and "_rows" not in vars(twin)
        assert m == twin and twin == m
        assert (repr(m), serialize.dumps(m)) == before
        for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert clone == m and "_rows" not in vars(clone)
            assert [vpa_run(clone, tw).accepted for tw in words] == verdicts


def test_replaced_vpa_gets_fresh_run_rows():
    for build, table, tag in _deterministic_builders():
        m = build()
        words = list(all_tagged_words(m.alphabet[:3], 4))
        accepted = [tw for tw in words if vpa_run(m, tw).accepted]
        assert accepted
        twin = dataclasses.replace(m)
        assert twin == m and twin._rows is not m._rows
        none_accept = dataclasses.replace(m, accepts=frozenset())
        assert not any(machine_accepts(none_accept, tw) for tw in accepted)
        opening = [tw for tw in accepted if tw and tw[0].tag == tag]
        assert opening
        emptied = dataclasses.replace(m, **{table: {}})
        kind = "call" if tag == Tag.CALL else "internal"
        for tw in opening:
            assert vpa_run(emptied, tw).reason == f"no {kind} transition from {m.initial!r} on {tw[0].base!r}"


# ---------------------------------------------------------------------------
# determinization: the reference subset construction the regular gluing
# references and the golden regular machines are built with


def test_determinize_preserves_deterministic_language():
    m = astar_bstar_fsa()
    n = Nfa(
        m.alphabet,
        m.states,
        {m.initial},
        m.accepts,
        {(q, a): {dst} for (q, a), dst in m.delta.items()},
    )
    d = reference_fsa_determinize(n)
    for length in range(7):
        for w in itertools.product("ab", repeat=length):
            assert fsa_run(d, w) == fsa_run(m, w)


def test_determinize_reverse_of_ambn():
    m = astar_bstar_fsa()
    delta = {}
    for (q, a), dst in m.delta.items():
        delta.setdefault((dst, a), set()).add(q)
    reversed_nfa = Nfa(m.alphabet, m.states, m.accepts, {m.initial}, delta)
    d = reference_fsa_determinize(reversed_nfa)
    assert fsa_run(d, "bba")
    # reversal oracle on {a^m b^n}
    for length in range(7):
        for w in itertools.product("ab", repeat=length):
            assert fsa_run(d, w) == fsa_run(m, w[::-1])


def test_determinize_ab_suffix_nfa():
    # (a|b)*ab: accepted iff the word ends in "ab"
    n = Nfa(
        ("a", "b"),
        {0, 1, 2},
        {0},
        {2},
        {(0, "a"): {0, 1}, (0, "b"): {0}, (1, "b"): {2}},
    )
    d = reference_fsa_determinize(n)
    for length in range(9):
        for w in itertools.product("ab", repeat=length):
            expected = len(w) >= 2 and w[-2:] == ("a", "b")
            assert nfa_run(n, w) == expected
            assert fsa_run(d, w) == expected


# ---------------------------------------------------------------------------
# completion and acceptance normalization


def test_complete_preserves_free_vpa_language():
    m = build_free_vpa(1).automaton
    c = vpa_complete(m)
    for tw in all_tagged_words(m.alphabet, 6):
        assert vpa_run(c, tw).accepted == vpa_run(m, tw).accepted


def test_complete_is_total():
    rng = random.Random(5)
    m = random_vpa(rng)
    c = vpa_complete(m)
    readable = c.stack_alphabet | {c.bottom}
    for q in c.states:
        for a in c.alphabet:
            assert (q, a) in c.delta_c
            assert (q, a) in c.delta_i
            for g in readable:
                assert (q, a, g) in c.delta_r


def test_complete_preserves_random_languages():
    rng = random.Random(6)
    for trial in range(3):
        m = random_vpa(rng)
        c = vpa_complete(m)
        for tw in all_tagged_words(("a", "b"), 6 if trial == 0 else 4):
            assert vpa_run(c, tw).accepted == vpa_run(m, tw).accepted


def test_complete_sink_symbol_is_acceptable():
    rng = random.Random(8)
    for _ in range(4):
        m = random_vpa(rng, n_stack=rng.randrange(1, 4))
        c = vpa_complete(m)
        (sink_sym,) = c.stack_alphabet - m.stack_alphabet
        assert c.accept_stack == m.accept_stack | {sink_sym}
    m = random_vpa(rng, n_stack=2)
    full = dataclasses.replace(m, accept_stack=m.stack_alphabet)
    c = vpa_complete(full)
    assert c.accept_stack == c.stack_alphabet
    for tw in all_tagged_words(("a", "b"), 5):
        assert vpa_run(c, tw).accepted == vpa_run(full, tw).accepted


def test_normalize_acceptance_state_only():
    rng = random.Random(7)
    m = random_vpa(rng)
    n = vpa_normalize_acceptance(m)
    assert n.accept_stack == n.stack_alphabet


def test_normalize_preserves_free_vpa_language():
    m = build_free_vpa(1).automaton  # accept_stack is empty here
    n = vpa_normalize_acceptance(m)
    for tw in all_tagged_words(m.alphabet, 6):
        assert vpa_run(n, tw).accepted == vpa_run(m, tw).accepted


def test_normalize_preserves_random_languages():
    rng = random.Random(8)
    for trial in range(3):
        m = random_vpa(rng)
        n = vpa_normalize_acceptance(m)
        for tw in all_tagged_words(("a", "b"), 6 if trial == 0 else 4):
            assert vpa_run(n, tw).accepted == vpa_run(m, tw).accepted


def test_canonicalize_preserves_language_and_names():
    rng = random.Random(9)
    m = random_vpa(rng)
    c = canonicalize(m)
    assert all(isinstance(q, str) and q.startswith("q") for q in c.states)
    for tw in all_tagged_words(("a", "b"), 4):
        assert vpa_run(c, tw).accepted == vpa_run(m, tw).accepted


def _pops_unpushed_symbol() -> Vpa:
    # p pushes only g; the return into q reads h, which nothing pushes
    return Vpa(
        ("a",), {"p", "q"}, {"g", "h"}, "$", "p", {"p"}, {"g", "h"},
        {("p", "a"): ("p", "g")}, {}, {("p", "a", "h"): "q"},
    )


@pytest.mark.parametrize("embed", [lambda m: m, nvpa_from_vpa], ids=["vpa", "nvpa"])
def test_canonicalize_names_no_state_behind_an_unpushed_symbol(embed):
    c = canonicalize(embed(_pops_unpushed_symbol()))
    assert c.states == {"q0"}
    assert c.stack_alphabet == {"g0"}
    assert not c.delta_r


@pytest.mark.parametrize("embed", [lambda m: m, nvpa_from_vpa], ids=["vpa", "nvpa"])
def test_canonicalize_drops_a_return_its_state_never_meets_on_top(embed):
    # r pushes h, but p is only ever reached on the bottom, so no run takes
    # the return from p on h
    m = Vpa(
        ("a", "b"), {"p", "r", "s", "t"}, {"h"}, "$", "p", {"t"}, set(),
        {("r", "a"): ("s", "h")}, {("p", "a"): "r"}, {("p", "b", "h"): "t"},
    )
    c = canonicalize(embed(m))
    assert len(c.states) == 3
    assert c.stack_alphabet == {"g0"}
    assert not c.delta_r
    for tw in all_tagged_words(m.alphabet, 4):
        assert machine_accepts(c, tw) == machine_accepts(embed(m), tw)


def test_machines_refuse_a_null_state():
    # the tables would read a target None as a missing move, so each of
    # these machines would reject "a" although it accepts it
    builds = [
        lambda: Fsa(("a",), {0, None}, 0, {None}, {(0, "a"): None}),
        lambda: Pda(("a",), {0, None}, {"Z"}, 0, "Z", {None}, {(0, "a", "Z"): (None, ("Z",))}),
        lambda: Vpa(("a",), {0, None}, set(), "$", 0, {None}, set(), {}, {(0, "a"): None}, {}),
        lambda: Nvpa(("a",), {0, None}, set(), "$", {0}, {None}, set(), {}, {(0, "a"): {None}}, {}),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="None is not a state label"):
            build()
    # a tuple holding None is an ordinary label
    m = Fsa(("a",), {0, (None,)}, 0, {(None,)}, {(0, "a"): (None,)})
    assert fsa_run(m, "a")


def test_canonicalize_names_a_pushed_none_symbol():
    # a call pushing the label None used to be taken for an internal move
    m = Vpa(("a",), {"p"}, {None}, "$", "p", {"p"}, {None}, {("p", "a"): ("p", None)}, {}, {("p", "a", None): "p"})
    c = canonicalize(m)
    assert c.delta_c == {("q0", "a"): ("q0", "g0")}
    assert c.delta_r == {("q0", "a", "g0"): "q0"}


def test_canonicalize_keeps_every_state_a_named_move_reaches():
    # every state but the initial one has an incoming kept move
    for seed in range(40):
        m = canonicalize(random_vpa(random.Random(seed), n_states=5, n_stack=3, density=0.5))
        calls, internals, returns = transition_rows(m)
        targets = {row[2] for row in calls} | {row[2] for row in internals} | {row[3] for row in returns}
        assert m.states - {m.initial} <= targets


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_canonicalize_commutes_with_nvpa_embedding(seed):
    m = random_vpa(random.Random(seed))
    assert canonicalize(nvpa_from_vpa(m)) == nvpa_from_vpa(canonicalize(m))


def test_canonicalize_is_idempotent_on_a_vpa():
    # a canonical Vpa searched again meets its states in the order of its names
    for seed in range(60):
        rng = random.Random(seed)
        m1 = random_vpa(rng, n_states=2 + seed % 5, n_stack=1 + seed % 3, density=0.4 + 0.1 * (seed % 5))
        m2 = random_vpa(rng, n_states=3, n_stack=2)
        for m in (vpl_union(m1, m2), canonicalize(m1)):
            assert canonicalize(m) == m


def test_search_matches_the_reference_search():
    # every search the closures and canonicalize make names, orders and
    # keeps exactly what the reference search does on the same lookups
    for seed in range(200):
        for name, build in search_cases(seed):
            assert search_disagreement(build) is None, (seed, name, search_disagreement(build))


def test_nvpa_closures_keep_no_more_than_the_reference_naming():
    # the search over (state, top) pairs against the naming that follows a
    # return on every pushed symbol, on the whole concat, star and reverse
    # machines the reference builders glue
    words = list(all_tagged_words(("a", "b"), 5))
    fewer = 0
    for seed in range(10):
        rng = random.Random(seed)
        m1 = random_vpa(rng, n_states=1 + seed % 4, n_stack=1 + seed % 3, density=0.4 + 0.1 * (seed % 5))
        m2 = random_vpa(rng, n_states=2, n_stack=2)
        for raw in (reference_vpl_concat(m1, m2), reference_vpl_star(m1), reference_vpl_reverse(m1)):
            c, reference = canonicalize(raw), reference_bfs_canonicalize(raw)
            assert _transition_count(c) <= _transition_count(reference)
            fewer += _transition_count(c) < _transition_count(reference)
            for tw in words:
                assert nvpa_run(c, tw) == reference_nvpa_run(raw, tw), tw
    assert fewer > 0


def _transition_count(m) -> int:
    return sum(sum(1 for _ in rows) for rows in transition_rows(m))


# ---------------------------------------------------------------------------
# serialization


def test_dumps_golden_digest():
    # pins the JSON text and the canonical names of every output, byte for byte
    digest, kinds = dumps_digest(golden_closure_machines())
    assert kinds == {"vpa", "nvpa"}
    assert digest == GOLDEN_CLOSURE_DIGEST


def test_dumps_golden_digest_builders():
    # the free, direct and semidirect builders' JSON, byte for byte
    digest, kinds = dumps_digest(golden_builder_machines())
    assert kinds == {"vpa"}
    assert digest == GOLDEN_BUILDER_DIGEST


def test_dumps_golden_digest_regular():
    # every regular closure, canonicalize(Fsa) and the reference subset
    # construction, byte for byte
    digest, kinds = dumps_digest(golden_regular_machines())
    assert kinds == {"fsa"}
    assert digest == GOLDEN_REGULAR_DIGEST


def test_serialize_roundtrip_fsa():
    m = astar_bstar_fsa()
    doc = serialize.dumps(m)
    again = serialize.loads(doc)
    assert again == m
    assert serialize.dumps(again) == doc


def test_serialize_roundtrip_pair_fsa():
    pairs = (("a", "a"), ("a", "b"))
    m = Fsa(pairs, {"p"}, "p", {"p"}, {("p", ("a", "a")): "p", ("p", ("a", "b")): "p"})
    again = serialize.loads(serialize.dumps(m))
    assert again == m


def test_serialize_roundtrip_pda():
    m = anbn_pda()
    again = serialize.loads(serialize.dumps(m))
    assert again == m
    assert pda_run(again, "aaabbb")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dumps_loads_dumps_is_identity(seed):
    rng = random.Random(seed)
    m = random_vpa(rng, 1 + rng.randrange(4), n_stack=1 + rng.randrange(3))
    for machine in (m, random_fsa(rng, 1 + rng.randrange(4)), nvpa_from_vpa(m), vpl_reverse(m)):
        doc = serialize.dumps(machine)
        assert serialize.dumps(serialize.loads(doc)) == doc


def test_serialize_roundtrip_vpa_and_nvpa():
    m = build_free_vpa(2).automaton
    again = serialize.loads(serialize.dumps(m))
    assert again == m
    n = nvpa_from_vpa(m)
    n_again = serialize.loads(serialize.dumps(n))
    assert n_again == n
    assert serialize.dumps(n_again) == serialize.dumps(n)


def test_serialize_tuple_states_roundtrip():
    # tuple labels become JSON arrays and come back as tuples
    m = Vpa(("a",), {("q", 1)}, set(), "$", ("q", 1), set(), set(), {}, {}, {})
    assert serialize.loads(serialize.dumps(m)) == m


def test_serialize_rejects_set_labels():
    m = Vpa(("a",), {frozenset({"q"})}, set(), "$", frozenset({"q"}), set(), set(), {}, {}, {})
    with pytest.raises(serialize.SerializationError):
        serialize.dumps(m)


def test_serialize_unknown_kind():
    with pytest.raises(serialize.SerializationError):
        serialize.loads('{"kind": "widget"}')


# ---------------------------------------------------------------------------
# tags compared by value: an int tag runs as the Tag it equals


def _int_tagged(tw) -> tuple:
    return tuple(TaggedSymbol(base, int(tag)) for base, tag in tw)


def _kernels(kind: str):
    """The machine of a kind and every kernel that runs it."""
    if kind == "vpa":
        m = build_free_vpa(1).automaton
        nvpa = nvpa_from_vpa(m)
        return m, (lambda tw: vpa_run(m, tw), lambda tw: nvpa_run(nvpa, tw))
    if kind == "nvpa":
        m = vpl_reverse(build_free_vpa(1).automaton)
        return m, (lambda tw: nvpa_run(m, tw),)
    m = build_finite_fsa(cyclic_group(2)).automaton
    vpa = reference_vpa_from_fsa(m)
    return m, (lambda tw: vpa_run(m, tw), lambda tw: vpa_run(vpa, tw))


@pytest.mark.parametrize("kind", ["vpa", "nvpa", "fsa"])
def test_int_tags_run_as_their_tag_twins(kind):
    m, kernels = _kernels(kind)
    accepted = 0
    for tw in all_tagged_words(m.alphabet, 4):
        twin = _int_tagged(tw)
        assert twin == tw
        verdict = machine_accepts(m, tw)
        assert machine_accepts(m, twin) == verdict, tw
        for run in kernels:
            assert run(twin) == run(tw), tw
        accepted += verdict
    assert accepted > 0


def test_int_tagged_free_word_is_accepted():
    m = build_free_vpa(1).automaton
    tw = (TaggedSymbol("x1", 0), TaggedSymbol("x1'", 2))
    assert tw == parse_word("<x1 x1'>")
    assert vpa_run(m, tw).accepted
