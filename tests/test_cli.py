"""Command-line interface: exit codes, golden outputs, round trips."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from nestword.cli import main as cli_main
from nestword import closures, serialize
from nestword.groups import group_spec_from_doc
from nestword.machines import Fsa, vpa_run
from nestword.words import format_word, reverse as reverse_word
from oracles import astar_bstar_fsa, deep_walk, enumerate_taggings, group_letters, mixed_label_vpa, random_vpa

FREE1 = {"kind": "free", "n": 1}
FREE2 = {"kind": "free", "n": 2}
Z2 = {"kind": "finite", "elements": ["e", "t"], "identity": "e",
      "table": [["e", "t"], ["t", "e"]]}
DIRECT_F1_Z2 = {"kind": "direct", "n": 1, "elements": ["e", "t"], "identity": "e",
                "table": [["e", "t"], ["t", "e"]]}
SEMI_F2_S2 = {"kind": "semidirect", "n": 2, "m": 2}


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([str(a) for a in args])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def build(tmp_path, doc, stem):
    spec = write_spec(tmp_path, f"{stem}.spec.json", doc)
    out = tmp_path / f"{stem}.aut.json"
    code, stdout, _ = run_cli("build", "--group", spec, "--out", out)
    assert code == 0, stdout
    return out, stdout


def test_build_free_reports_sizes(tmp_path):
    _, stdout = build(tmp_path, FREE2, "free2")
    assert "rho contract: bijection" in stdout
    assert "states: 5" in stdout
    assert "stack symbols: 5" in stdout


def test_build_finite_two_states(tmp_path):
    _, stdout = build(tmp_path, Z2, "z2")
    assert "states: 2" in stdout
    assert "stack symbols: 0" in stdout


def test_build_semidirect_m_exceeding_n_exits_2(tmp_path):
    spec = write_spec(tmp_path, "bad.json", {"kind": "semidirect", "n": 1, "m": 2})
    code, _, err = run_cli("build", "--group", spec, "--out", tmp_path / "x.json")
    assert code == 2
    assert "error" in err


def test_build_unreadable_spec_exits_1(tmp_path):
    code, _, _ = run_cli("build", "--group", tmp_path / "missing.json",
                         "--out", tmp_path / "x.json")
    assert code == 1


def test_build_and_closure_that_cannot_write_exit_1(tmp_path):
    # the out path's parent is a regular file, so no write can succeed
    spec = write_spec(tmp_path, "z2.spec.json", Z2)
    aut, _ = build(tmp_path, Z2, "z2")
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "out.json"
    for argv in (("build", "--group", spec, "--out", out),
                 ("closure", "--op", "complement", "--inputs", aut, "--out", out)):
        code, stdout, err = run_cli(*argv)
        assert (code, stdout) == (1, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {out}: "), err
    assert blocker.read_text() == "kept\n"
    # a build that fails before writing leaves no file behind
    bad = write_spec(tmp_path, "bad.spec.json", {"kind": "free", "n": 0})
    assert run_cli("build", "--group", bad, "--out", tmp_path / "never.json")[0] == 2
    assert not (tmp_path / "never.json").exists()


def test_check_accepts_and_rejects(tmp_path):
    aut, _ = build(tmp_path, FREE2, "free2")
    code, out, _ = run_cli("check", "--automaton", aut, "<x1", "x1'>")
    assert (code, out.strip()) == (0, "accept")
    code, out, _ = run_cli("check", "--automaton", aut, "x1", "x1'>")
    assert (code, out.strip()) == (1, "reject")
    code, out, _ = run_cli("check", "--automaton", aut)
    assert (code, out.strip()) == (0, "accept")  # empty word


def test_check_plain_word_to_vpa_errors(tmp_path):
    aut, _ = build(tmp_path, FREE2, "free2")
    code, _, err = run_cli("check", "--automaton", aut, "x1", "x1")
    assert code == 2
    assert "annotate" in err
    code, out, _ = run_cli("check", "--automaton", aut, "--internal", "x1", "x1")
    assert (code, out.strip()) == (1, "reject")


def test_check_trace_prints_configurations(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    code, out, _ = run_cli("check", "--automaton", aut, "--trace", "<x1", "x1'>")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "accept"
    assert len(lines) == 4  # three configurations plus the verdict
    assert "state='e'" in lines[0]


def test_check_trace_on_fsa(tmp_path):
    aut, _ = build(tmp_path, Z2, "z2")
    code, out, _ = run_cli("check", "--automaton", aut, "--trace", "t", "t")
    assert code == 0
    assert out.splitlines() == [
        "state='e' remaining=t t stack=[$]",
        "state='t' remaining=t stack=[$]",
        "state='e' remaining=ε stack=[$]",
        "accept",
    ]
    code, out, _ = run_cli("check", "--automaton", aut, "--trace", "t", "<t")
    assert code == 1
    assert out.splitlines()[-2:] == ["note: no call transition from 't' on 't'", "reject"]
    code, out, _ = run_cli("check", "--automaton", aut, "--trace", "t")
    assert code == 1
    assert out.splitlines()[-2:] == ["note: final configuration not accepting", "reject"]


def test_check_trace_prints_labels_as_the_file_gives_them(tmp_path):
    # states 0 and 1 beside the stack symbol true and the bottom false
    aut = tmp_path / "mixed.json"
    aut.write_text(serialize.dumps(mixed_label_vpa()))
    code, out, _ = run_cli("check", "--automaton", aut, "--trace", "b", "<a")
    assert code == 1
    assert out.splitlines() == [
        "state=1 remaining=b <a stack=[False]",
        "state=0 remaining=<a stack=[False]",
        "state=1 remaining=ε stack=[False True]",
        "note: final configuration not accepting",
        "reject",
    ]


def test_check_trace_on_semidirect(tmp_path):
    # every built recognizer is an FSA or a VPA, so every one has a trace
    aut, _ = build(tmp_path, SEMI_F2_S2, "semi")
    for tokens, expected in ((("p21", "<x1", "p21", "x2'>"), 0), (("p21", "<x1", "p21", "x1'>"), 1)):
        code, out, _ = run_cli("check", "--automaton", aut, "--trace", *tokens)
        lines = out.splitlines()
        assert code == expected
        assert lines[-1] == ("accept" if expected == 0 else "reject")
        assert lines[0] == "state='e|p12' remaining=" + " ".join(tokens) + " stack=[$]"
        assert all(line.startswith("state=") for line in lines[1:-1 - expected])
        assert "not available" not in out


def test_check_parse_error(tmp_path):
    aut, _ = build(tmp_path, FREE2, "free2")
    code, _, _ = run_cli("check", "--automaton", aut, "<")
    assert code == 2


def test_check_finite_plain_word(tmp_path):
    aut, _ = build(tmp_path, Z2, "z2")
    assert run_cli("check", "--automaton", aut, "t", "t")[0] == 0
    assert run_cli("check", "--automaton", aut, "t")[0] == 1


def test_annotate_examples(tmp_path):
    spec = write_spec(tmp_path, "free1.json", FREE1)
    code, out, _ = run_cli("annotate", "--group", spec, "x1", "x1'", "x1", "x1'")
    assert code == 0
    assert out.strip() == "<x1 x1'> <x1 x1'>"
    spec2 = write_spec(tmp_path, "direct.json", DIRECT_F1_Z2)
    code, out, _ = run_cli("annotate", "--group", spec2, "x1", "t", "x1'", "t")
    assert code == 0
    assert out.strip() == "<x1 t x1'> t"


def test_annotate_not_identity(tmp_path):
    spec = write_spec(tmp_path, "free1.json", FREE1)
    code, out, _ = run_cli("annotate", "--group", spec, "x1")
    assert code == 1
    assert out.strip() == "not identity"


def test_annotate_parse_error(tmp_path):
    spec = write_spec(tmp_path, "free1.json", FREE1)
    assert run_cli("annotate", "--group", spec, "<x1")[0] == 2
    assert run_cli("annotate", "--group", spec, "y1")[0] == 2


def test_annotate_then_check_accepts(tmp_path):
    for doc, stem in ((FREE2, "free2"), (DIRECT_F1_Z2, "direct"), (SEMI_F2_S2, "semi")):
        spec_path = write_spec(tmp_path, f"{stem}.json", doc)
        aut, _ = build(tmp_path, doc, stem)
        spec = group_spec_from_doc(doc)
        rng = random.Random(hash(stem) & 0xFFFF)
        letters = group_letters(spec)
        checked = 0
        while checked < 3:
            w = [rng.choice(letters) for _ in range(rng.randrange(1, 6))]
            code, out, _ = run_cli("annotate", "--group", spec_path, *w)
            if code != 0:
                continue
            tokens = out.split()
            result = run_cli("check", "--automaton", aut, "--internal", *tokens)
            assert result[0] == 0, (w, out, result)
            checked += 1


def test_enum_free_f1(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    code, out, _ = run_cli("enum", "--automaton", aut, "--max-len", 2)
    assert code == 0
    assert out.splitlines() == ["ε", "<x1 x1'>", "<x1' x1>"]


def test_enum_fsa_listing(tmp_path):
    path = tmp_path / "ambn.json"
    serialize.save(astar_bstar_fsa(), path)
    code, out, _ = run_cli("enum", "--automaton", path, "--max-len", 2)
    assert code == 0
    assert out.splitlines() == ["ε", "a", "b", "a a", "a b", "b b"]


def test_enum_cap(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    assert run_cli("enum", "--automaton", aut, "--max-len", 9)[0] == 2
    assert run_cli("enum", "--automaton", aut, "--max-len", 3, "--cap", 3)[0] == 0


def test_enum_negative_max_len_exits_2(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    code, out, err = run_cli("enum", "--automaton", aut, "--max-len", -1)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_closure_complement_twice_preserves_enum(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    c1 = tmp_path / "c1.json"
    c2 = tmp_path / "c2.json"
    assert run_cli("closure", "--op", "complement", "--inputs", aut, "--out", c1)[0] == 0
    assert run_cli("closure", "--op", "complement", "--inputs", c1, "--out", c2)[0] == 0
    original = run_cli("enum", "--automaton", aut, "--max-len", 5)
    doubled = run_cli("enum", "--automaton", c2, "--max-len", 5)
    assert original[1] == doubled[1]


def test_closure_shuffle_equals_direct_build(tmp_path):
    free_aut, _ = build(tmp_path, FREE1, "free1")
    z2_aut, _ = build(tmp_path, Z2, "z2")
    direct_aut, _ = build(tmp_path, DIRECT_F1_Z2, "direct")
    shuffled = tmp_path / "shuffled.json"
    code, out, _ = run_cli(
        "closure", "--op", "shuffle", "--inputs", free_aut, z2_aut, "--out", shuffled
    )
    assert code == 0
    assert "deterministic: yes" in out
    left = run_cli("enum", "--automaton", shuffled, "--max-len", 5)
    right = run_cli("enum", "--automaton", direct_aut, "--max-len", 5)
    assert left[1] == right[1]


def test_closure_reverse_of_free_f1(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    rev = tmp_path / "rev.json"
    code, out, _ = run_cli("closure", "--op", "reverse", "--inputs", aut, "--out", rev)
    assert code == 0
    assert "deterministic: no" in out
    assert run_cli("check", "--automaton", rev, "<x1", "x1'>")[0] == 0


def test_closure_prefix_word_mode(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    assert run_cli("closure", "--op", "prefix", "--inputs", aut, "--word", "<x1")[0] == 0
    assert run_cli("closure", "--op", "prefix", "--inputs", aut, "--word", "x1")[0] == 1


def test_closure_word_outside_vpa_prefix_exits_2(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    z2_aut, _ = build(tmp_path, Z2, "z2")
    for argv in (
        ("--op", "prefix", "--inputs", z2_aut, "--word", "<t"),  # an FSA
        ("--op", "union", "--inputs", aut, aut, "--word", "x1"),
        ("--op", "prefix", "--inputs", aut, aut, "--word", "<x1"),
    ):
        code, out, err = run_cli("closure", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_closure_arity_and_kind_errors(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    z2_aut, _ = build(tmp_path, Z2, "z2")
    assert run_cli("closure", "--op", "union", "--inputs", aut)[0] == 2
    assert run_cli("closure", "--op", "union", "--inputs", aut, z2_aut)[0] == 2
    assert run_cli("closure", "--op", "shuffle", "--inputs", z2_aut, aut)[0] == 2


@pytest.mark.parametrize("op, arity", [
    ("union", 2), ("intersection", 2), ("concat", 2),
    ("complement", 1), ("star", 1), ("reverse", 1), ("prefix", 1),
])
def test_closure_of_fsas_writes_the_regular_closure(tmp_path, op, arity):
    z2_aut, _ = build(tmp_path, Z2, "z2")
    out = tmp_path / f"{op}.json"
    code, stdout, _ = run_cli("closure", "--op", op, "--inputs", *[z2_aut] * arity, "--out", out)
    assert (code, stdout) == (0, "deterministic: yes\n")
    inputs = [serialize.load(z2_aut)] * arity
    assert out.read_text() == serialize.dumps(getattr(closures, f"reg_{op}")(*inputs))


# a deterministic pushdown automaton's document: its kind is not one the
# reader knows, so every command refuses it
PDA_DOC = {"kind": "pda", "alphabet": ["a", "b"], "states": ["p", "q"], "stack_alphabet": ["Z"],
           "initial": "p", "bottom": "Z", "accepts": ["q"], "transitions": [["p", "a", "Z", "q", ["Z"]]]}


@pytest.mark.parametrize("argv, message", [
    (("check", "--automaton", "{pda}", "a"), "cannot load automaton: unknown machine kind 'pda'"),
    (("enum", "--automaton", "{pda}", "--max-len", "2"), "cannot load automaton: unknown machine kind 'pda'"),
    (("closure", "--op", "complement", "--inputs", "{z2}", "{z2}"), "complement takes one input"),
    (("closure", "--op", "relabel", "--inputs", "{z2}", "{free1}"), "relabel takes a VPA and a pair FSA, in that order"),
    (("closure", "--op", "prefix", "--inputs", "{free1}"), "prefix on a VPA needs --word (membership query)"),
    (("closure", "--op", "complement", "--inputs", "{pda}"), "cannot load input: unknown machine kind 'pda'"),
    (("closure", "--op", "relabel", "--inputs", "{free1}", "{z2}"), "pair FSA symbol 'e' is not a letter pair"),
])
def test_closure_check_and_enum_refusals_exit_2(tmp_path, argv, message):
    files = {"pda": write_spec(tmp_path, "pda.json", PDA_DOC), "z2": build(tmp_path, Z2, "z2")[0]}
    files["free1"], _ = build(tmp_path, FREE1, "free1")
    result = run_cli(*[a.format(**files) for a in argv])
    assert_one_error_line(result)
    assert result[2] == f"error: {message}\n"


def test_check_trace_on_an_nvpa_notes_it_has_none(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    rev = tmp_path / "rev.json"
    assert run_cli("closure", "--op", "reverse", "--inputs", aut, "--out", rev)[0] == 0
    result = run_cli("check", "--automaton", rev, "--trace", "<x1", "x1'>")
    assert result == (0, "note: --trace is not available for nondeterministic machines\naccept\n", "")


def test_closure_writes_stdout_without_out(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    code, out, err = run_cli("closure", "--op", "complement", "--inputs", aut)
    assert code == 0
    assert json.loads(out)["kind"] == "vpa"
    assert "deterministic" in err


def test_oracle_examples(tmp_path):
    spec = write_spec(tmp_path, "free2.json", FREE2)
    assert run_cli("oracle", "--group", spec, "x1", "x2", "x2'", "x1'")[0] == 0
    semi = write_spec(tmp_path, "semi.json", SEMI_F2_S2)
    code, out, _ = run_cli("oracle", "--group", semi, "p21", "x1", "p21", "x2'")
    assert (code, out.strip()) == (0, "identity")
    assert run_cli("oracle", "--group", spec, "x1")[0] == 1
    assert run_cli("oracle", "--group", spec)[0] == 0
    assert run_cli("oracle", "--group", spec, "<x1")[0] == 2


def test_oracle_matches_tagging_search_through_cli(tmp_path):
    # oracle verdict == "some tagging passes check", exhaustively at short
    # lengths through the CLI itself (the library-level suites push the
    # same property to length 6)
    from nestword.words import format_word

    for doc, stem, max_len in ((FREE2, "free2", 3), (DIRECT_F1_Z2, "direct", 2)):
        spec_path = write_spec(tmp_path, f"{stem}.json", doc)
        aut, _ = build(tmp_path, doc, stem)
        letters = group_letters(group_spec_from_doc(doc))
        import itertools

        for n in range(max_len + 1):
            for w in itertools.product(letters, repeat=n):
                oracle_code = run_cli("oracle", "--group", spec_path, *w)[0]
                found = any(
                    run_cli("check", "--automaton", aut, "--internal",
                            *format_word(tw).split())[0] == 0
                    for tw in enumerate_taggings(w)
                )
                assert (oracle_code == 0) == found, w


def assert_one_error_line(result):
    code, _, err = result
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_build_group_spec_not_an_object_exits_2(tmp_path):
    spec = write_spec(tmp_path, "list.json", [1, 2])
    assert_one_error_line(run_cli("build", "--group", spec, "--out", tmp_path / "x.json"))


def test_oracle_group_spec_not_an_object_exits_2(tmp_path):
    spec = write_spec(tmp_path, "list.json", [1, 2])
    assert_one_error_line(run_cli("oracle", "--group", spec, "x1"))


def test_annotate_group_spec_not_an_object_exits_2(tmp_path):
    spec = write_spec(tmp_path, "list.json", [1, 2])
    assert_one_error_line(run_cli("annotate", "--group", spec, "x1"))


def test_check_machine_missing_field_exits_2(tmp_path):
    aut = write_spec(tmp_path, "bare.json", {"kind": "vpa"})
    result = run_cli("check", "--automaton", aut, "<a", "a>")
    assert_one_error_line(result)
    assert "'transitions'" in result[2]


NULL_STATE_FSA = {"kind": "fsa", "alphabet": ["a"], "states": [0, None], "initial": 0, "accepts": [None],
                  "transitions": [[0, "a", None]]}


@pytest.mark.parametrize("argv", [
    ("closure", "--op", "complement", "--inputs", "{aut}"),
    ("closure", "--op", "prefix", "--inputs", "{aut}"),
    ("check", "--automaton", "{aut}", "a"),
])
def test_null_state_exits_2(tmp_path, argv):
    # a state labelled null would read as a missing move: complement would
    # fail with KeyError: None, and check would answer "reject"
    aut = write_spec(tmp_path, "null.json", NULL_STATE_FSA)
    result = run_cli(*[a.format(aut=aut) for a in argv])
    assert_one_error_line(result)
    assert "None is not a state label" in result[2]


REPEATED_LETTER_FSA = {"kind": "fsa", "alphabet": ["a", "a"], "states": ["q"], "initial": "q",
                       "accepts": ["q"], "transitions": [["q", "a", "q"]]}


@pytest.mark.parametrize("argv", [
    ("enum", "--automaton", "{aut}", "--max-len", "2"),
    ("check", "--automaton", "{aut}", "a"),
    ("check", "--automaton", "{aut}", "--trace", "a"),
    ("closure", "--op", "complement", "--inputs", "{aut}"),
])
def test_repeated_alphabet_letter_exits_2(tmp_path, argv):
    # such an alphabet used to load: enum listed `a` twice and `a a` four
    # times, and check --trace refused what check answered
    aut = write_spec(tmp_path, "twice.json", REPEATED_LETTER_FSA)
    result = run_cli(*[a.format(aut=aut) for a in argv])
    assert_one_error_line(result)
    assert "duplicate letters in alphabet" in result[2]


def test_empty_alphabet_exits_2_from_every_runner(tmp_path):
    # such an FSA used to load: check answered accept and enum listed the
    # empty word, while check --trace refused it
    aut = write_spec(tmp_path, "empty.json", _fsa_lettered([]))
    errors = set()
    for argv in (("check", "--automaton", aut), ("check", "--automaton", aut, "--trace"),
                 ("enum", "--automaton", aut, "--max-len", "2")):
        result = run_cli(*argv)
        assert_one_error_line(result)
        errors.add(result[2])
    assert errors == {"error: cannot load automaton: invalid fsa document: alphabet must be non-empty\n"}


def _fsa_lettered(letters) -> dict:
    return {"kind": "fsa", "alphabet": letters, "states": ["q"], "initial": "q", "accepts": ["q"],
            "transitions": [["q", letter, "q"] for letter in letters]}


@pytest.mark.parametrize("letters, named", [
    ([1, 2], "bad letter name: 1"),
    ([["a", "b"]], "bad letter name: ('a', 'b')"),
])
@pytest.mark.parametrize("argv", [
    ("enum", "--automaton", "{aut}", "--max-len", "2"),
    ("check", "--automaton", "{aut}", "a"),
    ("check", "--automaton", "{aut}", "--trace", "a"),
])
def test_letters_that_are_not_tokens_exit_2(tmp_path, letters, named, argv):
    # enum used to crash with a TypeError traceback, and check answered
    # unless given --trace
    aut = write_spec(tmp_path, "odd.json", _fsa_lettered(letters))
    result = run_cli(*[a.format(aut=aut) for a in argv])
    assert_one_error_line(result)
    assert result[2] == f"error: {named}\n"


def test_closure_relabel_takes_a_pair_fsa(tmp_path):
    aut, _ = build(tmp_path, FREE1, "free1")
    letters = json.loads(aut.read_text())["alphabet"]
    pairs = write_spec(tmp_path, "pairs.json", _fsa_lettered([[a, a] for a in letters]))
    out = tmp_path / "image.json"
    code, stdout, _ = run_cli("closure", "--op", "relabel", "--inputs", aut, pairs, "--out", out)
    assert (code, stdout) == (0, "deterministic: no\n")
    original = run_cli("enum", "--automaton", aut, "--max-len", 4)
    assert run_cli("enum", "--automaton", out, "--max-len", 4) == original


def test_enum_machine_missing_field_exits_2(tmp_path):
    aut = write_spec(tmp_path, "bare.json", {"kind": "vpa"})
    assert_one_error_line(run_cli("enum", "--automaton", aut, "--max-len", "2"))


def test_closure_machine_missing_field_exits_2(tmp_path):
    aut = write_spec(tmp_path, "bare.json", {"kind": "vpa"})
    assert_one_error_line(run_cli("closure", "--op", "reverse", "--inputs", aut))


def test_machine_malformed_field_names_it(tmp_path):
    good, _ = build(tmp_path, FREE1, "free1")
    doc = json.loads(good.read_text())
    bad = [
        ("accepts", 3),
        ("initial", {"q": 1}),
        ("transitions", [[1]]),
        ("transitions", [["e", 5, "e"]]),
    ]
    for k, (field, value) in enumerate(bad):
        aut = write_spec(tmp_path, f"bad{k}.json", {**doc, field: value})
        result = run_cli("check", "--automaton", aut, "<x1", "x1'>")
        assert_one_error_line(result)
        assert f"'{field}'" in result[2]


def test_unknown_flag_exits_2(tmp_path):
    assert run_cli("check", "--bogus")[0] == 2
    assert run_cli("frobnicate")[0] == 2


def test_console_entry_subprocess(tmp_path):
    spec = write_spec(tmp_path, "free1.json", FREE1)
    out = tmp_path / "free1.aut.json"
    result = subprocess.run(
        [sys.executable, "-m", "nestword", "build", "--group", str(spec), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "nestword", "check", "--automaton", str(out), "<x1", "x1'>"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "accept"


def test_enum_into_a_pipe_its_reader_closes_exits_1_without_a_traceback(tmp_path):
    # every word of length <= 7 over four letters, about 230 kB: more than a
    # pipe holds, so enum is still writing when its reader goes away
    path = tmp_path / "everything.json"
    serialize.save(Fsa(tuple("abcd"), {"s"}, "s", {"s"}, {("s", a): "s" for a in "abcd"}), path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "nestword", "enum", "--automaton", str(path), "--max-len", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().endswith(b"\n")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert err == b"", err.decode(errors="replace")


def test_help_into_a_closed_pipe_exits_1_without_a_traceback():
    # stdout block-buffered, so the help text meets the closed pipe when it
    # is flushed, and unbuffered, so it meets it when argparse writes it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in (("--help",), ("check", "--help")):
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                result = subprocess.run([sys.executable, "-m", "nestword", *argv], stdout=write_end,
                                        stderr=subprocess.PIPE, env={**env, **unbuffered}, timeout=120)
            finally:
                os.close(write_end)
            assert result.returncode == 1, (argv, unbuffered)
            assert result.stderr == b"", result.stderr.decode(errors="replace")
    result = subprocess.run([sys.executable, "-m", "nestword", "--help"], capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: nestword")
    result = subprocess.run([sys.executable, "-m", "nestword", "frobnicate"], capture_output=True, text=True, env=env)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "invalid choice: 'frobnicate'" in result.stderr


def test_group_spec_field_errors_name_the_field(tmp_path):
    bad = [
        ({"kind": "free"}, "'n'"),
        ({**Z2, "elements": 5}, "'elements'"),
        ({"kind": "free", "n": "two"}, "'n'"),
        ({"kind": "free", "n": 2.7}, "'n'"),
        ({"kind": "free", "n": True}, "'n'"),
        ({"kind": "free", "n": "2"}, "'n'"),
    ]
    for k, (doc, field) in enumerate(bad):
        spec = write_spec(tmp_path, f"bad{k}.json", doc)
        for argv in (("oracle", "--group", spec, "x1"), ("annotate", "--group", spec, "x1"),
                     ("build", "--group", spec, "--out", tmp_path / "x.json")):
            result = run_cli(*argv)
            assert_one_error_line(result)
            assert field in result[2], result[2]


@pytest.mark.parametrize("doc, message", [
    ({"kind": "free", "n": 0}, "free group needs n >= 1"),
    ({**SEMI_F2_S2, "m": 0}, "need n >= 1 and m >= 1"),
    ({**DIRECT_F1_Z2, "n": 0}, "free factor needs n >= 1"),
    ({**Z2, "elements": ["e", "e"]}, "duplicate element names"),
    ({**Z2, "identity": "x"}, "identity 'x' not an element"),
    ({**Z2, "table": [["e", "t"]]}, "table shape does not match the element list"),
    ({**Z2, "identity": 5}, "bad 'identity' field in finite group spec: expected a string"),
])
def test_group_spec_refusals_exit_2_with_one_line(tmp_path, doc, message):
    spec = write_spec(tmp_path, "bad.json", doc)
    result = run_cli("oracle", "--group", spec, "x1")
    assert_one_error_line(result)
    assert result[2] == f"error: cannot load group spec: {message}\n"


def test_check_rejects_out_of_alphabet_letters_anywhere(tmp_path):
    free2, _ = build(tmp_path, FREE2, "free2")
    z2, _ = build(tmp_path, Z2, "z2")
    semi, _ = build(tmp_path, SEMI_F2_S2, "semi")
    cases = [
        (free2, ("--internal", "x1", "x9")),
        (free2, ("--internal", "x1", "x1", "x9")),
        (z2, ("t", "t", "x9")),
        (z2, ("t", "<t", "x9")),
        (semi, ("p21", "<x1", "x2'>", "x9>")),
    ]
    for aut, tokens in cases:
        for trace in ((), ("--trace",)):
            result = run_cli("check", "--automaton", aut, *trace, *tokens)
            assert_one_error_line(result)
            assert result[2] == "error: letter 'x9' not in alphabet\n", (tokens, result)


def test_check_deep_word_on_reverse_nvpa(tmp_path):
    verdicts = set()
    for seed in (0, 1):
        rng = random.Random(seed)
        m = random_vpa(rng)
        w = deep_walk(m, rng, 20)
        assert w is not None
        vpa = tmp_path / f"m{seed}.json"
        rev = tmp_path / f"rev{seed}.json"
        vpa.write_text(serialize.dumps(m))
        assert run_cli("closure", "--op", "reverse", "--inputs", vpa, "--out", rev)[0] == 0
        code, out, err = run_cli("check", "--automaton", rev, *format_word(reverse_word(w)).split())
        expected = vpa_run(m, w).accepted
        assert (code, out.strip()) == ((0, "accept") if expected else (1, "reject")), err
        verdicts.add(expected)
    assert verdicts == {True, False}


# Every subcommand on each bad input: the expected exit code, one stderr
# line starting "error: ", and no traceback.  Each argv is valid apart from
# the one bad input; "{file}" stands for the file under test.
BAD_FILES = {
    "missing": None,
    "not-json": "{kind: free}",
    "nan": '{"kind": "free", "n": NaN}',
    "deep": "[" * 100_000 + "]" * 100_000,
}
FILE_ARGVS = {
    "build": ("build", "--group", "{file}", "--out", "{out}"),
    "check": ("check", "--automaton", "{file}", "<x1", "x1'>"),
    "annotate": ("annotate", "--group", "{file}", "x1", "x1'"),
    "enum": ("enum", "--automaton", "{file}", "--max-len", "2"),
    "closure": ("closure", "--op", "complement", "--inputs", "{file}"),
    "closure-word": ("closure", "--op", "prefix", "--inputs", "{file}", "--word", "<x1"),
    "oracle": ("oracle", "--group", "{file}", "x1", "x1'"),
}
# the same commands on a good file (FREE1, or its recognizer) with a bad word
WORD_ARGVS = [
    ("check-bad-token", ("check", "--automaton", "{aut}", "<x1", "x>1<")),
    ("annotate-bad-token", ("annotate", "--group", "{spec}", "x>1<")),
    ("closure-word-bad-token", ("closure", "--op", "prefix", "--inputs", "{aut}", "--word", "x>1<")),
    ("oracle-bad-token", ("oracle", "--group", "{spec}", "x>1<")),
    ("check-letter", ("check", "--automaton", "{aut}", "<x1", "x9", "x1'>")),
    ("closure-word-letter", ("closure", "--op", "prefix", "--inputs", "{aut}", "--word", "<zz")),
]
BAD_INPUT_CASES = [
    pytest.param(argv, text, 1 if (command, name) == ("build", "missing") else 2, id=f"{command}-{name}")
    for command, argv in FILE_ARGVS.items()
    for name, text in BAD_FILES.items()
] + [pytest.param(argv, None, 2, id=case) for case, argv in WORD_ARGVS]


@pytest.mark.parametrize("argv, text, code", BAD_INPUT_CASES)
def test_bad_input_exits_with_one_error_line(tmp_path, argv, text, code):
    bad = tmp_path / "bad.json"
    if text is not None:
        bad.write_text(text)
    aut, _ = build(tmp_path, FREE1, "free1")
    paths = {"file": bad, "out": tmp_path / "out.json", "aut": aut,
             "spec": write_spec(tmp_path, "free1.json", FREE1)}
    result_code, out, err = run_cli(*[a.format(**paths) for a in argv])
    assert (result_code, out) == (code, ""), (argv, err)
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
