"""The public surface: the names `nestword` exports, and the README that
documents them.

A change to this list is a change to the public API, and belongs in the
CHANGES.md entry that makes it.  Every exported name has a job: the
library uses it, or the README says what it is for.
"""

import ast
import contextlib
import io
import json
import pathlib
import re
import tokenize
import types

import nestword
from nestword import serialize
from nestword.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

PUBLIC_NAMES = [
    "Configuration",
    "FiniteGroupSpec",
    "FreeGroupSpec",
    "Fsa",
    "MatchingRelation",
    "NestedWord",
    "Nvpa",
    "PrefixDecider",
    "Recognizer",
    "Relabeling",
    "Tag",
    "TaggedSymbol",
    "Vpa",
    "build_direct_product",
    "build_finite_fsa",
    "build_free_vpa",
    "build_recognizer",
    "build_semidirect",
    "canonicalize",
    "concat",
    "decode",
    "encode",
    "forget",
    "format_word",
    "fsa_run",
    "nvpa_run",
    "parse_word",
    "prefix",
    "psi_action",
    "relabel_image",
    "reverse",
    "shuffle",
    "validate_matching",
    "vpa_is_empty",
    "vpa_run",
    "vpl_complement",
    "vpl_concat",
    "vpl_equivalent",
    "vpl_intersection",
    "vpl_reverse",
    "vpl_star",
    "vpl_union",
]


def _exported() -> list:
    return sorted(
        name
        for name, value in vars(nestword).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def _loaded_names(tree) -> set:
    """The names a tree reads, as a bare name or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def _library_example() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "the README holds one python block, its library example"
    return blocks[0]


def test_public_names_are_pinned():
    assert _exported() == PUBLIC_NAMES


def test_every_export_has_a_job():
    # used by a library module, or documented in the README: an inline code
    # span that is the name, a call of it or an attribute of it, or a use in
    # the library example
    used = set()
    for path in (ROOT / "src" / "nestword").glob("*.py"):
        if path.name != "__init__.py":
            used |= _loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    spans = re.findall(r"`([^`\n]+)`", README)
    documented = _loaded_names(ast.parse(_library_example()))
    documented.update(
        name for name in PUBLIC_NAMES for span in spans
        if span == name or span.startswith((name + "(", name + "."))
    )
    idle = [name for name in _exported() if name not in used | documented]
    assert idle == []


# a minimal document of each kind, and commands that read one
MINIMAL_DOCUMENTS = {
    "fsa": {"kind": "fsa", "alphabet": ["a"], "states": ["q"], "initial": "q", "accepts": ["q"],
            "transitions": []},
    "vpa": {"kind": "vpa", "alphabet": ["a"], "states": ["q"], "stack_alphabet": [], "bottom": "$",
            "initial": "q", "accepts": ["q"], "accept_stack": [], "transitions": []},
    "nvpa": {"kind": "nvpa", "alphabet": ["a"], "states": ["q"], "stack_alphabet": [], "bottom": "$",
             "initials": ["q"], "accepts": ["q"], "accept_stack": [], "transitions": []},
}
READERS = [
    ("check", "--automaton", "{doc}"),
    ("enum", "--automaton", "{doc}", "--max-len", "1"),
    ("closure", "--op", "reverse", "--inputs", "{doc}"),
]


def test_every_document_kind_has_a_job(tmp_path):
    # each kind the reader loads is read by some command, which answers
    # (exit 0 or 1): a kind that loads only to be refused has no job
    assert sorted(serialize._KINDS) == sorted(MINIMAL_DOCUMENTS)
    for kind, doc in MINIMAL_DOCUMENTS.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        codes = []
        for argv in READERS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli_main([a.format(doc=path) for a in argv]))
        assert {0, 1} & set(codes), (kind, codes)


def test_readme_library_example_prints_its_comments():
    # each print in the example is followed by the line it prints, as a comment
    source = _library_example()
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    expected = [
        comments[node.end_lineno]
        for node in ast.parse(source).body
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "print"
    ]
    assert expected, "the library example prints nothing"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
