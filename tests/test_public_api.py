"""The public surface: the names `nestword` exports.

A change to this list is a change to the public API, and belongs in the
CHANGES.md entry that makes it.
"""

import types

import nestword

PUBLIC_NAMES = [
    "Configuration",
    "FiniteGroupSpec",
    "FreeGroupSpec",
    "Fsa",
    "MatchingRelation",
    "NestedWord",
    "Nfa",
    "Nvpa",
    "Pda",
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
    "canonical_matching",
    "canonicalize",
    "concat",
    "decode",
    "encode",
    "enumerate_taggings",
    "forget",
    "format_word",
    "free_reduce",
    "fsa_determinize",
    "fsa_run",
    "nvpa_run",
    "parse_word",
    "pda_run",
    "pda_step",
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


def test_public_names_are_pinned():
    exported = sorted(
        name
        for name, value in vars(nestword).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
