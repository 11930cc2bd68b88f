"""Nested words, visibly pushdown automata, and group word problems."""

from .words import (
    MatchingRelation,
    NestedWord,
    Tag,
    TaggedSymbol,
    concat,
    decode,
    encode,
    forget,
    format_word,
    parse_word,
    prefix,
    reverse,
    validate_matching,
)
from .machines import (
    Configuration,
    Fsa,
    Nvpa,
    Vpa,
    canonicalize,
    fsa_run,
    nvpa_run,
    vpa_run,
)
from .closures import (
    PrefixDecider,
    Relabeling,
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
from .groups import (
    FiniteGroupSpec,
    FreeGroupSpec,
    Recognizer,
    build_direct_product,
    build_finite_fsa,
    build_free_vpa,
    build_recognizer,
    build_semidirect,
    psi_action,
)

__version__ = "0.1.0"
