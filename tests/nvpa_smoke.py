"""Standard-library-only smoke of nvpa_run against the reference summary
run, and of the serialized bytes against the golden digests, for
interpreters that have no pytest:

    PYTHONPATH=src python tests/nvpa_smoke.py

Runs every tagged word of length <= 4 over two letters, and 20 walks of
up to 80 letters, on the reverse, star and concat closures and the NVPA
embedding of seeded random VPAs; checks that each of the six VPL closures
of those VPAs, their shuffle with a random FSA and their images under an
identity and a non-functional relabeling equal canonicalize of the whole
machine its reference builder makes, and that each product builder
dumps as its whole-table reference does; then checks that the golden
closure, builder and regular machines dump to the pinned digests.
Exits 1 on the first disagreement.  Run under two PYTHONHASHSEED values,
it also shows that no canonical name depends on hashing.
"""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    GOLDEN_BUILDER_DIGEST,
    GOLDEN_CLOSURE_DIGEST,
    GOLDEN_REGULAR_DIGEST,
    PRODUCT_SPECS,
    VPL_CLOSURE_REFERENCES,
    dumps_digest,
    forked_relabeling,
    golden_builder_machines,
    golden_closure_machines,
    golden_regular_machines,
    identity_relabeling,
    nvpa_from_vpa,
    random_fsa,
    random_vpa,
    random_walk,
    reference_build_product,
    reference_nvpa_run,
    reference_relabel_image,
    reference_shuffle,
)

from nestword.closures import relabel_image, shuffle, vpl_concat, vpl_reverse, vpl_star  # noqa: E402
from nestword.groups import build_recognizer  # noqa: E402
from nestword.machines import canonicalize, nvpa_run  # noqa: E402
from nestword.serialize import dumps  # noqa: E402
from nestword.words import all_tagged_words  # noqa: E402


def main() -> int:
    words = list(all_tagged_words(("a", "b"), 4))
    runs = accepted = built = 0
    for seed in range(30):
        rng = random.Random(seed)
        m = random_vpa(rng, 1 + seed % 5, n_stack=1 + seed % 3)
        p = random_vpa(rng, 3)
        walks = [random_walk(m, rng, 40) + random_walk(p, rng, 40) for _ in range(20)]
        for n in (vpl_reverse(m), vpl_star(m), vpl_concat(m, p), nvpa_from_vpa(m)):
            for tw in words + walks:
                got, want = nvpa_run(n, tw), reference_nvpa_run(n, tw)
                if got != want:
                    print(f"seed {seed}: nvpa_run says {got}, the reference {want}, on {tw}")
                    return 1
                runs += 1
                accepted += got
        for name, closure, reference, arity in VPL_CLOSURE_REFERENCES:
            args = (m, p)[:arity]
            if closure(*args) != canonicalize(reference(*args)):
                print(f"seed {seed}: vpl_{name} differs from canonicalize of its reference builder")
                return 1
            built += 1
        r = random_fsa(rng, 1 + seed % 4)
        pairs = [("shuffle", shuffle(m, r), reference_shuffle(m, r))]
        for phi in (identity_relabeling(m.alphabet), forked_relabeling()):
            pairs.append(("relabel_image", relabel_image(m, phi), reference_relabel_image(m, phi)))
        for name, got, reference in pairs:
            if dumps(got) != dumps(canonicalize(reference)):
                print(f"seed {seed}: {name} differs from canonicalize of its reference builder")
                return 1
            built += 1
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
        f"Python {sys.version.split()[0]}: {runs} runs agree ({accepted} accepted); "
        f"{built} closures and builders equal their references; golden digests match"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
