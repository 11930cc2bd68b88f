"""Hypothesis settings for continuous integration.

Where the `CI` environment variable is set (GitHub Actions sets it), every
property draws its examples from a fixed seed, so a failure repeats on a
rerun; it prints the blob that replays a failing example; and it has no
per-example deadline, since 4096-symbol examples on a slow runner may take
longer than the default 200 ms.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
