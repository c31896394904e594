"""Hypothesis profiles.  CI runs with ``--hypothesis-profile=ci``: examples
are derandomized and a failure prints the blob that replays it locally with
``@reproduce_failure``.  Local runs keep the default profile."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
