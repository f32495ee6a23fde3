"""Test-session setup for hypothesis: its failure report and its profiles."""

import warnings

from hypothesis import settings

# When a @given test fails, hypothesis's pytest plugin imports its patch
# writer, hypothesis.extra._patching, whose libcst import makes
# mypy_extensions raise a DeprecationWarning.  Under error::DeprecationWarning
# that is an INTERNALERROR, which ends the run.  Importing the module once
# here, with that warning ignored, keeps the filter for every other import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass

# "tier1", loaded here, draws the same examples in every run (each test's seed
# is a hash of its source), so a run repeats and a failure replays by running
# it again; a failure also prints its @reproduce_failure blob.  Hypothesis's
# built-in "default" profile draws fresh examples:
# pytest --hypothesis-profile=default [--hypothesis-seed=N].
settings.register_profile("tier1", derandomize=True, print_blob=True)
settings.load_profile("tier1")
