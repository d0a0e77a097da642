"""Set-up shared by the test modules."""

import warnings

# When a property test fails, hypothesis's pytest plugin imports its patch
# writer, which imports libcst, and libcst's import warns that
# mypy_extensions.TypedDict is deprecated.  The suite turns every
# DeprecationWarning into an error, so that warning became a pytest
# INTERNALERROR that hid the falsifying example and the summary.  Importing
# the patch writer here, with only that warning ignored, keeps the filter on
# everything else.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis or no libcst: the plugin writes no patch
        pass
