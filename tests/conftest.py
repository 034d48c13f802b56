"""Suite-wide test settings.

Every `hypothesis` test runs under the profile registered here: no
deadline (each `@given` test sets none already), and a failing example
prints its reproduction blob, so that a falsified differential can be
replayed with `@reproduce_failure`.
"""

from hypothesis import settings

settings.register_profile("clustertess", deadline=None, print_blob=True)
settings.load_profile("clustertess")
