"""Suite-wide hypothesis settings: a failing draw prints its ``@reproduce_failure``
line, so it can be replayed on any machine, not only from the local example
database.  Every other setting stays that of the active profile."""

from hypothesis import settings

settings.register_profile("symplap", print_blob=True)
settings.load_profile("symplap")
