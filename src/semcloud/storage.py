"""The storage modes a pipeline's Store task can write to.

The graph check (``kg.validate``) and the pilot records (``pilots``) both
check a mode against this tuple.  It lives outside ``kg``, so a stage that
reads or writes pilot records does not load ``kg`` and ``datalog``.
"""

STORAGE_MODES = ("fast", "cloud")
