"""The storage modes a pipeline's Store task can write to.

The graph model (``kg.model``) and the pilot records (``learning.pilots``)
both check a mode against this tuple.  It lives outside both layers, so a
stage that reads pilot records does not load ``kg`` and ``datalog``.
"""

STORAGE_MODES = ("fast", "cloud")
