"""The streaming operator's research configuration, spelled as a spec.

``StreamingASAP`` takes only an :class:`~repro.spec.AsapSpec`, whose defaults
are the serving defaults.  Most operator-level tests pin the paper's research
configuration instead: window statistics recomputed from scratch on every
refresh.  :func:`research_spec` spells that field once; any field a test
passes overrides it.
"""

from repro.spec import AsapSpec

RESEARCH_FIELDS = {"incremental": False}


def research_spec(**fields) -> AsapSpec:
    """An :class:`AsapSpec` with :data:`RESEARCH_FIELDS` under *fields*."""
    return AsapSpec(**{**RESEARCH_FIELDS, **fields})
