"""The streaming operator's research configuration, spelled as a spec.

``StreamingASAP`` takes only an :class:`~repro.spec.AsapSpec`, whose defaults
are the serving defaults.  Most operator-level tests pin the paper's research
configuration instead: from-scratch window statistics, per-pane sketches
kept, no pyramid.  :func:`research_spec` spells those three fields once;
any field a test passes overrides them.
"""

from repro.spec import AsapSpec

RESEARCH_FIELDS = {"incremental": False, "keep_pane_sketches": True, "pyramid": False}


def research_spec(**fields) -> AsapSpec:
    """An :class:`AsapSpec` with :data:`RESEARCH_FIELDS` under *fields*."""
    return AsapSpec(**{**RESEARCH_FIELDS, **fields})
