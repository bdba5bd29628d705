"""Country-level eyeball connectivity analysis.

Selects the networks that concentrate a country's end users, checks which
of them host measurement probes, plans traceroute campaigns between them,
and classifies the resulting paths into an area-weighted AS-to-AS matrix
of in/out-of-country and direct/indirect verdicts.
"""

__version__ = "0.1.0"
