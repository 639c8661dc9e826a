"""A pytest plugin for the mutation gate: hypothesis runs every phase but shrink.

``run.py`` loads it into each of its pytest runs with ``-p no_shrink``.  To
kill a mutant a property test need only fail; shrinking its failing example
took 30-125 s per mutant.  The Tier-1 suite does not load this plugin and
keeps hypothesis's default phases.
"""

from hypothesis import Phase, settings

settings.register_profile("mutation-gate", phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("mutation-gate")
