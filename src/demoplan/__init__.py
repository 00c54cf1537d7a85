"""Learn STRIPS-style planning operators from demonstration traces.

The pipeline: traces of timed symbolic frames are debounced, segmented into
labeled activities by priority rules, and each segment is read off as a
ground action schema (preconditions at the anchor frame, effects up to the
final one, restricted to the objects that changed). Operators are lifted to
typed variables, deduplicated up to renaming, and counted; counts turn into
action costs so that planning prefers the ways people actually demonstrated.
Libraries round-trip through a PDDL subset, and a monitor executes plans with
replanning when the world misbehaves.

Each name is imported from its module, such as ``demoplan.errors.InputError``.
"""
