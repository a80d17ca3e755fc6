"""Completion provider gateway: one abstraction over rule-based, scripted,
and remote text-generation backends."""
