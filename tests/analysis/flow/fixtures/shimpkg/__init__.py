"""Synthetic package: a clock read reached through a self-call and an import."""
