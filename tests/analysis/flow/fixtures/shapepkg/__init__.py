"""Fixture corpus for the shape passes (flow-dense-alloc,
flow-unstable-order): every detector fires, every sanctioned pattern
stays clean."""
