"""Encoder model: configuration, parameters, forward/backward, losses,
optimizer, and checkpointing."""
