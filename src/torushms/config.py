"""`torushms.config.RelationBounds`, an alias of `sheafk.RelationBounds`,
kept for callers that still name this module; the class lives in
`sheafk`."""

from .sheafk import RelationBounds

__all__ = ["RelationBounds"]
