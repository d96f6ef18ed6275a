"""Stdlib-``logging`` integration: the ``repro`` logger hierarchy.

Library modules obtain loggers through :func:`get_logger`, which roots
everything under the ``repro`` namespace (``repro.core.pincer``,
``repro.serve``, ...) so one call configures the whole tree.  The
package installs a :class:`logging.NullHandler` on the root ``repro``
logger at import, per library convention — silence by default, no
"no handler could be found" warnings, and the *application* (the CLI's
``--log-level`` flag, or a test) decides whether anything is printed.

:func:`configure_logging` is that application-side switch: it attaches a
single stream handler with a compact ``time level logger: message``
format and sets the level.  Calling it twice reconfigures instead of
stacking handlers.
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional, Union

__all__ = ["ROOT_LOGGER_NAME", "configure_logging", "get_logger"]

#: The root of the library's logger hierarchy.
ROOT_LOGGER_NAME = "repro"

#: Accepted ``--log-level`` spellings (case-insensitive).
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_DATE_FORMAT = "%H:%M:%S"

#: Marker attribute identifying the handler :func:`configure_logging` owns.
_HANDLER_FLAG = "_repro_obs_handler"


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` hierarchy.

    ``get_logger("core.pincer")`` and ``get_logger("repro.core.pincer")``
    return the same logger; the empty string returns the root ``repro``
    logger.
    """
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(ROOT_LOGGER_NAME + "." + name)


def resolve_level(level: Union[int, str]) -> int:
    """Normalise a level name ('info', 'DEBUG', ...) or int to an int."""
    if isinstance(level, int):
        return level
    resolved = logging.getLevelName(str(level).upper())
    if not isinstance(resolved, int):
        raise ValueError(
            "unknown log level %r (choose from %s)" % (level, ", ".join(LOG_LEVELS))
        )
    return resolved


def configure_logging(
    level: Union[int, str] = "info", stream: Optional[IO[str]] = None
) -> logging.Logger:
    """Attach one stream handler to the ``repro`` logger and set the level.

    Idempotent: a handler installed by a previous call is replaced, never
    duplicated.  Returns the configured root ``repro`` logger.
    """
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    logger.setLevel(resolve_level(level))
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_FLAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT, _DATE_FORMAT))
    setattr(handler, _HANDLER_FLAG, True)
    logger.addHandler(handler)
    return logger


# library convention: silent unless the application configures logging
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())
