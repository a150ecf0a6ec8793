"""Exception types shared across the package."""

from __future__ import annotations


class VoxmiError(Exception):
    """Base class for all package-specific errors."""


class FormatError(VoxmiError):
    """A file does not conform to its declared format.

    Carries enough location info (line number or byte offset) to point the
    user at the offending record.
    """

    def __init__(self, path, reason: str, line: int | None = None,
                 byte_offset: int | None = None):
        self.path = str(path)
        self.reason = reason
        self.line = line
        self.byte_offset = byte_offset
        loc = ""
        if line is not None:
            loc = f", line {line}"
        elif byte_offset is not None:
            loc = f", byte {byte_offset}"
        super().__init__(f"{self.path}{loc}: {reason}")


class DegenerateOrientationError(VoxmiError):
    """Pitch too close to +/-90 degrees for a unique Euler decomposition."""


class OutOfBoundsError(VoxmiError):
    """A point falls outside the representable voxel index range."""


class EmptyOverlapError(VoxmiError):
    """The two scans' occupied bounds do not intersect at the probed pose."""


class NoOverlapError(VoxmiError):
    """No probed pose produced any overlap; alignment cannot proceed."""


class BoxTooLargeError(VoxmiError):
    """A dense voxel box would have more cells than the grid allows."""
