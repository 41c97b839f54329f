"""Typed column kernels: machine-scalar buffers behind the columnar spine.

The columnar :class:`~repro.runtime.storage.EntityStore` keeps one Python
list per layout field.  Lists of boxed PyObjects are already enough for
the C-level passes the zone maps and column checks lean on (``min``,
``max``, ``sum``, ``list.index``), but every pass still touches a
PyObject per cell.  This module promotes *homogeneous* numeric columns
to typed buffers so the hot kernels — zone-map refresh, bounds/defect
masks, equality scans, accumulator sums — run over machine scalars:

* ``array('q')`` for all-``int`` columns, ``array('d')`` for all-
  ``float`` columns — stdlib only, always available;
* zero-copy ``numpy`` views over those buffers (``np.frombuffer``) when
  numpy is importable, unlocking the vectorized lanes;
* **no new hard dependency**: without numpy every kernel returns
  ``None`` and the caller falls back to the exact list/row path, which
  remains the behavioural oracle either way.

Promotion rules (deliberately strict — exactness beats coverage):

* a column promotes only while its value census is *exactly* ``{int}``
  or *exactly* ``{float}``.  ``bool`` (an ``int`` subclass), ``None``,
  strings, int/float mixes and exotic types all keep the column as a
  plain list: a mixed int/float buffer would have to widen ints to
  ``float64`` and silently round past 2**53, and a ``bool`` stored as
  ``1`` would corrupt the type-exact defect predicates;
* an ``int`` outside int64 (``OverflowError`` on admission) demotes;
* demotion is sticky until the spine is compacted, which rebuilds the
  mirrors from the live cells and re-attempts promotion.

Buffers are **derived, never authoritative**: the row dicts (and the
list columns mirroring them) remain the source of truth, which is why
WAL replay, replication and recovery state stay byte-identical — no
typed buffer is ever serialized, compared, or consulted by a path that
produces durable state.

Gating: set ``REPRO_NO_NUMPY=1`` to force the pure-stdlib fallback even
with numpy installed (tier-1 runs the suite in both modes).  Tests can
flip the vector lanes in-process with :func:`forced_mode`.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Optional, Sequence

#: Environment flag forcing the pure-stdlib fallback (read at import).
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

#: Chunks shorter than this skip the numpy census lane — the ndarray
#: round trip costs more than the boxed loop saves on tiny inputs.
MIN_VECTOR_CHUNK = 16

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: Every float partial sum over integers stays exactly representable
#: while its magnitude is bounded by this (see ``int_column_summary``).
EXACT_FLOAT_INT = 2 ** 53


def _load_numpy():
    if os.environ.get(NO_NUMPY_ENV, "") not in ("", "0"):
        return None
    try:
        import numpy
    except Exception:  # pragma: no cover - numpy is part of the image
        return None
    return numpy


_numpy = _load_numpy()
_active = _numpy


def kernel_mode() -> str:
    """``"numpy"`` when the vector lanes are live, ``"array"`` otherwise."""
    return "numpy" if _active is not None else "array"


def numpy_active() -> bool:
    return _active is not None


@contextmanager
def forced_mode(use_numpy: bool):
    """Test hook: pin the vector lanes on or off for the duration.

    ``forced_mode(False)`` exercises the stdlib fallback in-process;
    ``forced_mode(True)`` is a no-op when numpy was never imported
    (``REPRO_NO_NUMPY`` or genuinely absent) — the fallback stays.
    """
    global _active
    previous = _active
    _active = _numpy if use_numpy else None
    try:
        yield
    finally:
        _active = previous


class TypedColumn:
    """A machine-scalar mirror of one list column.

    ``typecode`` is ``'q'`` (int64) or ``'d'`` (float64); ``buf`` is the
    stdlib ``array`` holding one cell per spine slot, fillers at
    tombstoned slots (the row-id array is the liveness oracle, so a
    filler can never surface through a scan).  The numpy view is
    created per operation (`np.frombuffer` is zero-copy) and never
    cached — ``array`` reallocates on growth.
    """

    __slots__ = ("typecode", "buf")

    def __init__(self, typecode: str, values: Sequence = ()):
        self.typecode = typecode
        buf = array(typecode)
        if values:
            buf.extend(values)
        self.buf = buf

    def __len__(self) -> int:
        return len(self.buf)

    def extend(self, values: Sequence) -> None:
        self.buf.extend(values)

    def pad(self, count: int) -> None:
        """Append ``count`` fillers (an all-tombstone tail)."""
        filler = 0 if self.typecode == "q" else 0.0
        self.buf.extend([filler] * count)

    @property
    def filler(self):
        return 0 if self.typecode == "q" else 0.0

    @property
    def mode(self) -> str:
        return "numpy" if _active is not None else "array"

    def view(self):
        """A zero-copy numpy view of the buffer, or ``None`` in
        fallback mode."""
        np = _active
        if np is None:
            return None
        dtype = np.int64 if self.typecode == "q" else np.float64
        return np.frombuffer(self.buf, dtype=dtype)


def promote_column(column: Sequence, ids: Sequence) -> Optional[TypedColumn]:
    """A typed buffer for a full column, or ``None`` when it cannot
    promote.  ``ids[slot] is None`` marks a tombstone; its cell gets a
    filler so the buffer stays slot-aligned with the list column."""
    live = [
        value for value, record_id in zip(column, ids)
        if record_id is not None
    ]
    census = set(map(type, live))
    if census == {int}:
        code, filler = "q", 0
    elif census == {float}:
        code, filler = "d", 0.0
    else:
        return None
    if len(live) == len(column):
        values = column
    else:
        values = [
            value if record_id is not None else filler
            for value, record_id in zip(column, ids)
        ]
    try:
        return TypedColumn(code, values)
    except (TypeError, OverflowError):
        return None  # e.g. an int outside int64


def extend_typed(typed: TypedColumn, census: set, values: Sequence) -> bool:
    """Extend a promoted column with a chunk; ``False`` means the chunk
    no longer fits the buffer's type (caller demotes — a partial extend
    is harmless, the buffer is dropped)."""
    code = typed.typecode
    if (code == "q" and census == {int}) or (
        code == "d" and census == {float}
    ):
        try:
            typed.extend(values)
            return True
        except (TypeError, OverflowError):
            pass
    return False


def set_typed(typed: TypedColumn, slot: int, value) -> bool:
    """Overwrite one cell in place; ``False`` = demote (type changed)."""
    if typed.typecode == "q":
        if type(value) is not int:
            return False
    elif type(value) is not float:
        return False
    try:
        typed.buf[slot] = value
    except (TypeError, OverflowError):
        return False
    return True


# ---------------------------------------------------------------------------
# Range kernels: exact vectorized `lower <= value <= upper` masks
# ---------------------------------------------------------------------------
#
# Exactness is the whole game: the per-value Python predicate compares
# int-to-float *exactly* (CPython's rich comparison), while numpy
# silently widens int64 to float64.  The lanes below therefore (a)
# translate real bounds to equivalent *integer* bounds for int columns
# (``lower <= v`` iff ``ceil(lower) <= v`` over ints — exact for any
# real bound) and (b) refuse float-column comparisons against bounds
# that do not convert to float64 exactly, falling back to the oracle.

_ALL = object()  # sentinel: every slot violates (NaN/overflowing bound)


def _int_bound(value, ceil: bool):
    """The equivalent integer bound for comparisons over an all-int
    column, saturating past int64 (the caller clamps)."""
    try:
        return math.ceil(value) if ceil else math.floor(value)
    except (OverflowError, ValueError):  # ±inf
        return (_INT64_MAX + 1) if value > 0 else (_INT64_MIN - 1)


def _float_bound(value) -> Optional[float]:
    """``value`` as an *exactly equal* float64, or ``None``."""
    if type(value) is float:
        return value
    try:
        converted = float(value)
    except (OverflowError, TypeError, ValueError):
        return None
    return converted if converted == value else None


def _range_mask(typed: TypedColumn, lower, upper):
    """A violation mask over the buffer (a numpy bool array), ``None``
    when no vector lane can answer exactly, or ``_ALL`` when no value
    can satisfy the bounds (NaN or overflowing bound)."""
    view = typed.view()
    if view is None:
        return None
    if (lower is not None and lower != lower) or (
        upper is not None and upper != upper
    ):
        return _ALL  # a NaN bound satisfies no comparison
    if typed.typecode == "q":
        lo = _INT64_MIN if lower is None else _int_bound(lower, ceil=True)
        hi = _INT64_MAX if upper is None else _int_bound(upper, ceil=False)
        if lo > _INT64_MAX or hi < _INT64_MIN:
            return _ALL
        return (view < max(lo, _INT64_MIN)) | (view > min(hi, _INT64_MAX))
    lo = -math.inf if lower is None else _float_bound(lower)
    hi = math.inf if upper is None else _float_bound(upper)
    if lo is None or hi is None:
        return None  # inexactly representable bound: the oracle decides
    return ~((view >= lo) & (view <= hi))  # NaN cells violate, exactly


def range_defect_slots(typed: TypedColumn, lower, upper):
    """Slots violating ``lower <= value <= upper`` (NaN violates; pass
    ``None`` for an unbounded side), or ``None`` = no vector lane."""
    mask = _range_mask(typed, lower, upper)
    if mask is None:
        return None
    if mask is _ALL:
        return range(len(typed))
    return _active.nonzero(mask)[0].tolist()


def range_all_within(typed: TypedColumn, lower, upper) -> Optional[bool]:
    """Whole-column ``lower <= value <= upper``, or ``None`` (no lane)."""
    mask = _range_mask(typed, lower, upper)
    if mask is None:
        return None
    if mask is _ALL:
        return len(typed) == 0
    return not bool(mask.any())


def equal_slots(typed: TypedColumn, value) -> Optional[list]:
    """Slots whose cell ``== value`` (dict-scan semantics, exactly), or
    ``None`` when only the list scan can answer.

    Only exact ``int``/``float``/``bool`` probes take the lane — any
    other type may carry arbitrary ``__eq__`` against numbers (Fraction,
    Decimal, user objects), which the oracle must answer.
    """
    view = typed.view()
    if view is None:
        return None
    kind = type(value)
    if kind is bool:
        value = int(value)
        kind = int
    if kind is int:
        if typed.typecode == "q":
            if not _INT64_MIN <= value <= _INT64_MAX:
                return []  # every stored cell fits int64
            probe = value
        else:
            probe = _float_bound(value)
            if probe is None:
                return None  # int probe with no exact float64 twin
    elif kind is float:
        if value != value:
            return []  # NaN == anything is False, both paths agree
        if typed.typecode == "q":
            if not (
                value.is_integer()
                and _INT64_MIN <= value <= _INT64_MAX
            ):
                return []
            probe = int(value)
        else:
            probe = value
    else:
        return None
    return _active.nonzero(view == probe)[0].tolist()


# ---------------------------------------------------------------------------
# Telemetry kernel: one-pass census of an all-int chunk
# ---------------------------------------------------------------------------


def int_column_summary(values: Sequence):
    """A one-pass census of an all-``int`` chunk for the streaming
    accumulator: ``(lowest, highest, magnitude, total, sumsq, pairs)``.

    ``total``/``sumsq`` are exact Python ints, or ``None`` when the
    int64 reduction could wrap (the caller recomputes with bignum
    arithmetic); ``pairs`` is the ``(value, count)`` distinct table in
    sorted-value order (dict equality is order-free, and the one
    order-sensitive event — a mid-chunk spill — replays the per-value
    oracle anyway).  Returns ``None`` when no lane applies: a short
    chunk, or a wide-support chunk in fallback mode.

    Two lanes, picked by the support of the distinct table:

    * **narrow support** (scores, flags, enums — at most ``count / 8``
      distinct values): one C ``Counter`` pass, then exact bignum math
      over the handful of ``(value, count)`` pairs.  No numpy round
      trip (ndarray call overhead dominates sub-µs reductions at this
      shape) and no int64 restriction, so it also serves fallback mode;
    * **wide support**: vectorized int64 reductions over the ndarray
      (per-element Python math would cost more than the boxing saves).
    """
    count = len(values)
    if count < MIN_VECTOR_CHUNK:
        return None
    tally = Counter(values)
    if len(tally) * 8 <= count:
        pairs = sorted(tally.items())
        lowest = pairs[0][0]
        highest = pairs[-1][0]
        return (
            lowest,
            highest,
            max(-lowest, highest, 1),
            sum(value * times for value, times in pairs),
            sum(value * value * times for value, times in pairs),
            pairs,
        )
    np = _active
    if np is None:
        return None
    try:
        arr = np.asarray(values, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    lowest = int(arr.min())
    highest = int(arr.max())
    magnitude = max(-lowest, highest, 1)
    total = None
    if magnitude <= _INT64_MAX // (2 * count):
        total = int(arr.sum(dtype=np.int64))
    sumsq = None
    if magnitude * magnitude <= _INT64_MAX // (2 * count):
        sumsq = int(arr.dot(arr))
    uniques, counts = np.unique(arr, return_counts=True)
    pairs = list(zip(uniques.tolist(), counts.tolist()))
    return lowest, highest, magnitude, total, sumsq, pairs
