"""Compiled DQ validation pipelines: fused checkers + plan cache.

Every write in the reproduction pays the form's validator chain
(:mod:`repro.dq.validators`) before anything is stored — exactly the
paper's admission-time enforcement — which makes the interpreted
validator walk the hottest code in the system once storage is fast.
This module compiles a form's full chain (Completeness, Precision,
Format, Enum, Consistency/OclConsistency, Currentness, Credibility)
plus the entity's DQ-metadata stamping spec into one **fused checker**:

* field names are resolved once at compile time and each record is
  traversed a single time (one ``record.get`` per distinct field,
  shared by every validator that reads it);
* regexes, bound tuples, enum tuples and message suffixes are
  precomputed into plan constants;
* :meth:`CompiledPlan.findings` preserves the legacy chain's *exact*
  :class:`~repro.dq.validators.Finding` output — codes, fields,
  messages and ordering, including the fail-closed ``validator-error``
  finding a crashing validator produces under
  :meth:`repro.runtime.forms.Form.validate`;
* :meth:`CompiledPlan.admit` is the fail-fast boolean variant for the
  pure admission path;
* :meth:`CompiledPlan.check_batch` is the vectorized entry point: the
  per-record loop lives *inside* the generated code, so batched writes
  (``WebApp.submit_batch``, ``ShardedGateway.submit_many``) amortize
  the plan lookup and all per-call overhead across the chunk.

Plans are cached in a :class:`PlanCache` keyed by a stable structural
signature of the validator specs (and the metadata stamping spec), so
N identical shards compile each chain once; redefining a form changes
the signature and can never be served a stale plan.

Validators the compiler does not recognise — stateful ones like
``UniquenessValidator``, or user subclasses — are embedded opaquely:
the plan calls their ``check`` exactly as the legacy chain would, and
their identity (not their config) keys the cache.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from typing import Optional, Sequence

from repro.dq.validators import (
    CompletenessValidator,
    CredibilityValidator,
    CurrentnessValidator,
    EnumValidator,
    ConsistencyValidator,
    FormatValidator,
    Finding,
    OclConsistencyValidator,
    PrecisionValidator,
    Validator,
)

__all__ = [
    "CompiledPlan",
    "PlanCache",
    "ValidationStats",
    "chain_signature",
    "compile_plan",
]


# ---------------------------------------------------------------------------
# Signatures: a stable structural key for one validator chain
# ---------------------------------------------------------------------------


def _freeze(value):
    """A hashable stand-in for ``value`` (repr fallback for exotica)."""
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _validator_key(validator: Validator) -> tuple:
    """The structural identity of one validator.

    Declarative validators key on their full config, so equal chains on
    different shards share one compiled plan.  Validators carrying live
    Python objects (consistency predicates) or unknown/stateful types
    key on the objects themselves — function and instance hashing is by
    identity, and keeping the object in the key pins it alive for as
    long as the cached plan could serve it.
    """
    kind = type(validator)
    if kind is CompletenessValidator:
        return ("completeness", validator.name, validator.required_fields)
    if kind is PrecisionValidator:
        return (
            "precision",
            validator.name,
            tuple((f, _freeze(lo), _freeze(up))
                  for f, (lo, up) in validator.bounds.items()),
        )
    if kind is FormatValidator:
        return (
            "format",
            validator.name,
            tuple((f, p.pattern) for f, p in validator.patterns.items()),
            validator.allow_missing,
        )
    if kind is EnumValidator:
        return (
            "enum",
            validator.name,
            tuple((f, tuple(_freeze(v) for v in vals))
                  for f, vals in validator.allowed.items()),
            validator.allow_missing,
        )
    if kind is ConsistencyValidator:
        return (
            "consistency",
            validator.name,
            tuple((desc, pred) for desc, pred in validator.rules),
        )
    if kind is OclConsistencyValidator:
        return (
            "ocl-consistency",
            validator.name,
            tuple(text for text, _ in validator.rules),
        )
    if kind is CurrentnessValidator:
        return (
            "currentness", validator.name,
            validator.age_field, _freeze(validator.max_age),
        )
    if kind is CredibilityValidator:
        return (
            "credibility", validator.name,
            validator.source_field, validator.trusted_sources,
        )
    # stateful or user-defined: identity IS the spec
    return ("opaque", validator.name, validator)


def chain_signature(
    validators: Sequence[Validator],
    metadata_attributes: Sequence[str] = (),
    bound_fields: Optional[Sequence[str]] = None,
) -> tuple:
    """The cache key of one chain + stamping spec + bound-record layout.

    ``bound_fields`` is the form's field tuple: plans compiled with a
    layout carry a fast path specialised to records produced by
    ``Form.bind`` (exact keys, in order), so it is part of the key.
    """
    return (
        tuple(_validator_key(v) for v in validators),
        tuple(metadata_attributes),
        None if bound_fields is None else tuple(bound_fields),
    )


def signature_digest(signature: tuple) -> str:
    """A short stable hex digest of a signature (for display/metrics)."""
    return hashlib.sha1(repr(signature).encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# The compiler: validator chain -> generated source -> fused closures
# ---------------------------------------------------------------------------

_CRASH_MESSAGE = (
    '"validator crashed (" + type(_exc).__name__ + ": " + str(_exc) + '
    '"); rejecting the write fail-closed"'
)


class _Emitter:
    """Tiny indented-source builder for the generated module."""

    def __init__(self):
        self.lines: list[str] = []
        self._depth = 0

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self._depth) + line if line else "")

    class _Block:
        def __init__(self, emitter):
            self.emitter = emitter

        def __enter__(self):
            self.emitter._depth += 1

        def __exit__(self, *exc):
            self.emitter._depth -= 1

    def block(self, header: str) -> "_Emitter._Block":
        self.emit(header)
        return _Emitter._Block(self)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _PlanBuilder:
    """Accumulates constants and per-validator code fragments."""

    def __init__(self, validators: Sequence[Validator]):
        self.validators = list(validators)
        self.constants: dict[str, object] = {}
        self.fields: dict[str, str] = {}  # field name -> local var
        self._fragments: Optional[list[tuple[list[str], bool]]] = None

    def fragments(self) -> list[tuple[list[str], bool]]:
        """One ``(lines, can_crash)`` fragment per validator, memoized so
        the findings/admit/batch bodies share one set of constants."""
        if self._fragments is None:
            self._fragments = [self.fragment(v) for v in self.validators]
        return self._fragments

    def const(self, value) -> str:
        name = f"_c{len(self.constants)}"
        self.constants[name] = value
        return name

    def var(self, field: str) -> str:
        var = self.fields.get(field)
        if var is None:
            var = f"_f{len(self.fields)}"
            self.fields[field] = var
        return var

    # -- per-validator fragments ----------------------------------------
    #
    # Each fragment is a list of source lines (unindented) that appends
    # findings to ``fs`` via ``app`` in EXACTLY the order and with
    # EXACTLY the messages the legacy ``check`` produces.  ``record`` is
    # in scope for whole-record validators.

    def _missing_test(self, var: str) -> str:
        # repro.dq.metrics._is_missing, inlined.  ``not v or v.isspace()``
        # is ``not v.strip()`` without allocating the stripped copy.
        return (
            f"{var} is None or (isinstance({var}, str) "
            f"and (not {var} or {var}.isspace()))"
        )

    def _missing_condexpr(self, var: str) -> str:
        """The missing test with an exact-``str`` fast lane (scan path)."""
        return (
            f"((not {var} or {var}.isspace()) if {var}.__class__ is str "
            f"else ({var} is None or (isinstance({var}, str) "
            f"and (not {var} or {var}.isspace()))))"
        )

    # -- scan terms -----------------------------------------------------
    #
    # The scan is a single or-expression over cheap per-field "defect"
    # tests.  A term may over-approximate (flag a record the validator
    # would pass — e.g. a float score takes the slow lane) but must
    # NEVER under-approximate: scan-clean has to imply the legacy chain
    # returns no findings.  Anything the scan flags (or any exception it
    # raises) falls back to the exact fused slow body.

    def scan_terms(self, validator: Validator) -> Optional[list[tuple]]:
        """``[(kind, field, expr), ...]`` or ``None`` if not scannable.

        Stateful validators (uniqueness, user subclasses) and opaque
        consistency predicates are not scannable: the scan may run a
        record that the slow path then re-runs, so every term must be
        side-effect free and pure.
        """
        kind = type(validator)
        if kind is CompletenessValidator:
            return [
                ("missing", f, self._missing_condexpr(self.var(f)))
                for f in validator.required_fields
            ]
        if kind is PrecisionValidator:
            terms = []
            for field, (lower, upper) in validator.bounds.items():
                var = self.var(field)
                lo, up = self.const(lower), self.const(upper)
                terms.append((
                    "bounds", field,
                    f"not (({var}.__class__ is int or "
                    f"{var}.__class__ is float) and {lo} <= {var} <= {up})",
                ))
            return terms
        if kind is FormatValidator:
            terms = []
            for field, pattern in validator.patterns.items():
                var = self.var(field)
                compiled = self.const(pattern)
                present = (
                    f"({var}.__class__ is str and {var} "
                    f"and not {var}.isspace())"
                )
                test = (
                    f"({compiled}.fullmatch({var}) is None "
                    f"if {present} else True)"
                )
                if validator.allow_missing:
                    test = f"({var} is not None and {test})"
                terms.append(("format", field, test))
            return terms
        if kind is EnumValidator:
            terms = []
            for field, values in validator.allowed.items():
                var = self.var(field)
                allowed = self.const(values)
                missing = self._missing_condexpr(var)
                if validator.allow_missing:
                    test = f"(not {missing} and {var} not in {allowed})"
                else:
                    test = f"({missing} or {var} not in {allowed})"
                terms.append(("enum", field, test))
            return terms
        if kind is CurrentnessValidator:
            var = self.var(validator.age_field)
            max_age = self.const(validator.max_age)
            return [(
                "currentness", validator.age_field,
                # bools are (int,) to the legacy check; they take the
                # slow lane here, which answers identically
                f"not (({var}.__class__ is int or "
                f"{var}.__class__ is float) and {var} <= {max_age})",
            )]
        if kind is CredibilityValidator:
            var = self.var(validator.source_field)
            trusted = self.const(validator.trusted_sources)
            return [(
                "credibility", validator.source_field,
                f"{var} not in {trusted}",
            )]
        if kind is OclConsistencyValidator:
            # rules are declarative text -> pure; reuse the validator
            return [("ocl", "", f"bool({self.const(validator)}.check(record))")]
        return None

    def scan_exprs(self) -> Optional[list[str]]:
        """The fused defect-scan terms for the whole chain, or ``None``.

        Terms are deduplicated and a plain missing test is dropped when
        a bounds test guards the same field — bounds-clean (an exact
        int/float inside the interval) already proves the field present.
        """
        collected: list[tuple] = []
        for validator in self.validators:
            terms = self.scan_terms(validator)
            if terms is None:
                return None
            collected.extend(terms)
        bounded = {f for kind, f, _ in collected if kind == "bounds"}
        exprs: list[str] = []
        seen: set[str] = set()
        for kind, field, expr in collected:
            if kind == "missing" and field in bounded:
                continue
            if expr not in seen:
                seen.add(expr)
                exprs.append(expr)
        return exprs

    def fragment(self, validator: Validator) -> tuple[list[str], bool]:
        """(lines, can_crash) for one validator.

        ``can_crash`` selects the fail-closed ``validator-error`` wrap;
        completeness checks are provably exception-free (constant
        messages, no user ``__repr__``/``__eq__`` calls) and skip it.
        """
        kind = type(validator)
        if kind is CompletenessValidator:
            lines = []
            for field in validator.required_fields:
                var = self.var(field)
                finding = self.const(Finding(
                    validator.code, field, "required field is missing or blank"
                ))
                lines.append(f"if {self._missing_test(var)}:")
                lines.append(f"    app({finding})")
            return lines, False
        if kind is PrecisionValidator:
            lines = []
            for field, (lower, upper) in validator.bounds.items():
                var = self.var(field)
                lo, up = self.const(lower), self.const(upper)
                suffix = self.const(f" outside [{lower}, {upper}]")
                lines.append(
                    f"if {self._missing_test(var)} or "
                    f"not isinstance({var}, (int, float)) or "
                    f"isinstance({var}, bool) or "
                    f"not ({lo} <= {var} <= {up}):"
                )
                lines.append(
                    f"    app(Finding({validator.code!r}, {field!r}, "
                    f"'value %r' % ({var},) + {suffix}))"
                )
            return lines, True
        if kind is FormatValidator:
            lines = []
            for field, pattern in validator.patterns.items():
                var = self.var(field)
                compiled = self.const(pattern)
                suffix = self.const(f" does not match {pattern.pattern!r}")
                lines.append(f"if {self._missing_test(var)}:")
                if validator.allow_missing:
                    lines.append("    pass")
                else:
                    missing = self.const(
                        Finding(validator.code, field, "value is missing")
                    )
                    lines.append(f"    app({missing})")
                lines.append(
                    f"elif not isinstance({var}, str) "
                    f"or {compiled}.fullmatch({var}) is None:"
                )
                lines.append(
                    f"    app(Finding({validator.code!r}, {field!r}, "
                    f"'value %r' % ({var},) + {suffix}))"
                )
            return lines, True
        if kind is EnumValidator:
            lines = []
            for field, values in validator.allowed.items():
                var = self.var(field)
                allowed = self.const(values)
                suffix = self.const(f" not in {list(values)!r}")
                lines.append(f"if {self._missing_test(var)}:")
                if validator.allow_missing:
                    lines.append("    pass")
                else:
                    missing = self.const(
                        Finding(validator.code, field, "value is missing")
                    )
                    lines.append(f"    app({missing})")
                lines.append(f"elif {var} not in {allowed}:")
                lines.append(
                    f"    app(Finding({validator.code!r}, {field!r}, "
                    f"'value %r' % ({var},) + {suffix}))"
                )
            return lines, True
        if kind is ConsistencyValidator:
            rules = self.const(tuple(validator.rules))
            return [
                f"for _desc, _pred in {rules}:",
                "    try:",
                "        _ok = _pred(record)",
                "    except Exception:",
                "        _ok = False",
                "    if not _ok:",
                f"        app(Finding({validator.code!r}, '<record>', _desc))",
            ], True
        if kind is OclConsistencyValidator:
            rules = self.const(tuple(validator.rules))
            return [
                "_ctx = dict(record)",
                f"for _text, _expr in {rules}:",
                "    try:",
                "        _ok = _expr.evaluate(_ctx) is True",
                "    except OclError:",
                "        _ok = False",
                "    if not _ok:",
                f"        app(Finding({validator.code!r}, '<record>', _text))",
            ], True
        if kind is CurrentnessValidator:
            var = self.var(validator.age_field)
            max_age = self.const(validator.max_age)
            suffix = self.const(f" exceeds maximum {validator.max_age}")
            return [
                f"if {var} is None or not isinstance({var}, (int, float)) "
                f"or {var} > {max_age}:",
                f"    app(Finding({validator.code!r}, "
                f"{validator.age_field!r}, "
                f"'age %r' % ({var},) + {suffix}))",
            ], True
        if kind is CredibilityValidator:
            var = self.var(validator.source_field)
            trusted = self.const(validator.trusted_sources)
            return [
                f"if {var} not in {trusted}:",
                f"    app(Finding({validator.code!r}, "
                f"{validator.source_field!r}, "
                f"'source %r' % ({var},) + ' is not trusted'))",
            ], True
        # opaque: run the validator object exactly as the legacy chain
        opaque = self.const(validator)
        return [f"fs.extend({opaque}.check(record))"], True


# ---------------------------------------------------------------------------
# Columnar checks: per-field whole-column clean tests + per-value defect
# tests, mirroring the scan terms exactly
# ---------------------------------------------------------------------------
#
# ``check_columns`` is the column-sliced fast body: instead of running
# the fused or-expression per record, each scan term becomes a pair of
# closures — ``clean(column, kinds, stat)`` decides in a handful of
# C-level passes (type-set, ``min``/``max``, ``in``, ``all(map(...))``)
# whether an entire column can possibly contain a defect, and
# ``defect(value)`` replicates the row scan term for the dirty columns,
# building a defect row bitmap.  When the caller owns the columns (the
# EntityStore's spine) it passes the store's write-time **zone maps**
# (:class:`repro.runtime.storage.ColumnStats`) as ``stat``: a sticky
# superset of everything ever written to the column, which usually
# answers ``clean`` in O(1) — no missing value ever arrived, or the
# running min/max already sit inside the bounds — without touching a
# single cell.  Zone maps only ever widen, so a zone answer of "clean"
# is sound and a stale-wide zone merely demotes to the real column
# pass.  The soundness contract is the same as the row scan's:
# ``clean`` may never answer True for a column any scan term would flag
# (under-approximation forbidden), ``defect`` must flag exactly the
# values the scan term flags (over-flagging is harmless — the exact
# fused slow body re-answers flagged rows and returns ``[]`` for the
# clean ones), and any exception anywhere demotes to the slow body.

_NONE_TYPE = type(None)
_NUMERIC_KINDS = frozenset((int, float))


def _is_missing_value(value) -> bool:
    """The scan's missing test (``_missing_condexpr``), as a function."""
    if value.__class__ is str:
        return not value or value.isspace()
    return value is None or (
        isinstance(value, str) and (not value or value.isspace())
    )


def _missing_clean(column, kinds, stat=None) -> bool:
    if stat is not None and not stat.missing:
        return True  # zone map: no missing value was ever written
    if kinds == {str}:
        return "" not in column and not any(map(str.isspace, column))
    for kind in kinds:
        if kind is _NONE_TYPE or issubclass(kind, str):
            return False
    return True


def _column_nan(column) -> bool:
    """Any NaN in an all-int/float column?  ``sum`` propagates NaN and
    never raises over real numbers, so this is one C pass."""
    return math.isnan(sum(column))


def _range_checks(lower, upper):
    def clean(column, kinds, stat=None):
        if not kinds <= _NUMERIC_KINDS:
            return False
        if stat is not None:
            # zone map: every numeric ever written sits inside the
            # running [zmin, zmax] envelope, and NaN arrival is sticky
            if (
                not stat.nan
                and stat.zmin is not None
                and lower <= stat.zmin
                and stat.zmax <= upper
            ):
                return True
        if float in kinds and _column_nan(column):
            return False
        return lower <= min(column) and max(column) <= upper

    def defect(value):
        cls = value.__class__
        return not (
            (cls is int or cls is float) and lower <= value <= upper
        )

    return clean, defect


def _currentness_checks(max_age):
    def clean(column, kinds, stat=None):
        if not kinds <= _NUMERIC_KINDS:
            return False
        if stat is not None:
            if (
                not stat.nan
                and stat.zmax is not None
                and stat.zmax <= max_age
            ):
                return True
        if float in kinds and _column_nan(column):
            return False
        return max(column) <= max_age

    def defect(value):
        cls = value.__class__
        return not ((cls is int or cls is float) and value <= max_age)

    return clean, defect


def _format_checks(pattern, allow_missing):
    fullmatch = pattern.fullmatch

    def clean(column, kinds, stat=None):
        if kinds != {str}:
            return False
        if "" in column or any(map(str.isspace, column)):
            return False
        return all(map(fullmatch, column))

    def defect(value):
        present = (
            value.__class__ is str and value and not value.isspace()
        )
        flagged = (fullmatch(value) is None) if present else True
        if allow_missing:
            return value is not None and flagged
        return flagged

    return clean, defect


def _members_clean(values) -> frozenset:
    """The hashable, non-missing members of an allowed/trusted table —
    the only values a whole-column set containment may accept."""
    members = set()
    for value in values:
        try:
            hash(value)
        except TypeError:
            continue
        if not _is_missing_value(value):
            members.add(value)
    return frozenset(members)


def _enum_checks(allowed, allow_missing):
    if allow_missing:
        acceptable = frozenset(_members_clean(allowed) | {None, ""})
    else:
        acceptable = _members_clean(allowed)

    def clean(column, kinds, stat=None):
        return set(column) <= acceptable

    def defect(value):
        if allow_missing:
            return not _is_missing_value(value) and value not in allowed
        return _is_missing_value(value) or value not in allowed

    return clean, defect


def _credibility_checks(trusted):
    members = set()
    for value in trusted:
        try:
            hash(value)
        except TypeError:
            continue
        members.add(value)
    acceptable = frozenset(members)

    def clean(column, kinds, stat=None):
        return set(column) <= acceptable

    def defect(value):
        return value not in trusted

    return clean, defect


def _column_specs(validators) -> Optional[list[tuple]]:
    """``[(field, clean, defect), ...]`` for a chain, or ``None`` when
    any validator contributes a non-field-local term (OCL consistency
    reads the whole record) or is not scannable at all.  Mirrors
    :meth:`_PlanBuilder.scan_exprs`'s missing-dropped-when-bounded
    shortcut (a missing value fails the bounds class test anyway, so
    the defect set is unchanged)."""
    collected: list[tuple] = []
    for validator in validators:
        kind = type(validator)
        if kind is CompletenessValidator:
            for field in validator.required_fields:
                collected.append(
                    ("missing", field, _missing_clean, _is_missing_value)
                )
        elif kind is PrecisionValidator:
            for field, (lower, upper) in validator.bounds.items():
                clean, defect = _range_checks(lower, upper)
                collected.append(("bounds", field, clean, defect))
        elif kind is FormatValidator:
            for field, pattern in validator.patterns.items():
                clean, defect = _format_checks(
                    pattern, validator.allow_missing
                )
                collected.append(("format", field, clean, defect))
        elif kind is EnumValidator:
            for field, values in validator.allowed.items():
                clean, defect = _enum_checks(
                    values, validator.allow_missing
                )
                collected.append(("enum", field, clean, defect))
        elif kind is CurrentnessValidator:
            clean, defect = _currentness_checks(validator.max_age)
            collected.append(
                ("currentness", validator.age_field, clean, defect)
            )
        elif kind is CredibilityValidator:
            clean, defect = _credibility_checks(validator.trusted_sources)
            collected.append(
                ("credibility", validator.source_field, clean, defect)
            )
        else:
            return None
    bounded = {f for kind, f, _, _ in collected if kind == "bounds"}
    return [
        (field, clean, defect)
        for kind, field, clean, defect in collected
        if not (kind == "missing" and field in bounded)
    ]


def _build_check_columns(layout, specs, findings_slow):
    """The ``check_columns(columns, count)`` closure for one plan, or
    ``None`` when a term reads a field outside the bound layout (the
    row path resolves it to ``None`` via ``record.get``; columns cannot).
    """
    positions = {name: index for index, name in enumerate(layout)}
    try:
        checks = tuple(
            (positions[field], clean, defect)
            for field, clean, defect in specs
        )
    except KeyError:
        return None
    position_items = tuple(positions.items())

    def check_columns(columns, count, stats=None):
        defects = None
        kinds_cache: dict = {}
        for position, clean, defect in checks:
            column = columns[position]
            if stats is not None:
                stat = stats[position]
                kinds = stat.kinds
            else:
                stat = None
                kinds = kinds_cache.get(position)
                if kinds is None:
                    kinds = set(map(type, column))
                    kinds_cache[position] = kinds
            try:
                if clean(column, kinds, stat):
                    continue
            except Exception:
                pass
            if defects is None:
                defects = set()
            flag = defects.add
            for index, value in enumerate(column):
                try:
                    if defect(value):
                        flag(index)
                except Exception:
                    flag(index)
        if not defects:
            return [[] for _ in range(count)]
        out = []
        for index in range(count):
            if index in defects:
                record = {
                    name: columns[position][index]
                    for name, position in position_items
                }
                out.append(findings_slow(record))
            else:
                out.append([])
        return out

    return check_columns


def _emit_findings_body(emitter: _Emitter, builder: _PlanBuilder) -> None:
    """The shared per-record body: prefetch fields, run every validator.

    Assumes ``record``, ``fs`` and ``app`` (``fs.append``) are bound.
    Emitted once for :func:`findings` and once inside the batch loop so
    the batch path pays no per-record Python function call at all.
    """
    fragments = builder.fragments()
    emitter.emit("get = record.get")
    for field, var in builder.fields.items():
        emitter.emit(f"{var} = get({field!r})")
    for validator, (lines, can_crash) in zip(builder.validators, fragments):
        if not can_crash:
            for line in lines:
                emitter.emit(line)
            continue
        emitter.emit("_n = len(fs)")
        with emitter.block("try:"):
            for line in lines:
                emitter.emit(line)
        with emitter.block("except Exception as _exc:"):
            emitter.emit("del fs[_n:]")
            emitter.emit(
                f"app(Finding('validator-error', {validator.name!r}, "
                f"{_CRASH_MESSAGE}))"
            )


def _emit_admit_body(emitter: _Emitter, builder: _PlanBuilder) -> None:
    """The fail-fast boolean body: first defect -> ``return False``.

    Any exception anywhere rejects fail-closed, exactly like the full
    path (a crashing validator yields a ``validator-error`` finding
    there, so ``admit`` must answer False for it too).  Short-circuits
    at validator granularity: the first validator with a finding ends
    the check.
    """
    with emitter.block("try:"):
        emitter.emit("get = record.get")
        for field, var in builder.fields.items():
            emitter.emit(f"{var} = get({field!r})")
        emitter.emit("fs = []")
        emitter.emit("app = fs.append")
        for lines, _ in builder.fragments():
            for line in lines:
                emitter.emit(line)
            emitter.emit("if fs:")
            emitter.emit("    return False")
    with emitter.block("except Exception:"):
        emitter.emit("return False")
    emitter.emit("return True")


class CompiledPlan:
    """One fused, cached checker for a validator chain.

    ``findings(record)`` is drop-in for the legacy
    :meth:`~repro.runtime.forms.Form.validate`; ``admit(record)`` is
    the fail-fast boolean; ``check_batch(records)`` returns one
    findings list per record with the loop fused into generated code.
    """

    __slots__ = (
        "signature", "digest", "source", "validator_count",
        "metadata_attributes", "fields", "bound_fields", "fast_scan",
        "findings", "admit", "check_batch", "check_columns",
    )

    def __init__(
        self,
        signature: tuple,
        source: str,
        namespace: dict,
        validator_count: int,
        metadata_attributes: tuple,
        fields: tuple,
        bound_fields: Optional[tuple],
        fast_scan: bool,
        check_columns=None,
    ):
        self.signature = signature
        self.digest = signature_digest(signature)
        self.source = source
        self.validator_count = validator_count
        self.metadata_attributes = metadata_attributes
        self.fields = fields
        self.bound_fields = bound_fields
        self.fast_scan = fast_scan
        self.findings = namespace["findings"]
        self.admit = namespace["admit"]
        self.check_batch = namespace["check_batch"]
        #: ``check_columns(columns, count)`` — the column-sliced fast
        #: body for prebound batches transposed to layout order; ``None``
        #: when the chain has non-field-local terms or no bound layout.
        self.check_columns = check_columns

    def run(self, records) -> list:
        """Concatenated findings over many records (suite-style)."""
        out: list[Finding] = []
        for per_record in self.check_batch(records):
            out.extend(per_record)
        return out

    def __repr__(self) -> str:
        return (
            f"<CompiledPlan {self.digest} "
            f"({self.validator_count} validator(s), "
            f"{len(self.fields)} field(s))>"
        )


def compile_plan(
    validators: Sequence[Validator],
    metadata_attributes: Sequence[str] = (),
    bound_fields: Optional[Sequence[str]] = None,
) -> CompiledPlan:
    """Fuse one validator chain (+ stamping spec) into a CompiledPlan.

    ``bound_fields`` — the owning form's field tuple — specialises the
    plan for records produced by :meth:`~repro.runtime.forms.Form.bind`:
    a record whose key tuple equals the layout is unpacked straight off
    ``record.values()`` (one C call) instead of per-field ``get`` calls,
    and ``check_batch(records, prebound=True)`` skips even the layout
    check (the caller just bound the records itself, so the layout is
    guaranteed by construction).

    When every validator in the chain is a known *pure* declarative
    type, the plan additionally carries a **fail-fast defect scan**: a
    single or-expression of cheap per-field tests that over-approximates
    "this record has a finding".  Scan-clean records return immediately;
    anything the scan flags — or any exception it raises — falls back to
    the exact fused slow body, which reproduces the legacy chain
    byte-for-byte (stateful/opaque validators never get a scan, so no
    validator observes a record twice).
    """
    from repro.core.errors import OclError

    builder = _PlanBuilder(validators)
    # resolve every referenced field (and every constant) up front so
    # the prefetch block is complete before any body is emitted
    builder.fragments()
    scan = builder.scan_exprs()

    # -- prefetch lines -------------------------------------------------
    fields = list(builder.fields.items())  # (field name, local var)
    field_vars = [var for _, var in fields]
    comma = "," if len(fields) == 1 else ""
    map_line = None
    if fields:
        fields_const = builder.const(tuple(f for f, _ in fields))
        map_line = (
            f"{', '.join(field_vars)}{comma} = "
            f"map(record.get, {fields_const})"
        )
    layout = tuple(bound_fields) if bound_fields else None
    unpack_line = None
    extra_vars: list[str] = []
    key_const = None
    if layout and fields:
        key_const = builder.const(layout)
        bound_set = set(layout)
        targets = [builder.fields.get(f, "_") for f in layout]
        tcomma = "," if len(targets) == 1 else ""
        unpack_line = f"{', '.join(targets)}{tcomma} = record.values()"
        extra_vars = [var for f, var in fields if f not in bound_set]

    def emit_prefetch(em: _Emitter, guarded: bool) -> None:
        if not fields:
            return
        if unpack_line and guarded:
            with em.block(f"if tuple(record) == {key_const}:"):
                em.emit(unpack_line)
                for var in extra_vars:
                    em.emit(f"{var} = None")
            with em.block("else:"):
                em.emit(map_line)
        elif unpack_line:
            em.emit(unpack_line)
            for var in extra_vars:
                em.emit(f"{var} = None")
        else:
            em.emit(map_line)

    def emit_scan_check(em: _Emitter, clean_lines: list[str]) -> None:
        em.emit("if not (")
        for i, term in enumerate(scan):
            em.emit(("    " if i == 0 else "    or ") + term)
        em.emit("):")
        for line in clean_lines:
            em.emit("    " + line)

    def emit_scan_loop(em: _Emitter, guarded: bool) -> None:
        with em.block("for record in records:"):
            with em.block("try:"):
                emit_prefetch(em, guarded)
                emit_scan_check(em, ["out_append([])", "continue"])
            with em.block("except Exception:"):
                em.emit("pass")
            em.emit("out_append(_findings_slow(record))")

    emitter = _Emitter()
    if scan is not None and not validators:
        # empty chain: the legacy walk finds nothing, always
        emitter.emit("def findings(record):")
        emitter.emit("    return []")
        emitter.emit()
        emitter.emit("def admit(record):")
        emitter.emit("    return True")
        emitter.emit()
        emitter.emit("def check_batch(records, prebound=False):")
        emitter.emit("    return [[] for _ in records]")
    elif scan is not None:
        with emitter.block("def _findings_slow(record):"):
            emitter.emit("fs = []")
            emitter.emit("app = fs.append")
            _emit_findings_body(emitter, builder)
            emitter.emit("return fs")
        emitter.emit()
        with emitter.block("def findings(record):"):
            with emitter.block("try:"):
                emit_prefetch(emitter, guarded=True)
                emit_scan_check(emitter, ["return []"])
            with emitter.block("except Exception:"):
                emitter.emit("pass")
            emitter.emit("return _findings_slow(record)")
        emitter.emit()
        with emitter.block("def _admit_slow(record):"):
            _emit_admit_body(emitter, builder)
        emitter.emit()
        with emitter.block("def admit(record):"):
            with emitter.block("try:"):
                emit_prefetch(emitter, guarded=True)
                emit_scan_check(emitter, ["return True"])
            with emitter.block("except Exception:"):
                emitter.emit("pass")
            emitter.emit("return _admit_slow(record)")
        emitter.emit()
        with emitter.block("def check_batch(records, prebound=False):"):
            emitter.emit("out = []")
            emitter.emit("out_append = out.append")
            if unpack_line:
                with emitter.block("if prebound:"):
                    emit_scan_loop(emitter, guarded=False)
                with emitter.block("else:"):
                    emit_scan_loop(emitter, guarded=True)
            else:
                emit_scan_loop(emitter, guarded=True)
            emitter.emit("return out")
    else:
        # chain with stateful/opaque validators: exact body only
        with emitter.block("def findings(record):"):
            emitter.emit("fs = []")
            emitter.emit("app = fs.append")
            _emit_findings_body(emitter, builder)
            emitter.emit("return fs")
        emitter.emit()
        with emitter.block("def admit(record):"):
            _emit_admit_body(emitter, builder)
        emitter.emit()
        with emitter.block("def check_batch(records, prebound=False):"):
            emitter.emit("out = []")
            emitter.emit("out_append = out.append")
            with emitter.block("for record in records:"):
                emitter.emit("fs = []")
                emitter.emit("app = fs.append")
                _emit_findings_body(emitter, builder)
                emitter.emit("out_append(fs)")
            emitter.emit("return out")

    source = emitter.source()
    namespace: dict = {
        "Finding": Finding,
        "OclError": OclError,
        "Exception": Exception,
        "isinstance": isinstance,
        "len": len,
        "dict": dict,
        "type": type,
        "str": str,
        "int": int,
        "float": float,
        "bool": bool,
        "map": map,
        "tuple": tuple,
        "__builtins__": {},
    }
    namespace.update(builder.constants)
    code = compile(source, f"<vpipeline:{len(validators)}>", "exec")
    exec(code, namespace)
    check_columns = None
    if scan is not None and layout:
        if not validators:
            def check_columns(columns, count, stats=None):
                return [[] for _ in range(count)]
        else:
            specs = _column_specs(validators)
            if specs is not None:
                check_columns = _build_check_columns(
                    layout, specs, namespace["_findings_slow"]
                )
    return CompiledPlan(
        signature=chain_signature(validators, metadata_attributes, bound_fields),
        source=source,
        namespace=namespace,
        validator_count=len(builder.validators),
        metadata_attributes=tuple(metadata_attributes),
        fields=tuple(builder.fields),
        bound_fields=layout,
        fast_scan=scan is not None and bool(validators),
        check_columns=check_columns,
    )


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """Thread-safe LRU of compiled plans keyed by chain signature.

    One cache is typically shared by every form of a ``WebApp`` — or by
    every *shard* of a gateway, since signatures are structural: four
    identical shards compile each chain exactly once.  Redefining a
    form changes its signature, so the stale plan simply stops being
    looked up; :meth:`invalidate` additionally drops it eagerly.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("PlanCache capacity must be >= 1")
        self.capacity = capacity
        self._plans: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def lookup(self, signature: tuple) -> Optional[CompiledPlan]:
        with self._lock:
            plan = self._plans.get(signature)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(signature)
            self.hits += 1
            return plan

    def get_or_compile(
        self,
        validators: Sequence[Validator],
        metadata_attributes: Sequence[str] = (),
        bound_fields: Optional[Sequence[str]] = None,
    ) -> CompiledPlan:
        """The cached plan for this chain, compiling on first sight."""
        signature = chain_signature(validators, metadata_attributes, bound_fields)
        plan = self.lookup(signature)
        if plan is not None:
            return plan
        # compile outside the lock: a racing duplicate compile is
        # harmless (both plans are behaviourally identical) and the
        # store below keeps exactly one
        plan = compile_plan(validators, metadata_attributes, bound_fields)
        with self._lock:
            existing = self._plans.get(signature)
            if existing is not None:
                return existing
            self._plans[signature] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def invalidate(self, signature: tuple) -> bool:
        with self._lock:
            if self._plans.pop(signature, None) is not None:
                self.invalidations += 1
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._plans)
            self._plans.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "plans": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            }


# ---------------------------------------------------------------------------
# Validation stats (merged into the gateway metrics snapshot)
# ---------------------------------------------------------------------------


class ValidationStats:
    """Checks/time counters one ``WebApp`` keeps for its validation work.

    Increments are unlocked: every write path that validates runs under
    its shard's lock (or single-threaded), and a lost sample under an
    unconventional caller costs telemetry, never correctness.
    """

    __slots__ = ("checks", "batches", "seconds")

    def __init__(self):
        self.checks = 0
        self.batches = 0
        self.seconds = 0.0

    def observe(self, records: int, elapsed: float, batched: bool = False) -> None:
        self.checks += records
        if batched:
            self.batches += 1
        self.seconds += elapsed

    def as_dict(self) -> dict:
        return {
            "checks": self.checks,
            "batches": self.batches,
            "validation_us": round(self.seconds * 1e6, 1),
            "mean_us": round(
                (self.seconds / self.checks) * 1e6, 2
            ) if self.checks else 0.0,
        }

    @staticmethod
    def merge(stats_dicts, plan_caches=()) -> dict:
        """Aggregate per-shard stats + plan-cache counters into one dict."""
        merged = {"checks": 0, "batches": 0, "validation_us": 0.0}
        for stats in stats_dicts:
            merged["checks"] += stats["checks"]
            merged["batches"] += stats["batches"]
            merged["validation_us"] += stats["validation_us"]
        merged["validation_us"] = round(merged["validation_us"], 1)
        merged["mean_us"] = round(
            merged["validation_us"] / merged["checks"], 2
        ) if merged["checks"] else 0.0
        hits = misses = plans = 0
        seen: set[int] = set()
        for cache in plan_caches:
            if cache is None or id(cache) in seen:
                continue  # shards may share one cache; count it once
            seen.add(id(cache))
            stats = cache.stats()
            hits += stats["hits"]
            misses += stats["misses"]
            plans += stats["plans"]
        merged["plan_cache_hits"] = hits
        merged["plan_cache_misses"] = misses
        merged["plans_compiled"] = plans
        return merged
