"""Request validation: JSON payloads in, RunSpec/Study out — or a 400.

Submissions arrive as untrusted JSON.  A run body is checked for shape
only (a JSON object, optionally nested under ``"spec"``) and handed to
:meth:`RunSpec.from_dict`, the one validator of a run; a study body is
checked against the registry and the study's parameter names here.
Both raise :class:`~repro.api.spec.SpecError`, which carries *every*
problem as a ``{"field", "message"}`` entry; the route layer renders it
as an HTTP 400 body::

    {"error": "validation failed",
     "errors": [{"field": "benchmark",
                 "message": "unknown benchmark 'gcc'; available: [...]"}]}
"""

from __future__ import annotations

import inspect

from repro.api.spec import RunSpec, SpecError
from repro.api.study import STUDIES, Study, get_study


def _require_mapping(payload, field: str) -> list[dict]:
    if not isinstance(payload, dict):
        return [{"field": field,
                 "message": f"expected a JSON object, got "
                            f"{type(payload).__name__}"}]
    return []


def parse_run_payload(payload) -> RunSpec:
    """Build the RunSpec of a ``POST /runs`` body.

    Accepts either the bare ``RunSpec.to_dict()`` shape (omitted fields
    take their defaults) or the same nested under a ``"spec"`` key.
    """
    errors = _require_mapping(payload, "(body)")
    if not errors and "spec" in payload:
        payload = payload["spec"]
        errors = _require_mapping(payload, "spec")
    if errors:
        raise SpecError(errors)
    return RunSpec.from_dict(payload)


def parse_study_payload(payload) -> tuple[Study, dict]:
    """Validate a ``POST /studies`` body: registered name plus params.

    Parameter names are checked against the study's grid/analysis
    signatures *at submission time* (the same rule
    :meth:`Session.run_study` enforces), so an unknown parameter is a
    structured 400 instead of a failed job.
    """
    errors = _require_mapping(payload, "(body)")
    if errors:
        raise SpecError(errors)
    name = payload.get("study")
    if name is None:
        raise SpecError([{"field": "study",
                          "message": "required field is missing"}])
    if name not in STUDIES:
        raise SpecError([{"field": "study",
                          "message": f"unknown study {name!r}; "
                                     f"available: {sorted(STUDIES)}"}])
    study = get_study(name)

    unknown_fields = sorted(set(payload) - {"study", "params"})
    if unknown_fields:
        errors.append({"field": unknown_fields[0],
                       "message": f"unknown field(s) {unknown_fields}; "
                                  f"known: ['study', 'params']"})
    params = payload.get("params") or {}
    errors += _require_mapping(params, "params")
    if not errors:
        accepted = set()
        for func in (study.grid, study.analyze):
            if func is not None:
                accepted |= _accepted_names(func, params)
        unknown = sorted(set(params) - accepted)
        if unknown:
            errors.append({"field": f"params.{unknown[0]}",
                           "message": f"study {name!r} accepts no "
                                      f"parameter(s) {unknown}"})
    if errors:
        raise SpecError(errors)
    return study, dict(params)


def _accepted_names(func, params: dict) -> set:
    signature = inspect.signature(func)
    if any(p.kind is inspect.Parameter.VAR_KEYWORD
           for p in signature.parameters.values()):
        return set(params)
    return set(params) & set(signature.parameters)
