"""Output checks on benchmark jobs. A failed check counts the job as failed."""

from __future__ import annotations


class CheckFailed(Exception):
    """A job's output broke a documented contract."""


def check_cleaned(cleaned, input_ids: set[int]) -> None:
    """Cleaned flows: unique ids, a subset of the input, sorted by (app, id)."""
    check_cleaned_keys([(f.app_label or "", f.flow_id) for f in cleaned], input_ids)


def check_cleaned_keys(keys: list[tuple[str, int]], input_ids: set[int]) -> None:
    ids = [flow_id for _, flow_id in keys]
    if len(set(ids)) != len(ids):
        raise CheckFailed("cleaned flow ids are not unique")
    if not input_ids.issuperset(ids):
        raise CheckFailed("cleaned flows are not a subset of the input")
    if keys != sorted(keys):
        raise CheckFailed("cleaned flows are not sorted by (app_label, flow_id)")


def check_conservation(apps: dict[str, dict]) -> None:
    """Per app in a clean report: input = dpi_discarded + kept + dropped."""
    for label, c in apps.items():
        if c["input"] != c["dpi_discarded"] + c["flows_kept"] + c["flows_dropped"]:
            raise CheckFailed(f"{label}: clean report does not conserve flows: {c}")

