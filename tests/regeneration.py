"""What a regeneration of the golden fixtures changes, printed before it
writes: ``tests/test_golden.py``, ``tests/test_lab_reports.py`` and
``tests/test_deep_reports.py`` call ``print_changes`` when run as scripts."""


def print_changes(old: dict, new: dict) -> None:
    """Print each case whose bytes changed and each whose exit code changed.

    Both dicts map a case to its exit code under "exit" and its report, or
    the report's digests, under the other keys; ``old`` is what the
    fixtures hold, and may lack a case.
    """
    for case, entry in new.items():
        before = old.get(case, {})
        changed = [key for key in entry if key != "exit" and before.get(key) != entry[key]]
        if changed:
            print(f"bytes changed: {case} ({', '.join(changed)})")
        if before.get("exit") != entry["exit"]:
            print(f"exit code changed: {case}: {before.get('exit')} -> {entry['exit']}")
