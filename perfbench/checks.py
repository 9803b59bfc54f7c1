"""Checks of one operation's results against the generator's expectations.

Each check takes results already in plain form (see gen.py) and returns a
list of problems; an empty list means the operation was correct.
"""


def check_find(promoted, new_members, sizes, expect) -> list[str]:
    """After find-members: promotions, the members each class gained, and
    each class's member count."""
    problems = []
    if promoted != expect["promoted"]:
        problems.append(f"promoted {promoted}, expected {expect['promoted']}")
    for cls, want in expect["delta"].items():
        got = new_members.get(cls, [])
        if len(got) != len(set(got)) or set(got) != want:
            missing, extra = len(want - set(got)), len(set(got) - want)
            problems.append(f"{cls}: {missing} members missing, {extra} unexpected")
        if sizes.get(cls) != expect["sizes"][cls]:
            problems.append(f"{cls}: {sizes.get(cls)} members, "
                            f"expected {expect['sizes'][cls]}")
    return problems


def check_analytic(report, members, rejected, expect) -> list[str]:
    """After run-analytic: the report's counts, the output class's members
    and the inputs rejected (names, or terms for the rewrite analytic)."""
    problems = []
    want = expect["members"]
    if report.get("processed") != expect["processed"]:
        problems.append(f"processed {report.get('processed')}, "
                        f"expected {expect['processed']}")
    if report.get("inserted") != len(want):
        problems.append(f"inserted {report.get('inserted')}, expected {len(want)}")
    if len(members) != len(set(members)) or set(members) != want:
        problems.append(f"{expect['out']}: {len(want - set(members))} members "
                        f"missing, {len(set(members) - want)} unexpected")
    want_rejected = expect["rejected"]
    if report.get("failures") != len(want_rejected) or set(rejected) != want_rejected:
        problems.append(f"rejected {report.get('failures')}, "
                        f"expected {len(want_rejected)}")
    return problems


def check_query(start, got, want) -> list[str]:
    if got != want:
        return [f"nearest(2, {start}, person): {len(want - got)} missing, "
                f"{len(got - want)} unexpected"]
    return []


def check_reopen(before: str, after: str) -> list[str]:
    if before != after:
        a, b = before.splitlines(), after.splitlines()
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                     min(len(a), len(b)))
        return [f"reopened state differs from line {first + 1}"]
    return []
