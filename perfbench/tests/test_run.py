import run
from refclock import ScaledClock, reference_task
from workloads import Outcome, Workload


def _pass(solve, n=3):
    wl = Workload(n, n, build=lambda s: None, solve=solve)
    return run.Pass(wl, list(range(n)), [None] * n, ScaledClock())


def test_a_failed_instance_is_counted_and_the_pass_goes_on(capsys):
    def solve(g, seed):
        if seed == 1:
            raise RuntimeError("starved")
        return Outcome(f"cert {seed}\n")

    p = _pass(solve)
    assert [o.certificate for o in p.outcomes] == ["cert 0\n", None, "cert 2\n"]
    assert p.failed() == 1
    assert p.invalid() == []
    assert "RuntimeError: starved" in capsys.readouterr().err


def test_an_invalid_certificate_is_reported_and_changes_the_digest():
    good = _pass(lambda g, seed: Outcome(f"cert {seed}\n"))
    bad = _pass(lambda g, seed: Outcome(f"cert {seed}\n", ["[cycle] broken"] if seed == 2 else []))
    assert good.invalid() == [] and good.failed() == 0
    assert bad.invalid() == ["[cycle] broken"] and bad.failed() == 1
    assert good.digest() == bad.digest()  # same certificate text, so same digest
    other = _pass(lambda g, seed: Outcome(f"cert {seed + 1}\n"))
    assert other.digest() != good.digest()


def _traced_problems(solve):
    import pillarkit as pk

    wl = Workload(2, 2, build=lambda s: pk.cycle_graph(20_000), solve=solve)
    _, _, attempted, failed, problems = run.run_traced("t", wl, [0, 1], lambda line: None)
    assert (attempted, failed) == (4, 0)
    return [p for p in problems if p.startswith("[trace]")]


def test_search_time_outside_every_span_is_reported():
    import pillarkit as pk

    def covered(g, seed):
        pk.graph.largest_component(g)
        return Outcome(f"cert {seed}\n")

    def busy_outside(g, seed):
        pk.graph.largest_component(g)
        for _ in range(50):
            reference_task()
        return Outcome(f"cert {seed}\n")

    assert _traced_problems(covered) == []
    problems = _traced_problems(busy_outside)
    assert len(problems) == 2 and all("untraced" in p for p in problems)
