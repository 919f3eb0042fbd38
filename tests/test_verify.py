from szego import verify


def test_run_keeps_the_order_the_builders_list():
    expected = [("bateman", name) for name, _ in verify._BUILDERS["bateman"](3)]
    cases = verify.run(["bateman"], seed=3)
    assert [(c.suite, c.name) for c in cases] == expected
    assert all(c.passed for c in cases)


def test_run_reports_a_raising_case_as_failed(monkeypatch):
    def crash():
        raise ZeroDivisionError("forced")

    monkeypatch.setitem(verify._BUILDERS, "flow", lambda seed: [
        ("crash", crash), ("fine", lambda: (True, "ok"))])
    cases = verify.run(["flow"], seed=0)
    assert [c.name for c in cases] == ["crash", "fine"]
    assert not cases[0].passed
    assert cases[0].detail.startswith("ZeroDivisionError")
    assert cases[1].passed and cases[1].detail == "ok"


def test_builders_give_184_cases_in_suite_order():
    assert tuple(verify._BUILDERS) == verify.SUITE_NAMES
    counts = [len(verify._BUILDERS[name](0)) for name in verify.SUITE_NAMES]
    assert counts == [101, 50, 8, 5, 20]
