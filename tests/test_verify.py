import dispersal_lab.analysis as analysis
from dispersal_lab.verify import VerifyContext, check_invasion_brackets, check_switching_thresholds


def count_steady_solves(monkeypatch):
    calls = {"logistic_steady": 0, "subsystem_steady": 0}
    for name in calls:
        original = getattr(analysis, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    return calls


def test_switching_thresholds_solve_w_star_once(monkeypatch):
    calls = count_steady_solves(monkeypatch)
    results = check_switching_thresholds(VerifyContext(n_eigen=201))
    assert [r for r in results if r.status != "PASS"] == []
    assert calls == {"logistic_steady": 1, "subsystem_steady": 0}


def test_invasion_brackets_solve_the_pair_once(monkeypatch):
    calls = count_steady_solves(monkeypatch)
    results = check_invasion_brackets(VerifyContext(n_eigen=201))
    assert [r for r in results if r.status != "PASS"] == []
    assert calls["subsystem_steady"] == 1
