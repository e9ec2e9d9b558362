import numpy as np
import pytest
from hypothesis import settings

from rdmap import linalg

# Every hypothesis property runs the same examples on every run: no
# deadline, no random seed and no example database, so a failure repeats and
# an example that fails is never left to a later run's draw.  Each
# @settings(...) in the tests sets only its own max_examples.
settings.register_profile("pinned", deadline=None, derandomize=True, database=None)
settings.load_profile("pinned")


@pytest.fixture()
def count_decompositions(monkeypatch):
    """Forget the spectrum `linalg.density_spectrum` remembers, then
    count_decompositions(rho) returns a list that grows by "eigh" or
    "eigvalsh" for each decomposition of a matrix equal to rho, from
    anywhere in the process."""
    monkeypatch.setattr(linalg, "_last_spectrum", None)

    def start(rho):
        calls = []
        for name in ("eigh", "eigvalsh"):
            inner = getattr(np.linalg, name)

            def counted(M, *args, _inner=inner, _name=name, **kwargs):
                if np.shape(M) == np.shape(rho) and np.array_equal(M, rho):
                    calls.append(_name)
                return _inner(M, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls
    return start
