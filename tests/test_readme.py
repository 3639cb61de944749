"""The README's Python examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from tests.conftest import DELTA0, TF_ORIGIN

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.S | re.M)


def _printed(code: str) -> list[str]:
    """The lines ``code`` prints, run as a fresh module."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    return out.getvalue().splitlines()


@pytest.mark.parametrize("k", range(len(EXAMPLES)))
def test_every_python_example_runs(k):
    assert _printed(EXAMPLES[k])


def test_engagement_example_prints_its_commented_values():
    intercept, feedback, course = _printed(EXAMPLES[0])
    delta, t_f = map(float, intercept.split())
    assert delta == pytest.approx(DELTA0, rel=1e-12) and t_f == pytest.approx(TF_ORIGIN, rel=1e-12)
    termination, t_feedback = feedback.split()
    assert termination == "intercept" and t_feedback.startswith("7.67208")
    assert course.startswith("6.66333")


def test_geodesic_example_conserves_F():
    (defect,) = _printed(EXAMPLES[1])
    assert float(defect) < 1e-9
