import hypothesis
import pytest

from isom4.cache import ResultCache
from isom4.verify import VerifyConfig, verify_all

hypothesis.settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def report_and_rerun(tmp_path_factory):
    """The verify-all report (seed 0) run into an empty cache, then rerun warm."""
    cache = ResultCache(tmp_path_factory.mktemp("verify-cache"))
    cold = verify_all(VerifyConfig(cache=cache))
    warm = verify_all(VerifyConfig(cache=cache))
    return cold, warm
