import hypothesis
import pytest

hypothesis.settings.register_profile(
    "unishift",
    derandomize=True,
    deadline=None,
    max_examples=25,
)
hypothesis.settings.load_profile("unishift")


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at its size now plus 512 MiB for the test.

    A size that escapes its check then fails fast with MemoryError instead of
    taking the machine's memory; the old limit comes back after the test.
    """
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    except (OSError, StopIteration):
        pytest.skip("needs /proc/self/status to read the process size")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
