import pytest

import bits_record


def test_bits_match_the_record(tmp_path):
    # every model file, the demo results apart from their time columns and
    # the stats files carry the bits on record for this BLAS build and
    # thread count; a build or count the record lacks is skipped by name
    record = bits_record.read_record()
    runs = bits_record.measure(tmp_path)
    if not runs:
        pytest.skip("numpy's BLAS is no OpenBLAS that exports LAPACK: no key to record under")
    for (config, threads), files in sorted(runs.items()):
        held = record.get(config, {}).get(str(threads))
        if held is None:
            pytest.skip(f"no bits on record for {config!r} at {threads} BLAS threads; "
                        "python tests/bits_record.py adds them")
        assert files == held, f"{config!r} at {threads} BLAS threads"
