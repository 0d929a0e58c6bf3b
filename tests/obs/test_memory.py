"""Tests for the memory samples the journal attaches to events."""

from __future__ import annotations

from repro.obs.journal import _memory_sample, _rusage_sample


class TestMemorySampler:
    def test_sample_shape(self):
        sample = _memory_sample()
        assert set(sample) == {"rss_mb", "peak_rss_mb"}
        assert sample["rss_mb"] > 0
        # VmHWM can lag VmRSS by a page or two on some kernels.
        assert sample["peak_rss_mb"] >= sample["rss_mb"] * 0.9

    def test_rusage_fallback_positive(self):
        sample = _rusage_sample()
        assert sample["rss_mb"] > 0
        assert sample["peak_rss_mb"] >= sample["rss_mb"]

    def test_backends_roughly_agree(self):
        # Same process, same order of magnitude (procfs HWM vs rusage
        # HWM; on a platform without procfs both are the rusage peak).
        peak = _memory_sample()["peak_rss_mb"]
        assert 0.1 < peak / _rusage_sample()["peak_rss_mb"] < 10

    def test_falls_back_without_procfs(self, monkeypatch):
        import builtins

        real_open = builtins.open

        def no_procfs(path, *args, **kwargs):
            if str(path).startswith("/proc/"):
                raise FileNotFoundError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_procfs)
        sample = _memory_sample()
        assert sample["rss_mb"] == sample["peak_rss_mb"] > 0
