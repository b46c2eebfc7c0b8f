"""Smoke tests for the repository tools (fuzzer, report generator)."""

import pathlib
import sys

import numpy as np
import pytest

TOOLS_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "tools")


class TestFuzzer:
    def test_cases_agree(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            from fuzz import one_case
        finally:
            sys.path.pop(0)
        rng = np.random.default_rng(123)
        for _ in range(8):
            assert one_case(rng, verbose=False) is None

    def test_kernel_cases_agree(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            from fuzz import one_kernel_case
        finally:
            sys.path.pop(0)
        rng = np.random.default_rng(321)
        for _ in range(6):
            assert one_kernel_case(rng, verbose=False) is None

    def test_hotpath_cases_never_crash(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            from fuzz import one_hotpath_case
        finally:
            sys.path.pop(0)
        rng = np.random.default_rng(7)
        for _ in range(25):
            assert one_hotpath_case(rng, verbose=False) is None

    def test_hotpath_flag_wired(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            import fuzz
        finally:
            sys.path.pop(0)
        old_argv = sys.argv
        sys.argv = ["fuzz.py", "--hotpath", "--iterations", "5", "--seed", "11"]
        try:
            assert fuzz.main() == 0
        finally:
            sys.argv = old_argv

    def test_kernels_flag_wired(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            import fuzz
        finally:
            sys.path.pop(0)
        old_argv = sys.argv
        sys.argv = ["fuzz.py", "--kernels", "--iterations", "2", "--seed", "5"]
        try:
            assert fuzz.main() == 0
        finally:
            sys.argv = old_argv

    def test_fpcheck_cases_never_crash(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            from fuzz import one_fpcheck_case
        finally:
            sys.path.pop(0)
        rng = np.random.default_rng(9)
        for _ in range(25):
            assert one_fpcheck_case(rng, verbose=False) is None

    def test_fpcheck_flag_wired(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            import fuzz
        finally:
            sys.path.pop(0)
        old_argv = sys.argv
        sys.argv = ["fuzz.py", "--fpcheck", "--iterations", "5", "--seed", "13"]
        try:
            assert fuzz.main() == 0
        finally:
            sys.argv = old_argv

    def test_noisy_cases_agree(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            from fuzz import one_noisy_case
        finally:
            sys.path.pop(0)
        rng = np.random.default_rng(55)
        for _ in range(3):
            assert one_noisy_case(rng, verbose=False) is None

    def test_noisy_flag_wired(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            import fuzz
        finally:
            sys.path.pop(0)
        old_argv = sys.argv
        sys.argv = ["fuzz.py", "--noisy", "--iterations", "2", "--seed", "6"]
        try:
            assert fuzz.main() == 0
        finally:
            sys.argv = old_argv


class TestReportHelpers:
    def test_banner_and_sections_importable(self):
        sys.path.insert(0, TOOLS_DIR)
        try:
            import make_report
        finally:
            sys.path.pop(0)
        # The cheapest section end-to-end.
        make_report.e4_figure1()
