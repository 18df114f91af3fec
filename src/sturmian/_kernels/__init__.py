"""The hot kernels: longest palindromic suffix, minimal period, continuant scan."""
from ._pure import BACKEND, arith_scan, lps_length, min_period
