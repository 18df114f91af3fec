"""The hot kernels: prefix function, longest palindromic suffix, minimal period,
and the continuant walk of the directive tree."""
from ._pure import BACKEND, arith_orders, arith_scan, borders, lps_length, min_period
