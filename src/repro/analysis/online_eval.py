from ..workloads.sessions import drifting_sequence as drifting_sequence  # for bench/workloads.py
