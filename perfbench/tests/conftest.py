import sys
from pathlib import Path

# the benchmark's modules (run, spans, workloads) live one directory up
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
