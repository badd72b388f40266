import sys
from pathlib import Path

# the self-tests import the package from this checkout, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
