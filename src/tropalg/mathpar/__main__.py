"""Run the calculator without an installed entry point:

    python -m tropalg.mathpar eval 'SPACE = ZMaxPlus[]; 2 + 3;'
"""

from .cli import main

if __name__ == "__main__":
    main()
