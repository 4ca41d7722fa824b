"""Entry point for ``python -m logfol``."""

from .cli import main

raise SystemExit(main())
