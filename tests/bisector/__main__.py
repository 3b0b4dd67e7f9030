import sys

from bisector.divergence import main

sys.exit(main())
