import sys

from sweep_proofs.proofs import main

sys.exit(main())
