import sys

from perfbench.suite import main

sys.exit(main())
