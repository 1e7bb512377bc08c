import sys

from benchmarks.request.run import main

sys.exit(main())
