from frameopt.cli import main

raise SystemExit(main())
