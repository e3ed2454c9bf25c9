"""The bodies of the ``amdesign`` subcommands, one module per command group,
and the helpers they share (``common``). ``amdesign/__init__.py`` registers
each module without running it, so a command compiles only its own group.
"""
