"""Queue-management experiment kit: drop policies, transport, simulator.

The root binds no name: import each one from its module (redqsim.red,
redqsim.engine, ...), so that importing a module loads only what it needs.
"""
