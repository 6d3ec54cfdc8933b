# A minimal program for the `merlin_cli asm` smoke tests.
movi a0, 9
out.d a0
halt 0
