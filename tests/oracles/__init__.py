"""Test oracles: literal transcriptions the package's fast paths are held to."""
