"""Time mvtool's set-up in a fresh interpreter and print it in seconds.

Set-up is what every CLI invocation pays before its first check: importing
mvtool, the first registry access (which parses every named sequent) and
parsing the given model descriptors.

With ``--reference`` it times a fixed set of standard-library imports
instead.  That is the same kind of work (loading extension modules and
unmarshalling code) done by no mvtool code, so it gives the host's speed
for set-up; see ``speed.py``.

usage: python3 setup_probe.py SRC_DIR [DESCRIPTOR ...]
       python3 setup_probe.py --reference
"""

import sys
import time


def main(argv):
    if argv == ["--reference"]:
        start = time.perf_counter()
        import argparse, asyncio, concurrent.futures, csv, ctypes  # noqa
        import dataclasses, decimal, difflib, email.mime.multipart  # noqa
        import fractions, hashlib, http.client, inspect, json  # noqa
        import logging, pydoc, pyexpat, random, sqlite3, ssl  # noqa
        import statistics, tarfile, typing, unittest, zipfile  # noqa
        import xml.etree.ElementTree  # noqa
        print(f"{time.perf_counter() - start!r}")
        return
    sys.path.insert(0, argv[0])
    start = time.perf_counter()
    import mvtool

    mvtool.lookup("MV.1")
    for descriptor in argv[1:]:
        mvtool.parse_model(descriptor)
    print(f"{time.perf_counter() - start!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
