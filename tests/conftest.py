import tracemalloc


def traced_peak(fn, *args):
    """The peak of tracemalloc's traced memory, in bytes, over one call
    ``fn(*args)``; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
