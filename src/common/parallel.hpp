// Shared-memory parallel helpers for the numeric kernels.
//
// The discrete-event protocol simulation is single-threaded on purpose
// (determinism), but the FL substrate's tensor kernels (conv2d, dense)
// are embarrassingly parallel across samples and filters. parallel_for
// runs on one process-wide pool of persistent worker threads, started on
// first use. Idle workers block on a condition variable, so the pool
// costs no CPU between calls.
//
// One caller holds the pool at a time. A call made while another thread
// holds it, or made from inside a parallel_for body (a nested call),
// runs inline on the calling thread instead of waiting, so a long call
// on one thread (say, training on the TCP loop thread) never stalls or
// deadlocks another. With one worker every call is a plain loop.
//
// Which thread runs which chunk varies from call to call; kernels that
// must be deterministic give every output index work that does not
// depend on how the range was split.
#pragma once

#include <cstddef>
#include <functional>

namespace p2pfl {

/// Number of threads a parallel_for call uses at most, the calling
/// thread included (>= 1).
std::size_t parallel_workers();

/// Override the worker count (0 restores the hardware default). Safe to
/// call at any time; the pool resizes at the start of the next call.
void set_parallel_workers(std::size_t n);

/// Invoke fn(i) for every i in [begin, end), possibly from several
/// threads. fn must be safe to call concurrently for distinct i and must
/// not throw. Blocks until all iterations complete.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(lo, hi) is invoked on contiguous subranges (one
/// per worker at most), which amortizes per-index std::function overhead
/// in tight numeric loops.
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace p2pfl
