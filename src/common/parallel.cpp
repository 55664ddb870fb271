#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace p2pfl {
namespace {

std::atomic<std::size_t> g_workers{0};  // 0 = use hardware_concurrency

// Set on pool workers, and on a caller while it runs its share of a job:
// a parallel_for from such a thread is nested and runs inline.
thread_local bool t_in_parallel = false;

std::size_t effective_workers() {
  const std::size_t n = g_workers.load(std::memory_order_relaxed);
  if (n != 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

using ChunkFn = std::function<void(std::size_t, std::size_t)>;

/// Persistent workers that help one caller at a time. The caller and the
/// woken workers claim a job's chunks from a shared counter until none
/// are left.
class Pool {
 public:
  ~Pool() { resize(0); }

  /// Runs fn over [begin, end), split into `parts` equal chunks, on the
  /// caller and `threads` pool threads. Returns false, having run
  /// nothing, if another thread holds the pool.
  bool try_run(std::size_t begin, std::size_t end, std::size_t threads,
               std::size_t parts, const ChunkFn& fn) {
    std::unique_lock<std::mutex> hold(caller_, std::try_to_lock);
    if (!hold.owns_lock()) return false;
    resize(threads);
    const std::size_t chunk = (end - begin + parts - 1) / parts;
    const Job job{&fn, begin, end, chunk, (end - begin + chunk - 1) / chunk};
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = job;
      next_.store(0, std::memory_order_relaxed);
      ++generation_;
      open_ = true;
    }
    wake_.notify_all();
    t_in_parallel = true;
    run_chunks(job);
    t_in_parallel = false;
    std::unique_lock<std::mutex> lk(mu_);
    // Every chunk is claimed; wait for the workers still running theirs.
    idle_.wait(lk, [this] { return active_ == 0; });
    open_ = false;
    return true;
  }

 private:
  struct Job {
    const ChunkFn* fn = nullptr;
    std::size_t begin = 0, end = 0, chunk = 0, chunks = 0;
  };

  void run_chunks(const Job& job) {
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < job.chunks;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = job.begin + i * job.chunk;
      (*job.fn)(lo, std::min(job.end, lo + job.chunk));
    }
  }

  void work() {
    t_in_parallel = true;
    std::unique_lock<std::mutex> lk(mu_);
    std::uint64_t seen = generation_;
    for (;;) {
      wake_.wait(lk, [&] { return stop_ || (open_ && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      const Job job = job_;
      ++active_;
      lk.unlock();
      run_chunks(job);
      lk.lock();
      if (--active_ == 0) idle_.notify_one();
    }
  }

  /// Stops the workers and starts `n` fresh ones; no job may be open.
  void resize(std::size_t n) {
    if (threads_.size() == n) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    stop_ = false;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        threads_.emplace_back([this] { work(); });
      } catch (const std::system_error&) {
        break;  // fewer helpers; the caller still runs every chunk left
      }
    }
  }

  std::mutex caller_;  // held by the thread whose job the pool runs
  std::mutex mu_;      // guards everything below except next_
  std::condition_variable wake_, idle_;
  std::vector<std::thread> threads_;
  Job job_;
  std::atomic<std::size_t> next_{0};
  std::uint64_t generation_ = 0;
  bool open_ = false;       // workers may still join the current job
  std::size_t active_ = 0;  // workers inside the current job
  bool stop_ = false;
};

Pool& pool() {
  static Pool p;
  return p;
}

}  // namespace

std::size_t parallel_workers() { return effective_workers(); }

void set_parallel_workers(std::size_t n) {
  g_workers.store(n, std::memory_order_relaxed);
}

void parallel_for_chunked(std::size_t begin, std::size_t end,
                          const ChunkFn& fn) {
  if (begin >= end) return;
  const std::size_t pool_size = effective_workers();
  const std::size_t workers = std::min(pool_size, end - begin);
  if (workers > 1 && !t_in_parallel &&
      pool().try_run(begin, end, pool_size - 1, workers, fn)) {
    return;
  }
  fn(begin, end);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(begin, end,
                       [&fn](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) fn(i);
                       });
}

}  // namespace p2pfl
