// Shared vocabulary of the benchmark: options, per-round records, the
// report every workload fills, and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracing.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the self-test: every code path, a fraction of the work.
  bool toy = false;
  /// Where traced runs write their spans and per-round records.
  std::string out_dir = ".bench_build/traces";
  /// Scratch directory for write-ahead logs and probe files.
  std::string scratch_dir = ".bench_build/scratch";
};

/// One committed round, in commit order. A "round" here is the interval
/// between two consecutive commits, so its wall time includes the local
/// training that happens between aggregations.
struct RoundRecord {
  std::uint64_t index = 0;     // 1-based position in the measured window
  double round_s = 0.0;        // wall time of the interval
  double agg_ms = 0.0;         // round start (or due tick) -> commit
  double begin_round_s = 0.0;  // begin_round (system: traced self time)
  double sim_run_s = 0.0;      // scale_10k: the sim.run call
  std::uint64_t events = 0;    // simulator events in the interval
  double loop_cpu_s = 0.0;     // TCP loop-thread CPU in the interval
  std::uint64_t wire_bytes = 0;
  std::uint64_t payload_bytes = 0;
  bool fault_free = true;      // no crash/restart touched the interval
  bool warmup = false;         // before the measured window
  bool traced = false;         // layer timing was on for this interval
  double tick_lag_ms = 0.0;    // lateness of the tick that started it
  LayerTotals layers;          // self times recorded in the interval
};

/// Everything a workload measured; main.cpp turns it into metrics.
struct Measurement {
  std::vector<double> setup_s;
  std::vector<RoundRecord> rounds;
  std::uint64_t started = 0;    // rounds started in the window
  std::uint64_t committed = 0;  // ... of which committed
  double cpu_s = 0.0;           // process user+sys CPU over the window
  double peak_rss_mb = 0.0;
  /// Per-layer values that are not layer self times: counters, probes,
  /// Raft observations, by metric name (units live in main.cpp's table).
  std::map<std::string, double> layer;
};

/// Correctness verdict: any failed check fails the run.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures.empty(); }
};

double median(std::vector<double> v);
/// Quantile by linear interpolation (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q);
/// "median X (n=N, pQ Y)" with the highest percentile that still has at
/// least ten samples beyond it, or the maximum when none does.
std::string describe(const std::vector<double>& v, const char* unit);

double cpu_seconds();
double peak_rss_mb();
double seconds_between(Clock::time_point a, Clock::time_point b);

/// Writes the traced run's spans and per-round records as JSON.
void write_trace_file(const Options& opt, const Measurement& m,
                      const LayerClock& clock);

// Workloads. Each fills `m` and records failed checks in `checks`.
void run_scale_10k(const Options& opt, Measurement& m, Checks& checks);
/// cnn_sim and tcp_mlp (the full system), picked by opt.workload.
void run_system(const Options& opt, Measurement& m, Checks& checks);

/// Shapes the per-layer probes run at.
struct ProbeShape {
  std::size_t dim = 4;       // |w| in floats
  std::size_t group_n = 32;  // SAC subgroup size (n-out-of-n: k = n)
};
/// Per-layer probes: codec, secagg math, FL step and optimizer, WAL
/// append+fsync. Warm up, then time. Adds to m.layer.
void run_probes(const Options& opt, const ProbeShape& shape, Measurement& m,
                Checks& checks);

}  // namespace perfbench
