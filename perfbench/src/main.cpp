// Whole-stack benchmark binary.
//
//   perfbench --workload scale_10k|cnn_sim|tcp_mlp --seed N --seconds S
//             --trace 0|1 [--toy] [--out-dir DIR] [--scratch-dir DIR]
//
// With --trace 0 it measures the end-to-end metrics with no timing
// decorators installed. With --trace 1 it installs them, alternates
// timed and untimed rounds (the difference is the tracing overhead),
// runs the per-layer probes, writes spans and per-round records to
// DIR, and reports the per-layer metrics. Every run checks the
// workload's outputs; a failed check exits 1. The last line of stdout
// is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) {
    failures.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string describe(const std::vector<double>& v, const char* unit) {
  char buf[160];
  // Highest percentile with at least ten samples beyond it.
  const double n = static_cast<double>(v.size());
  const double qs[] = {0.999, 0.99, 0.9};
  for (double q : qs) {
    if (n * (1.0 - q) >= 10.0) {
      std::snprintf(buf, sizeof buf, "median %.4g %s (n=%zu, p%g %.4g %s)",
                    median(v), unit, v.size(), 100 * q, quantile(v, q), unit);
      return buf;
    }
  }
  std::snprintf(buf, sizeof buf, "median %.4g %s (n=%zu, max %.4g %s)",
                median(v), unit, v.size(), quantile(v, 1.0), unit);
  return buf;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

namespace {

void put_record(std::FILE* f, const RoundRecord& r) {
  std::fprintf(f,
               "{\"index\":%llu,\"round_s\":%.9g,\"agg_ms\":%.9g,"
               "\"begin_round_s\":%.9g,\"sim_run_s\":%.9g,\"events\":%llu,"
               "\"wire_bytes\":%llu,\"payload_bytes\":%llu,"
               "\"fault_free\":%s,\"traced\":%s,\"tick_lag_ms\":%.9g,"
               "\"loop_cpu_s\":%.9g,"
               "\"layers_s\":{",
               static_cast<unsigned long long>(r.index), r.round_s, r.agg_ms,
               r.begin_round_s, r.sim_run_s,
               static_cast<unsigned long long>(r.events),
               static_cast<unsigned long long>(r.wire_bytes),
               static_cast<unsigned long long>(r.payload_bytes),
               r.fault_free ? "true" : "false", r.traced ? "true" : "false",
               r.tick_lag_ms, r.loop_cpu_s);
  for (std::size_t i = 0; i < kCats; ++i) {
    std::fprintf(f, "%s\"%s\":%.9g", i ? "," : "",
                 cat_name(static_cast<Cat>(i)), r.layers.self_s[i]);
  }
  std::fprintf(f, "}}");
}

}  // namespace

void write_trace_file(const Options& opt, const Measurement& m,
                      const LayerClock& clock) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"rounds\":[",
               opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed));
  for (std::size_t i = 0; i < m.rounds.size(); ++i) {
    if (i) std::fputc(',', f);
    std::fputc('\n', f);
    put_record(f, m.rounds[i]);
  }
  std::fprintf(f, "],\"spans\":[");
  const auto& spans = clock.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\":%llu,\"parent\":%llu,\"round\":%llu,"
                 "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}",
                 i ? "," : "", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.round), s.name.c_str(),
                 s.start_s, s.end_s);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::fprintf(stderr, "spans and per-round records: %s\n", path.c_str());
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the names and units).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"round_s", "s"},
    {"agg_ms", "ms"},
    {"cpu_s_per_round", "s"},
    {"peak_rss_mb", "MB"},
    {"wire_bytes_per_round", "B"},
    {"round_commit_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.begin_round_s", "s/round"},
    {"core.driver_lag_ms", "ms"},
    {"core.round_growth", "ratio"},
    {"sim.events", "count/round"},
    {"sim.self_s", "s/round"},
    {"net.send_frame_s", "s/round"},
    {"net.deliver_s", "s/round"},
    {"net.timer_cb_s", "s/round"},
    {"net.messages", "count/round"},
    {"net.wire_bytes", "B/round"},
    {"net.payload_ratio", "ratio"},
    {"net.codec.encode_ns_per_msg", "ns"},
    {"net.codec.encode_ns_per_byte", "ns/B"},
    {"net.codec.decode_ns_per_byte", "ns/B"},
    {"tcp.raw_bytes", "B/round"},
    {"tcp.frames", "count/round"},
    {"tcp.loop_cpu_s", "s/round"},
    {"tcp.connects", "count"},
    {"tcp.outq_dropped", "count"},
    {"secagg.divide_ns_per_float", "ns"},
    {"secagg.accumulate_ns_per_float", "ns"},
    {"secagg.share_retries", "count"},
    {"fl.forward_s", "s/round"},
    {"fl.backward_s", "s/round"},
    {"fl.forward_conv_s", "s/round"},
    {"fl.forward_dense_s", "s/round"},
    {"fl.backward_conv_s", "s/round"},
    {"fl.backward_dense_s", "s/round"},
    {"fl.train_other_s", "s/round"},
    {"fl.cnn_step_ms", "ms"},
    {"fl.adam_ns_per_param", "ns"},
    {"raft.elections_started", "count"},
    {"raft.election_win_ratio", "ratio"},
    {"raft.snapshot_installs", "count"},
    {"raft.recoveries", "count"},
    {"raft.wal_bytes", "B"},
    {"raft.wal_append_sync_us", "us"},
    {"raft.failover_sim_ms", "ms"},
    {"trace.overhead_round_s", "s"},
    {"trace.overhead_agg_ms", "ms"},
};

/// Rounds the end-to-end figures describe: in the measured window, with
/// a previous commit to time from, and untouched by the injected crash.
bool steady(const RoundRecord& r) {
  return !r.warmup && r.round_s > 0.0 && r.fault_free;
}

template <typename F>
std::vector<double> collect(const std::vector<RoundRecord>& rounds, F&& f) {
  std::vector<double> v;
  for (const RoundRecord& r : rounds) {
    if (steady(r)) v.push_back(f(r));
  }
  return v;
}

void print_rounds(const std::vector<RoundRecord>& rounds) {
  std::printf("per-round records:\n");
  for (const RoundRecord& r : rounds) {
    std::printf("  round %3llu %-8s round %.4f s  agg %.1f ms  begin_round "
                "%.4f s  sim.run %.4f s  events %llu  tick lag %.2f ms  "
                "loop cpu %.4f s%s\n",
                static_cast<unsigned long long>(r.index),
                r.warmup ? "warm-up" : r.traced ? "traced" : "untimed",
                r.round_s, r.agg_ms, r.begin_round_s, r.sim_run_s,
                static_cast<unsigned long long>(r.events), r.tick_lag_ms,
                r.loop_cpu_s, r.fault_free ? "" : "  (crash)");
  }
}

using Values = std::vector<std::pair<std::string, double>>;

Values end_to_end(const Measurement& m) {
  const double committed =
      static_cast<double>(std::max<std::uint64_t>(1, m.committed));
  print_rounds(m.rounds);
  std::vector<double> agg;
  for (const RoundRecord& r : m.rounds) {
    if (!r.warmup && r.fault_free) agg.push_back(r.agg_ms);
  }
  std::vector<double> round_s =
      collect(m.rounds, [](auto& r) { return r.round_s; });
  std::vector<double> wire = collect(
      m.rounds, [](auto& r) { return static_cast<double>(r.wire_bytes); });
  std::printf("setup_s      %s; samples", describe(m.setup_s, "s").c_str());
  for (double v : m.setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("round_s      %s\n", describe(round_s, "s").c_str());
  std::printf("agg_ms       %s\n", describe(agg, "ms").c_str());
  return {
      {"setup_s", median(m.setup_s)},
      {"round_s", median(round_s)},
      {"agg_ms", median(agg)},
      {"cpu_s_per_round", m.cpu_s / committed},
      {"peak_rss_mb", m.peak_rss_mb},
      {"wire_bytes_per_round", median(wire)},
      {"round_commit_ratio",
       m.started > 0 ? static_cast<double>(m.committed) / m.started : 0.0},
  };
}

Values per_layer(const Measurement& m) {
  LayerTotals sum;
  std::size_t traced = 0;
  std::vector<double> t_round, u_round, t_agg, u_agg;
  double traced_wall = 0.0;
  for (const RoundRecord& r : m.rounds) {
    if (!steady(r)) continue;
    (r.traced ? t_round : u_round).push_back(r.round_s);
    (r.traced ? t_agg : u_agg).push_back(r.agg_ms);
    if (r.traced) {
      sum += r.layers;
      traced_wall += r.round_s;
      ++traced;
    }
  }
  const double k = static_cast<double>(std::max<std::size_t>(1, traced));
  auto per_round = [&](Cat c) { return sum[c] / k; };

  std::printf("self time by layer over %zu traced rounds (%.3f s wall):\n",
              traced, traced_wall);
  for (std::size_t i = 0; i < kCats; ++i) {
    std::printf("  %-18s %9.4f s/round  %5.1f%%  %llu calls\n",
                cat_name(static_cast<Cat>(i)), sum.self_s[i] / k,
                traced_wall > 0 ? 100.0 * sum.self_s[i] / traced_wall : 0.0,
                static_cast<unsigned long long>(sum.calls[i]));
  }

  std::vector<double> lag, all_round;
  for (const RoundRecord& r : m.rounds) {
    lag.push_back(r.tick_lag_ms);
    if (r.round_s > 0.0) all_round.push_back(r.round_s);
  }
  const std::size_t third = std::max<std::size_t>(1, all_round.size() / 3);
  const double first = median(std::vector<double>(
      all_round.begin(),
      all_round.begin() + std::min(third, all_round.size())));
  const double last = median(std::vector<double>(
      all_round.end() - std::min(third, all_round.size()), all_round.end()));
  double wire = 0.0, payload = 0.0;
  std::vector<double> events, wire_round, loop_cpu;
  for (const RoundRecord& r : m.rounds) {
    if (!steady(r)) continue;
    wire += static_cast<double>(r.wire_bytes);
    payload += static_cast<double>(r.payload_bytes);
    events.push_back(static_cast<double>(r.events));
    wire_round.push_back(static_cast<double>(r.wire_bytes));
    loop_cpu.push_back(r.loop_cpu_s);
  }
  Values v = {
      {"core.begin_round_s", per_round(Cat::kBeginRound)},
      {"core.driver_lag_ms", median(lag)},
      {"core.round_growth", first > 0 ? last / first : 0.0},
      {"sim.events", median(events)},
      {"sim.self_s", per_round(Cat::kSim)},
      {"net.send_frame_s", per_round(Cat::kSendFrame)},
      {"net.deliver_s", per_round(Cat::kDeliver)},
      {"net.timer_cb_s", per_round(Cat::kTimerCb)},
      {"net.wire_bytes", median(wire_round)},
      {"net.payload_ratio", wire > 0 ? payload / wire : 0.0},
      {"fl.forward_s", per_round(Cat::kFwdConv) + per_round(Cat::kFwdDense) +
                           per_round(Cat::kFwdOther)},
      {"fl.backward_s", per_round(Cat::kBwdConv) + per_round(Cat::kBwdDense) +
                            per_round(Cat::kBwdOther)},
      {"fl.forward_conv_s", per_round(Cat::kFwdConv)},
      {"fl.forward_dense_s", per_round(Cat::kFwdDense)},
      {"fl.backward_conv_s", per_round(Cat::kBwdConv)},
      {"fl.backward_dense_s", per_round(Cat::kBwdDense)},
      {"fl.train_other_s", per_round(Cat::kTrainOther)},
      {"tcp.loop_cpu_s", median(loop_cpu)},
      {"trace.overhead_round_s", median(t_round) - median(u_round)},
      {"trace.overhead_agg_ms", median(t_agg) - median(u_agg)},
  };
  for (const auto& [name, value] : m.layer) v.emplace_back(name, value);
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload scale_10k|cnn_sim|tcp_mlp "
               "--seed N --seconds S --trace 0|1 [--toy] [--out-dir DIR] "
               "[--scratch-dir DIR]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(next());
    else if (a == "--trace") opt.trace = std::atoi(next()) != 0;
    else if (a == "--toy") opt.toy = true;
    else if (a == "--out-dir") opt.out_dir = next();
    else if (a == "--scratch-dir") opt.scratch_dir = next();
    else return usage();
  }
  // At most nproc threads: the FL worker pool (plus the TCP loop thread).
  p2pfl::set_parallel_workers(
      std::min<std::size_t>(4, p2pfl::parallel_workers()));

  Measurement m;
  Checks checks;
  if (opt.workload == "scale_10k") run_scale_10k(opt, m, checks);
  else if (opt.workload == "cnn_sim" || opt.workload == "tcp_mlp") {
    run_system(opt, m, checks);
  }
  else return usage();

  Values values = end_to_end(m);
  std::span<const MetricDef> defs = kEndToEnd;
  if (opt.trace) {
    values = per_layer(m);
    defs = kPerLayer;
  }

  std::string metrics;
  for (const MetricDef& d : defs) {
    double value = 0.0;
    for (const auto& [name, v] : values) {
      if (name == d.name) value = v;
    }
    if (!std::isfinite(value)) {
      checks.expect(false, std::string("metric ") + d.name + " is finite");
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, value, d.unit);
    metrics += buf;
    std::printf("%-32s %.6g %s\n", d.name, value, d.unit);
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(1, m.started);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(m.started - m.committed),
              metrics.c_str());
  return checks.ok() ? 0 : 1;
}
