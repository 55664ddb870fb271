// cnn_sim and tcp_mlp: the full P2pFlSystem (two-layer Raft, two-layer
// aggregation, local training) driven through its public API.
//
//  * cnn_sim runs on the simulator: 9 peers in 3 subgroups training the
//    paper CNN, one training step per peer per round, Raft state in
//    write-ahead logs. After the second committed round the FedAvg
//    leader is crashed and, 3 simulated seconds later, restarted from
//    its WAL. The loop is closed: the simulator runs as fast as the work
//    allows, so a round's wall time is the work it took.
//  * tcp_mlp runs over loopback TCP with the real-clock profile of
//    `p2pflctl train --transport=tcp`: 20 peers in 5 subgroups, an MLP.
//    The loop is open: the round driver fires once per round_interval
//    whatever the progress, and a round is timed from its tick.
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "analysis/cost_model.hpp"
#include "bench.hpp"
#include "common/parallel.hpp"
#include "core/system.hpp"
#include "fl/data.hpp"
#include "net/network.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp/tcp_transport.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace p2pfl;

namespace {

struct SystemSpec {
  const char* name;
  bool tcp;
  std::size_t peers;
  std::size_t groups;
  std::size_t hw;  // square input side (1 channel)
  bool cnn;        // paper CNN, else MLP
  std::size_t width;  // CNN dense width / MLP hidden width
  std::size_t shard;  // samples per peer = one training step per round
  std::size_t test_samples;
  /// mnist_like noise. The CNN sees only about ten averaged steps in a
  /// run, so its data is less noisy than the preset's 1.5; the MLP keeps
  /// it.
  double noise_scale;
  float learning_rate;
  bool crash;
  std::size_t min_rounds;
  double min_accuracy;
};

SystemSpec spec_for(const Options& opt) {
  if (opt.workload == "cnn_sim") {
    if (opt.toy) {
      return {"cnn_sim", false, 9, 3, 8, true, 16, 8, 200, 0.1, 3e-3f, true, 7,
              0.15};
    }
    return {"cnn_sim", false, 9, 3, 28, true, 128, 4, 300, 0.1, 3e-3f, true, 10,
            0.15};
  }
  if (opt.toy) {
    return {"tcp_mlp", true, 8, 2, 8, false, 16, 32, 200, 0.1, 3e-2f, false, 3,
            0.15};
  }
  return {"tcp_mlp", true, 20, 5, 28, false, 128, 32, 500, 1.5, 3e-3f, false, 3,
          0.3};
}

core::SystemConfig config_for(const SystemSpec& s, std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.train.epochs = 1;
  cfg.train.batch_size = s.shard;
  cfg.seed = seed;
  if (s.tcp) {
    // The real-clock profile of `p2pflctl train --transport=tcp`.
    cfg.raft.raft.election_timeout_min = 1 * kSecond;
    cfg.raft.raft.election_timeout_max = 2 * kSecond;
    cfg.raft.fedavg_presence_poll = 200 * kMillisecond;
    cfg.round_interval = 1 * kSecond;
    cfg.train_duration = 50 * kMillisecond;
    cfg.agg.collect_timeout = 60 * kSecond;
    cfg.agg.sac_share_timeout = 20 * kSecond;
    cfg.agg.sac_subtotal_timeout = 20 * kSecond;
    cfg.agg.upload_retry = 60 * kSecond;
  }
  cfg.learning_rate = s.learning_rate;
  return cfg;
}

fl::Model plain_model(const SystemSpec& s) {
  return s.cnn ? fl::Model::paper_cnn(1, s.hw, s.width, 10)
               : fl::Model::mlp(s.hw * s.hw, {s.width}, 10);
}

fl::Model timed_model(const SystemSpec& s, LayerClock& clock) {
  return s.cnn ? timed_paper_cnn(clock, 1, s.hw, s.width, 10)
               : timed_mlp(clock, s.hw * s.hw, {s.width}, 10);
}

/// Model payload of the aggregation protocol's messages: the SAC layer
/// ("sac/...") and the FedAvg layer and fan-out ("agg/..."), which is
/// what Eq. (4) counts. Raft snapshot transfers also carry a model (the
/// catch-up state) but are Raft's, not the aggregation's: over TCP a
/// log compaction can race a follower's acknowledgement and ship one.
std::uint64_t aggregation_payload(const net::TrafficStats& stats) {
  std::uint64_t total = 0;
  for (const auto& [kind, c] : stats.sent_by_kind) {
    if (kind.rfind("sac/", 0) == 0 || kind.rfind("agg/", 0) == 0) {
      total += c.payload;
    }
  }
  return total;
}

/// CPU time of the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// What the system's callbacks report, shared between the protocol
/// thread and the main thread (TCP) under one mutex.
struct Observer {
  std::mutex mu;
  bool in_window = false;
  std::optional<Clock::time_point> first_start;
  std::map<std::uint64_t, Clock::time_point> start_at;  // by round id
  std::vector<std::uint64_t> started;  // round ids started in the window

  struct Commit {
    std::uint64_t round = 0;
    Clock::time_point at;
    SimTime transport_at = 0;
    std::uint64_t payload = 0;
    std::uint64_t agg_payload = 0;  // aggregation kinds only (sac/, agg/)
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    std::uint64_t events = 0;
    std::uint64_t tcp_raw = 0;
    std::uint64_t tcp_frames = 0;
    double loop_cpu_s = 0.0;  // CPU time of the protocol thread so far
    LayerTotals layers;
    bool traced = false;
    double tick_lag_ms = 0.0;
  };
  std::vector<Commit> commits;
  std::map<std::uint64_t, std::vector<float>> globals;
  std::map<std::uint64_t, std::size_t> receivers;
  std::map<PeerId, std::uint64_t> last_received;
  std::size_t mismatches = 0;
};

struct SystemRig {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::SimTransport> sim_transport;
  std::unique_ptr<net::tcp::TcpTransport> tcp;
  std::unique_ptr<TimingTransport> timing;
  std::unique_ptr<net::Network> net;
  fl::TrainTest data;
  fl::PeerIndices parts;
  std::string wal_dir;
  Observer obs;
  std::unique_ptr<core::P2pFlSystem> sys;

  SystemRig(const SystemSpec& s, std::uint64_t seed, LayerClock* clock,
            const std::string& wal)
      : wal_dir(wal) {
    net::Transport* base;
    if (s.tcp) {
      core::Topology topo = core::Topology::even(s.peers, s.groups);
      tcp = std::make_unique<net::tcp::TcpTransport>(
          net::tcp::TcpTransportConfig{.peers = topo.all_peers(),
                                       .seed = seed});
      base = tcp.get();
    } else {
      sim = std::make_unique<sim::Simulator>(seed);
      sim_transport = std::make_unique<net::SimTransport>(*sim);
      base = sim_transport.get();
    }
    if (clock != nullptr) {
      timing = std::make_unique<TimingTransport>(*base, *clock);
      base = timing.get();
    }
    net = std::make_unique<net::Network>(*base, net::NetworkConfig{});

    fl::SyntheticSpec ds = fl::mnist_like();
    ds.height = s.hw;
    ds.width = s.hw;
    ds.train_samples = s.peers * s.shard;
    ds.test_samples = s.test_samples;
    ds.noise_scale = s.noise_scale;
    Rng data_rng = Rng(seed).fork(0xda7a);
    data = fl::make_synthetic(ds, data_rng);
    parts = fl::partition_iid(data.train, s.peers, data_rng);

    core::SystemConfig cfg = config_for(s, seed);
    if (!wal_dir.empty()) {
      std::filesystem::create_directories(wal_dir);
      cfg.raft.storage_dir = wal_dir;
    }
    std::function<fl::Model()> builder = [s] { return plain_model(s); };
    if (clock != nullptr) {
      builder = [s, clock] { return timed_model(s, *clock); };
    }
    sys = std::make_unique<core::P2pFlSystem>(
        core::Topology::even(s.peers, s.groups), cfg, *net, data.train,
        data.test, parts, builder);
  }

  ~SystemRig() {
    if (tcp) tcp->shutdown();
    sys.reset();
    if (!wal_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir, ec);
    }
  }

  /// Hook the system's callbacks into the observer. `clock` toggles per
  /// round in traced runs (odd rounds timed, even rounds as the
  /// untraced baseline of the overhead estimate).
  void observe(LayerClock* clock, bool trace) {
    sys->on_round_started = [this, clock, trace](std::uint64_t round) {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(obs.mu);
      if (!obs.first_start.has_value()) {
        obs.first_start = now;
        obs.in_window = true;
        if (clock != nullptr) {
          clock->on = trace;
          clock->begin_round_span(1);
        }
      }
      obs.start_at[round] = now;
      if (obs.in_window) obs.started.push_back(round);
      if (timing) timing->note_round_started();
    };
    sys->on_round_complete = [this, clock, trace](
                                 std::uint64_t round,
                                 const secagg::Vector& global, std::size_t) {
      Observer::Commit c;
      c.at = Clock::now();
      c.round = round;
      c.transport_at = net->now();
      c.payload = net->stats().sent.payload;
      c.agg_payload = aggregation_payload(net->stats());
      c.bytes = net->stats().sent.bytes;
      c.messages = net->stats().sent.messages;
      if (sim) {
        c.events = sim->obs().metrics.counter("sim.events_dispatched").value();
      }
      if (tcp) {
        // The loop thread also does all socket I/O, framing and decoding
        // outside the timed callbacks.
        c.loop_cpu_s = thread_cpu_seconds();
        c.tcp_raw = tcp->raw_bytes_sent();
        c.tcp_frames = tcp->frames_sent();
      }
      if (timing) c.tick_lag_ms = 1e-3 * double(timing->last_tick_lag_us());
      {
        std::lock_guard<std::mutex> lock(obs.mu);
        obs.globals[round] = global;
        // Receivers get a round within milliseconds of its commit; keep
        // the few newest globals, not one model copy per round.
        while (obs.globals.size() > 4) obs.globals.erase(obs.globals.begin());
        if (clock != nullptr) {
          c.layers = clock->totals();
          c.traced = clock->on;
          clock->end_round_span();
          const std::size_t next = obs.commits.size() + 2;
          clock->on = trace && next % 2 == 1;
          clock->begin_round_span(next);
        }
        obs.commits.push_back(std::move(c));
      }
      if (sim) sim->stop();
    };
    auto inner = sys->aggregator().on_model_received;
    sys->aggregator().on_model_received =
        [this, inner](std::uint64_t round, PeerId peer,
                      const secagg::Vector& g) {
          inner(round, peer, g);
          std::lock_guard<std::mutex> lock(obs.mu);
          auto it = obs.globals.find(round);
          if (it == obs.globals.end() || !same_bits(it->second, g)) {
            ++obs.mismatches;
          }
          ++obs.receivers[round];
          obs.last_received[peer] = round;
        };
  }

};

std::string wal_dir_for(const Options& opt, const SystemSpec& s, int setup) {
  if (s.tcp) return {};
  return opt.scratch_dir + "/wal-" + s.name + "-" + std::to_string(getpid()) +
         "-" + std::to_string(setup);
}

/// Builds a deployment into `rig` and brings it up to its first round
/// start; returns the set-up wall time.
double set_up(std::unique_ptr<SystemRig>& rig, const SystemSpec& s,
              const Options& opt, int setup, LayerClock* clock,
              Checks& checks) {
  const auto t0 = Clock::now();
  rig = std::make_unique<SystemRig>(
      s, Rng(opt.seed).fork(100 + setup).next_u64(), clock,
      wal_dir_for(opt, s, setup));
  SystemRig& r = *rig;
  r.observe(clock, opt.trace);
  auto started = [&r] {
    std::lock_guard<std::mutex> lock(r.obs.mu);
    return r.obs.first_start.has_value();
  };
  if (s.tcp) {
    r.tcp->start();
    r.tcp->call([&r] { r.sys->start(); });
    const auto deadline = t0 + std::chrono::seconds(60);
    while (!started() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    r.sys->start();
    while (!started() && r.sim->now() < 120 * kSecond) {
      r.sim->run_for(10 * kMillisecond);
    }
  }
  checks.expect(started(), std::string(s.name) + ": first round started");
  std::lock_guard<std::mutex> lock(r.obs.mu);
  return r.obs.first_start.has_value()
             ? seconds_between(t0, *r.obs.first_start)
             : seconds_between(t0, Clock::now());
}

}  // namespace

void run_system(const Options& opt, Measurement& m, Checks& checks) {
  const SystemSpec s = spec_for(opt);
  // Two FL workers: a 4-thread pool's wall time swung by a quarter from
  // run to run with other load on the host, two threads far less.
  set_parallel_workers(2);
  LayerClock clock;
  LayerClock* clock_ptr = opt.trace ? &clock : nullptr;
  std::filesystem::create_directories(opt.scratch_dir);

  if (opt.trace) {
    std::string why;
    const bool same = models_bit_identical(
        plain_model(s), timed_model(s, clock),
        {2, 1, s.hw, s.hw}, opt.seed, &why);
    checks.expect(same, std::string(s.name) +
                            ": timed model is bit-identical to the plain "
                            "one" + (same ? "" : " (" + why + ")"));
  }

  // Over TCP the first round waits for the next 1 s driver tick, so a
  // set-up takes about 1.1 s or 2.1 s; medians over several keep a run's
  // figure off the rare side.
  const int setups = 3;
  std::unique_ptr<SystemRig> rig;
  for (int i = 0; i < setups; ++i) {
    rig.reset();
    // Only the kept deployment is timed.
    m.setup_s.push_back(set_up(rig, s, opt, i,
                               i == setups - 1 ? clock_ptr : nullptr, checks));
    if (!checks.ok()) return;
  }
  SystemRig& r = *rig;
  Observer& ob = r.obs;
  const double cpu0 = cpu_seconds();
  Clock::time_point window0;
  {
    std::lock_guard<std::mutex> lock(ob.mu);
    window0 = *ob.first_start;
  }

  std::optional<SimTime> crash_at, restart_at;
  PeerId victim = kNoPeer;
  double failover_ms = 0.0;
  const std::size_t n = s.peers / s.groups;
  auto commits = [&ob] {
    std::lock_guard<std::mutex> lock(ob.mu);
    return ob.commits.size();
  };
  auto fanned_out = [&ob](std::uint64_t round, std::size_t want) {
    std::lock_guard<std::mutex> lock(ob.mu);
    auto it = ob.receivers.find(round);
    return it != ob.receivers.end() && it->second >= want;
  };
  const auto hard_deadline =
      window0 + std::chrono::duration<double>(opt.seconds * 3 + 60);

  if (s.tcp) {
    std::this_thread::sleep_until(
        window0 + std::chrono::duration<double>(opt.seconds));
    std::vector<std::uint64_t> counted;
    {
      std::lock_guard<std::mutex> lock(ob.mu);
      ob.in_window = false;
      counted = ob.started;
    }
    m.cpu_s = cpu_seconds() - cpu0;
    // Let the rounds started in the window finish and fan out.
    const auto drain = Clock::now() + std::chrono::seconds(15);
    for (;;) {
      bool all = true;
      for (std::uint64_t id : counted) all = all && fanned_out(id, s.peers);
      if (all || Clock::now() > drain) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    r.tcp->shutdown();
  } else {
    sim::Simulator& sim = *r.sim;
    std::size_t seen = 0;
    for (;;) {
      {
        // The commit hook stops the simulator, so a chunk never straddles
        // the switch between timed and untimed rounds.
        Scope run(clock, Cat::kSim);
        sim.run_for(100 * kMillisecond);
      }
      const std::size_t c = commits();
      if (c == seen) {
        if (Clock::now() > hard_deadline) break;
        continue;
      }
      seen = c;
      std::uint64_t last_round;
      SimTime last_at;
      {
        std::lock_guard<std::mutex> lock(ob.mu);
        last_round = ob.commits.back().round;
        last_at = ob.commits.back().transport_at;
      }
      if (crash_at.has_value() && failover_ms == 0.0 && last_at > *crash_at) {
        failover_ms = to_ms(last_at - *crash_at);
      }
      // Finish this round's fan-out before deciding anything.
      const std::size_t live = s.peers - r.net->crashed_count();
      const SimTime fan_deadline = sim.now() + kSecond;
      {
        Scope run(clock, Cat::kSim);
        while (!fanned_out(last_round, live) && sim.now() < fan_deadline &&
               sim.step()) {
        }
      }
      const bool settled =
          !s.crash || (restart_at.has_value() &&
                       [&] {
                         std::lock_guard<std::mutex> lock(ob.mu);
                         std::size_t after = 0;
                         for (const auto& cm : ob.commits) {
                           if (cm.transport_at > *restart_at) ++after;
                         }
                         return after >= 3;
                       }());
      const bool over =
          seconds_between(window0, Clock::now()) >= opt.seconds;
      if ((over && settled && c >= s.min_rounds) ||
          Clock::now() > hard_deadline) {
        break;
      }
      if (s.crash && !crash_at.has_value() && c == 2) {
        victim = r.sys->raft().fedavg_leader();
        crash_at = sim.now();
        r.sys->crash_peer(victim);
        sim.schedule_after(3 * kSecond, [&] {
          r.sys->restart_peer(victim);
          restart_at = sim.now();
        });
      }
    }
    m.cpu_s = cpu_seconds() - cpu0;
  }
  m.peak_rss_mb = peak_rss_mb();
  clock.on = false;
  clock.end_round_span();

  // --- rounds ---------------------------------------------------------------
  const std::uint64_t w_bytes =
      4 * static_cast<std::uint64_t>(r.sys->global_model_at(0).size());
  const double eq4 = analysis::two_layer_cost_eq4(s.groups, n);
  std::lock_guard<std::mutex> lock(ob.mu);
  std::set<std::uint64_t> counted(ob.started.begin(), ob.started.end());
  if (!s.tcp) {
    // Closed loop: every round started before the last commit counts.
    counted.clear();
    for (const auto& [id, at] : ob.start_at) counted.insert(id);
  }
  m.started = counted.size();
  std::size_t restart_commit = SIZE_MAX;
  for (std::size_t i = 0; i < ob.commits.size(); ++i) {
    const Observer::Commit& c = ob.commits[i];
    if (restart_at.has_value() && c.transport_at > *restart_at &&
        restart_commit == SIZE_MAX) {
      restart_commit = i;
    }
  }
  std::size_t fault_free_checked = 0;
  for (std::size_t i = 0; i < ob.commits.size(); ++i) {
    const Observer::Commit& c = ob.commits[i];
    if (counted.count(c.round) == 0) continue;
    ++m.committed;
    RoundRecord rec;
    rec.index = i + 1;
    rec.agg_ms = 1e3 * seconds_between(ob.start_at.at(c.round), c.at);
    rec.tick_lag_ms = c.tick_lag_ms;
    rec.traced = c.traced;
    rec.fault_free = !(crash_at.has_value() && c.transport_at > *crash_at &&
                       (restart_commit == SIZE_MAX || i <= restart_commit + 1));
    if (i > 0) {
      const Observer::Commit& p = ob.commits[i - 1];
      rec.round_s = seconds_between(p.at, c.at);
      rec.wire_bytes = c.bytes - p.bytes;
      rec.payload_bytes = c.payload - p.payload;
      rec.events = c.events - p.events;
      rec.loop_cpu_s = c.loop_cpu_s - p.loop_cpu_s;
      rec.layers = c.layers - p.layers;
      rec.begin_round_s = rec.layers[Cat::kBeginRound];
      if (rec.fault_free) {
        ++fault_free_checked;
        const double units =
            static_cast<double>(c.agg_payload - p.agg_payload) /
            double(w_bytes);
        checks.expect(units == eq4,
                      std::string(s.name) + ": round " +
                          std::to_string(i + 1) + " payload " +
                          std::to_string(units) + " |w| equals Eq. (4) " +
                          std::to_string(eq4) + " |w|");
      }
    }
    const std::size_t want = rec.fault_free ? s.peers : s.peers - 1;
    checks.expect(ob.receivers[c.round] >= want,
                  std::string(s.name) + ": round " + std::to_string(i + 1) +
                      " global reached every live peer (" +
                      std::to_string(ob.receivers[c.round]) + ")");
    m.rounds.push_back(rec);
  }
  checks.expect(fault_free_checked >= 2,
                std::string(s.name) + ": at least two fault-free rounds "
                "checked against Eq. (4) (got " +
                    std::to_string(fault_free_checked) + ")");
  checks.expect(m.committed >= s.min_rounds,
                std::string(s.name) + ": at least " +
                    std::to_string(s.min_rounds) + " rounds committed");
  checks.expect(ob.mismatches == 0,
                std::string(s.name) + ": every received global is "
                "bit-identical to the committed one");
  // Every live peer got the last counted round and holds, bit for bit,
  // the newest global it received.
  std::uint64_t final_round = 0;
  for (const auto& c : ob.commits) {
    if (counted.count(c.round) != 0) {
      final_round = std::max(final_round, c.round);
    }
  }
  std::size_t holders = 0;
  for (PeerId p = 0; p < s.peers; ++p) {
    if (r.net->crashed(p)) continue;
    auto it = ob.last_received.find(p);
    const bool ok = it != ob.last_received.end() &&
                    it->second >= final_round &&
                    same_bits(r.sys->global_model_at(p),
                              ob.globals[it->second]);
    holders += ok ? 1 : 0;
  }
  checks.expect(holders == s.peers - r.net->crashed_count(),
                std::string(s.name) + ": every live peer holds the final "
                "global (" + std::to_string(holders) + ")");
  const double acc = r.sys->evaluate_global().accuracy;
  std::printf("%s: final accuracy %.1f%% after %zu committed rounds\n",
              s.name, 100.0 * acc, ob.commits.size());
  checks.expect(acc >= s.min_accuracy,
                std::string(s.name) + ": final accuracy " +
                    std::to_string(acc) + " is clearly above chance");
  if (s.crash) {
    checks.expect(failover_ms > 0.0,
                  std::string(s.name) + ": a round committed after the "
                  "FedAvg leader crash");
  }

  // --- per-layer observations ----------------------------------------------
  obs::MetricsRegistry& mr = r.net->obs().metrics;
  auto count = [&mr](const char* name) {
    return static_cast<double>(mr.counter(name).value());
  };
  const double elections = count("raft.elections_started");
  m.layer["raft.elections_started"] = elections;
  m.layer["raft.election_win_ratio"] =
      elections > 0 ? count("raft.elections_won") / elections : 0.0;
  m.layer["raft.snapshot_installs"] = count("raft.snapshot_installs");
  m.layer["raft.recoveries"] = count("raft.recoveries");
  m.layer["raft.wal_bytes"] =
      r.wal_dir.empty() ? 0.0 : static_cast<double>(dir_bytes(r.wal_dir));
  m.layer["raft.failover_sim_ms"] = failover_ms;
  m.layer["secagg.share_retries"] = count("sac.share_retries");
  m.layer["tcp.connects"] = count("net.tcp.connects");
  m.layer["tcp.outq_dropped"] = count("net.tcp.outq_dropped");
  if (ob.commits.size() >= 2) {
    const auto& a = ob.commits.front();
    const auto& b = ob.commits.back();
    const double k = static_cast<double>(ob.commits.size() - 1);
    m.layer["net.messages"] = double(b.messages - a.messages) / k;
    m.layer["tcp.raw_bytes"] = double(b.tcp_raw - a.tcp_raw) / k;
    m.layer["tcp.frames"] = double(b.tcp_frames - a.tcp_frames) / k;
  }

  if (opt.trace) {
    write_trace_file(opt, m, clock);
    const std::size_t dim = r.sys->global_model_at(0).size();
    run_probes(opt, ProbeShape{dim, n}, m, checks);
  }
}


}  // namespace perfbench
