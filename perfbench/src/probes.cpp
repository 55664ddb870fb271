// Per-layer probes: public hot functions called on the workload's
// shapes, each warmed up before it is timed. They run only in traced
// runs, after the measured window.
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "fl/loss.hpp"
#include "fl/optimizer.hpp"
#include "net/codec.hpp"
#include "raft/storage.hpp"
#include "secagg/shares.hpp"
#include "secagg/wire.hpp"

namespace perfbench {

using namespace p2pfl;

namespace {

/// Calls `op` in batches until `budget_s` has passed (after one warm-up
/// batch) and returns seconds per call.
template <typename Op>
double seconds_per_call(Op&& op, double budget_s = 0.2) {
  op();
  std::size_t calls = 0;
  std::size_t batch = 1;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < budget_s) {
    for (std::size_t i = 0; i < batch; ++i) op();
    calls += batch;
    batch = std::min<std::size_t>(batch * 2, 1 << 16);
    elapsed = seconds_between(t0, Clock::now());
  }
  return elapsed / static_cast<double>(calls);
}

std::vector<float> random_floats(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void probe_codec(const ProbeShape& shape, Rng& rng, Measurement& m,
                 Checks& checks) {
  secagg::wire::register_codecs("sac");
  const net::Codec* codec = net::CodecRegistry::global().find_key("sac:share");
  checks.expect(codec != nullptr, "probe: sac:share codec is registered");
  if (codec == nullptr) return;

  const std::any tiny = codec->sample(
      rng, {.dim = 4, .n = shape.group_n, .k = shape.group_n});
  volatile std::size_t sink = 0;
  auto encode = [&](const std::any& msg) {
    return seconds_per_call([&] { sink = sink + codec->encode(msg)->size(); });
  };
  m.layer["net.codec.encode_ns_per_msg"] = 1e9 * encode(tiny);

  const std::any big = codec->sample(
      rng, {.dim = shape.dim, .n = shape.group_n, .k = shape.group_n});
  const Bytes encoded = *codec->encode(big);
  const double bytes = static_cast<double>(encoded.size());
  m.layer["net.codec.encode_ns_per_byte"] = 1e9 * encode(big) / bytes;
  bool round_trip = true;
  m.layer["net.codec.decode_ns_per_byte"] =
      1e9 * seconds_per_call([&] {
        round_trip = round_trip && codec->decode(encoded).has_value();
      }) / bytes;
  checks.expect(round_trip && codec->equals(*codec->decode(encoded), big),
                "probe: sac:share decodes back to the encoded share");
}

void probe_secagg(const ProbeShape& shape, Rng& rng, Measurement& m) {
  const std::vector<float> secret = random_floats(shape.dim, rng);
  Rng split_rng = rng.fork(1);
  volatile float sink = 0.0f;
  const double dim = static_cast<double>(shape.dim);
  m.layer["secagg.divide_ns_per_float"] =
      1e9 * seconds_per_call([&] {
        sink = secagg::divide(secret, shape.group_n, split_rng).back().back();
      }) / dim;
  std::vector<double> acc(shape.dim, 0.0);
  m.layer["secagg.accumulate_ns_per_float"] =
      1e9 * seconds_per_call([&] { secagg::accumulate(acc, secret); }) / dim;
  sink = static_cast<float>(acc.front());
}

/// One training step of the paper CNN at batch 32 on a single worker:
/// a fixed reference point for the FL layer, the same on every workload.
void probe_cnn_step(const Options& opt, Rng& rng, Measurement& m) {
  const std::size_t hw = opt.toy ? 8 : 28;
  const std::size_t width = opt.toy ? 16 : 128;
  const std::size_t batch = opt.toy ? 4 : 32;
  const std::size_t workers = parallel_workers();
  set_parallel_workers(1);
  fl::Model model = fl::Model::paper_cnn(1, hw, width, 10);
  model.init(rng);
  fl::Adam adam(1e-3f);
  auto step = [&](std::size_t b) {
    fl::Tensor x({b, 1, hw, hw});
    for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<int> labels(b);
    for (std::size_t i = 0; i < b; ++i) labels[i] = static_cast<int>(i % 10);
    const auto t0 = Clock::now();
    model.zero_grads();
    const fl::Tensor logits = model.forward(x, /*train=*/true, rng);
    model.backward(fl::softmax_cross_entropy(logits, labels).grad);
    auto params = model.get_params();
    adam.step(params, model.get_grads());
    model.set_params(params);
    return seconds_between(t0, Clock::now());
  };
  step(4);  // warm-up: allocations, page faults, optimizer state
  m.layer["fl.cnn_step_ms"] = 1e3 * step(batch);
  set_parallel_workers(workers);
}

void probe_adam(const ProbeShape& shape, Rng& rng, Measurement& m) {
  std::vector<float> params = random_floats(shape.dim, rng);
  const std::vector<float> grads = random_floats(shape.dim, rng);
  fl::Adam adam(1e-3f);
  m.layer["fl.adam_ns_per_param"] =
      1e9 * seconds_per_call([&] { adam.step(params, grads); }) /
      static_cast<double>(shape.dim);
}

void probe_wal(const Options& opt, Measurement& m) {
  std::filesystem::create_directories(opt.scratch_dir);
  const std::string prefix =
      opt.scratch_dir + "/probe-wal-" + std::to_string(getpid());
  {
    raft::WalStorage wal(prefix);
    wal.load();
    raft::LogEntry entry;
    entry.term = 1;
    entry.kind = raft::EntryKind::kCommand;
    entry.data.assign(64, 0xab);
    raft::Index index = 1;
    auto append = [&] {
      const auto t0 = Clock::now();
      wal.append_entry(index++, entry);
      wal.sync();
      return seconds_between(t0, Clock::now());
    };
    for (int i = 0; i < 10; ++i) append();
    std::vector<double> us;
    for (int i = 0; i < 100; ++i) us.push_back(1e6 * append());
    m.layer["raft.wal_append_sync_us"] = median(us);
  }
  std::error_code ec;
  std::filesystem::remove(prefix + ".wal", ec);
  std::filesystem::remove(prefix + ".snap", ec);
}

}  // namespace

void run_probes(const Options& opt, const ProbeShape& shape, Measurement& m,
                Checks& checks) {
  Rng rng = Rng(opt.seed).fork(0x9a0be);
  probe_codec(shape, rng, m, checks);
  probe_secagg(shape, rng, m);
  probe_adam(shape, rng, m);
  probe_cnn_step(opt, rng, m);
  probe_wal(opt, m);
}

}  // namespace perfbench
