#include "tracing.hpp"

#include <cstring>
#include <utility>

#include "fl/layers.hpp"
#include "fl/loss.hpp"

namespace perfbench {

using namespace p2pfl;

namespace {

bool is_fl(Cat c) {
  return c >= Cat::kFwdConv && c <= Cat::kBwdOther;
}

/// Frames that are few enough per round to keep as individual spans.
bool spanned(Cat c) {
  return c == Cat::kSim || c == Cat::kBeginRound || is_fl(c);
}

}  // namespace

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::kSim: return "sim.self";
    case Cat::kBeginRound: return "core.begin_round";
    case Cat::kDeliver: return "net.deliver";
    case Cat::kSendFrame: return "net.send_frame";
    case Cat::kTimerCb: return "net.timer_cb";
    case Cat::kFwdConv: return "fl.forward_conv";
    case Cat::kFwdDense: return "fl.forward_dense";
    case Cat::kFwdOther: return "fl.forward_other";
    case Cat::kBwdConv: return "fl.backward_conv";
    case Cat::kBwdDense: return "fl.backward_dense";
    case Cat::kBwdOther: return "fl.backward_other";
    case Cat::kTrainOther: return "fl.train_other";
    case Cat::kCount: break;
  }
  return "?";
}

LayerTotals LayerTotals::operator-(const LayerTotals& o) const {
  LayerTotals d;
  for (std::size_t i = 0; i < kCats; ++i) {
    d.self_s[i] = self_s[i] - o.self_s[i];
    d.calls[i] = calls[i] - o.calls[i];
  }
  return d;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  for (std::size_t i = 0; i < kCats; ++i) {
    self_s[i] += o.self_s[i];
    calls[i] += o.calls[i];
  }
  return *this;
}

// --- LayerClock -------------------------------------------------------------

std::uint64_t LayerClock::open_parent() const {
  if (!stack_.empty()) return stack_.back().span_id;
  return round_span_index_ != SIZE_MAX ? spans_[round_span_index_].id : 0;
}

bool LayerClock::enter(Cat cat) {
  if (!on) return false;
  stack_.push_back({cat, Clock::now(), 0.0, false, false, next_span_++});
  return true;
}

void LayerClock::leave() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const Clock::time_point t1 = Clock::now();
  const double dur = std::chrono::duration<double>(t1 - f.t0).count();
  Cat cat = f.cat;
  // A timer callback that ran model layers is a local-training pass.
  if (cat == Cat::kTimerCb && f.ran_fl) cat = Cat::kTrainOther;
  const auto i = static_cast<std::size_t>(cat);
  totals_.self_s[i] += dur - f.child_s;
  totals_.calls[i] += 1;
  // Spans are kept for the few frames per round worth seeing one by one,
  // and for any frame enclosing one, so every parent link resolves.
  const bool keep = spanned(f.cat) || f.has_span_child;
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_s += dur;
    if (f.ran_fl || is_fl(f.cat)) parent.ran_fl = true;
    if (keep) parent.has_span_child = true;
  }
  if (keep) {
    const char* name = cat_name(cat);
    if (f.cat == Cat::kSim) name = "sim.run";
    if (cat == Cat::kTrainOther) name = "fl.train_pass";
    spans_.push_back({f.span_id, open_parent(), round_, name,
                      seconds_since_epoch(f.t0), seconds_since_epoch(t1)});
  }
}

void LayerClock::open_begin_round_in_callback() {
  if (!stack_.empty() && stack_.back().cat == Cat::kTimerCb) {
    enter(Cat::kBeginRound);
  }
}

void LayerClock::begin_round_span(std::uint64_t round) {
  round_ = round;
  if (!on) return;
  const double t = seconds_since_epoch(Clock::now());
  spans_.push_back({next_span_++, 0, round, "round", t, t});
  round_span_index_ = spans_.size() - 1;
}

void LayerClock::end_round_span() {
  if (round_span_index_ == SIZE_MAX) return;
  spans_[round_span_index_].end_s = seconds_since_epoch(Clock::now());
  round_span_index_ = SIZE_MAX;
}

// --- TimingTransport --------------------------------------------------------

net::TimerToken TimingTransport::schedule_after(SimDuration delay,
                                                std::function<void()> fn) {
  const SimTime due = inner_.now() + delay;
  return inner_.schedule_after(
      delay, [this, due, fn = std::move(fn)] { fire(due, fn); });
}

void TimingTransport::fire(SimTime due, const std::function<void()>& fn) {
  const SimTime fired_at = inner_.now();
  const std::size_t depth = clock_.depth();
  const bool entered = clock_.enter(Cat::kTimerCb);
  round_started_in_fire_ = false;
  fn();
  if (round_started_in_fire_) last_tick_lag_ = fired_at - due;
  round_started_in_fire_ = false;
  // Close a begin_round frame the callback opened (note_round_started).
  while (clock_.depth() > depth + (entered ? 1 : 0)) clock_.leave();
  if (entered) clock_.leave();
}

void TimingTransport::note_round_started() {
  round_started_in_fire_ = true;
  clock_.open_begin_round_in_callback();
}

void TimingTransport::send_frame(net::Envelope&& env,
                                 SimDuration model_delay) {
  Scope s(clock_, Cat::kSendFrame);
  inner_.send_frame(std::move(env), model_delay);
}

void TimingTransport::set_sink(net::FrameSink* sink) {
  sink_ = sink;
  inner_.set_sink(sink != nullptr ? this : nullptr);
}

void TimingTransport::transport_deliver(net::Envelope& env) {
  Scope s(clock_, Cat::kDeliver);
  sink_->transport_deliver(env);
}

void TimingTransport::transport_peer_up(PeerId peer) {
  sink_->transport_peer_up(peer);
}

void TimingTransport::transport_peer_down(PeerId peer, const char* reason) {
  sink_->transport_peer_down(peer, reason);
}

// --- TimedLayer -------------------------------------------------------------

TimedLayer::TimedLayer(std::unique_ptr<fl::Layer> inner, LayerClock& clock)
    : inner_(std::move(inner)), clock_(clock) {
  const std::string n = inner_->name();
  if (n == "conv2d") {
    fwd_ = Cat::kFwdConv;
    bwd_ = Cat::kBwdConv;
  } else if (n == "dense") {
    fwd_ = Cat::kFwdDense;
    bwd_ = Cat::kBwdDense;
  } else {
    fwd_ = Cat::kFwdOther;
    bwd_ = Cat::kBwdOther;
  }
}

fl::Tensor TimedLayer::forward(const fl::Tensor& x, bool train, Rng& rng) {
  Scope s(clock_, fwd_);
  return inner_->forward(x, train, rng);
}

fl::Tensor TimedLayer::backward(const fl::Tensor& grad_out) {
  Scope s(clock_, bwd_);
  return inner_->backward(grad_out);
}

namespace {

template <typename L, typename... Args>
void add_timed(fl::Model& m, LayerClock& clock, Args&&... args) {
  m.add(std::make_unique<TimedLayer>(
      std::make_unique<L>(std::forward<Args>(args)...), clock));
}

}  // namespace

// Mirrors fl::Model::paper_cnn layer for layer; models_bit_identical()
// is the guard that keeps the two in step.
fl::Model timed_paper_cnn(LayerClock& clock, std::size_t channels,
                          std::size_t hw, std::size_t dense_width,
                          std::size_t classes) {
  fl::Model m;
  add_timed<fl::Conv2d>(m, clock, channels, 32);
  add_timed<fl::ReLU>(m, clock);
  add_timed<fl::Conv2d>(m, clock, 32, 32);
  add_timed<fl::ReLU>(m, clock);
  add_timed<fl::MaxPool2d>(m, clock);
  add_timed<fl::Dropout>(m, clock, 0.25f);
  add_timed<fl::Conv2d>(m, clock, 32, 64);
  add_timed<fl::ReLU>(m, clock);
  add_timed<fl::Conv2d>(m, clock, 64, 64);
  add_timed<fl::ReLU>(m, clock);
  add_timed<fl::MaxPool2d>(m, clock);
  add_timed<fl::Dropout>(m, clock, 0.25f);
  add_timed<fl::Flatten>(m, clock);
  add_timed<fl::Dense>(m, clock, 64 * (hw / 4) * (hw / 4), dense_width);
  add_timed<fl::ReLU>(m, clock);
  add_timed<fl::Dropout>(m, clock, 0.5f);
  add_timed<fl::Dense>(m, clock, dense_width, classes);
  return m;
}

fl::Model timed_mlp(LayerClock& clock, std::size_t inputs,
                    const std::vector<std::size_t>& hidden,
                    std::size_t classes) {
  fl::Model m;
  add_timed<fl::Flatten>(m, clock);
  std::size_t prev = inputs;
  for (std::size_t width : hidden) {
    add_timed<fl::Dense>(m, clock, prev, width);
    add_timed<fl::ReLU>(m, clock);
    prev = width;
  }
  add_timed<fl::Dense>(m, clock, prev, classes);
  return m;
}

namespace {

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

bool models_bit_identical(fl::Model plain, fl::Model timed,
                          const std::vector<std::size_t>& input_shape,
                          std::uint64_t seed, std::string* why) {
  if (plain.layer_count() != timed.layer_count() ||
      plain.param_count() != timed.param_count()) {
    *why = "layer or parameter count differs";
    return false;
  }
  Rng init_a(seed), init_b(seed);
  plain.init(init_a);
  timed.init(init_b);
  if (!same_bits(plain.get_params(), timed.get_params())) {
    *why = "initial parameters differ";
    return false;
  }
  fl::Tensor x(input_shape);
  Rng data_rng(seed ^ 0x5eedULL);
  for (float& v : x.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));
  std::vector<int> labels(input_shape.front());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 10);
  }
  Rng fwd_a(seed + 1), fwd_b(seed + 1);
  const fl::Tensor la = plain.forward(x, /*train=*/true, fwd_a);
  const fl::Tensor lb = timed.forward(x, /*train=*/true, fwd_b);
  if (!same_bits(la.flat(), lb.flat())) {
    *why = "logits differ";
    return false;
  }
  plain.zero_grads();
  timed.zero_grads();
  plain.backward(fl::softmax_cross_entropy(la, labels).grad);
  timed.backward(fl::softmax_cross_entropy(lb, labels).grad);
  if (!same_bits(plain.get_grads(), timed.get_grads())) {
    *why = "gradients differ";
    return false;
  }
  return true;
}

}  // namespace perfbench
