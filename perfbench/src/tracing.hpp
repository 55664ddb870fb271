// Outside-in layer timing for the benchmark's traced runs.
//
// Nothing here reaches into the library: every measurement point is a
// public seam the benchmark owns.
//  * TimingTransport decorates the real net::Transport. It times
//    send_frame, the FrameSink upcall (frame delivery) and every timer
//    callback it schedules on the inner transport.
//  * TimedLayer decorates an fl::Layer; timed_paper_cnn() and
//    timed_mlp() below rebuild the library's architectures from the
//    public layer classes with every layer wrapped.
//  * The workload code opens frames around the calls it makes itself
//    (sim.run, begin_round) and around the round boundaries.
//
// All frames land on one LayerClock, which keeps a stack of open frames
// and charges each frame's *self* time (its duration minus its timed
// children) to the frame's layer, so the per-layer totals partition the
// traced wall time without double counting. A timer callback that ran
// model layers is a local-training pass; its self time is charged to
// fl.train_other (loss, optimizer, parameter copies) instead of
// net.timer_cb.
//
// The clock is single-threaded by design: every frame opens and closes
// on the protocol callback thread (the simulator's caller, or the TCP
// transport's loop thread), which is the transport seam's contract.
// Spans are kept in memory and written out once, at the end of the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/model.hpp"
#include "net/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Cat : std::size_t {
  kSim,         // sim.run minus the callbacks it dispatched
  kBeginRound,  // TwoLayerAggregator::begin_round
  kDeliver,     // FrameSink upcall: Network dispatch + protocol handlers
  kSendFrame,   // Transport::send_frame
  kTimerCb,     // timer callbacks (Raft, SAC, round driver)
  kFwdConv,
  kFwdDense,
  kFwdOther,
  kBwdConv,
  kBwdDense,
  kBwdOther,
  kTrainOther,  // training callbacks outside the layers
  kCount
};
inline constexpr std::size_t kCats = static_cast<std::size_t>(Cat::kCount);

/// Per-layer self-time seconds and call counts.
struct LayerTotals {
  std::array<double, kCats> self_s{};
  std::array<std::uint64_t, kCats> calls{};

  double operator[](Cat c) const { return self_s[static_cast<std::size_t>(c)]; }
  LayerTotals operator-(const LayerTotals& o) const;
  LayerTotals& operator+=(const LayerTotals& o);
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  std::uint64_t round = 0;
  std::string name;
  double start_s = 0.0;  // since the clock's epoch
  double end_s = 0.0;
};

class LayerClock {
 public:
  LayerClock() : epoch_(Clock::now()) {}

  /// Timing switch, flipped between rounds by the workload. Frames
  /// opened while off are not recorded (their guards know it).
  bool on = false;

  /// Returns true if a frame was opened (pair it with leave()).
  bool enter(Cat cat);
  void leave();
  std::size_t depth() const { return stack_.size(); }

  /// Open a begin_round frame inside the innermost open timer callback;
  /// it closes when that callback returns (see TimingTransport).
  void open_begin_round_in_callback();

  /// Round root spans: every span recorded in between is parented
  /// (directly or through its enclosing spans) to this round.
  void begin_round_span(std::uint64_t round);
  void end_round_span();

  const LayerTotals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }
  double seconds_since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

 private:
  struct Frame {
    Cat cat;
    Clock::time_point t0;
    double child_s;        // time covered by timed children
    bool ran_fl;           // a model layer ran inside this frame
    bool has_span_child;   // a kept span is nested inside this frame
    std::uint64_t span_id;
  };
  std::uint64_t open_parent() const;

  Clock::time_point epoch_;
  std::vector<Frame> stack_;
  LayerTotals totals_;
  std::vector<Span> spans_;
  std::uint64_t next_span_ = 1;
  std::uint64_t round_ = 0;
  std::size_t round_span_index_ = SIZE_MAX;
};

/// RAII frame on a LayerClock.
class Scope {
 public:
  Scope(LayerClock& clock, Cat cat)
      : clock_(clock), entered_(clock.enter(cat)) {}
  ~Scope() {
    if (entered_) clock_.leave();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  LayerClock& clock_;
  bool entered_;
};

/// Timing decorator around the real transport. Forwards everything;
/// wraps the FrameSink upcalls and the callbacks of timers scheduled
/// through it. Also records how late each timer fired against its due
/// time, and the lateness of the tick that started a round.
class TimingTransport final : public p2pfl::net::Transport,
                              private p2pfl::net::FrameSink {
 public:
  TimingTransport(p2pfl::net::Transport& inner, LayerClock& clock)
      : inner_(inner), clock_(clock) {}

  TimingTransport(const TimingTransport&) = delete;
  TimingTransport& operator=(const TimingTransport&) = delete;

  const char* name() const override { return inner_.name(); }
  bool deterministic() const override { return inner_.deterministic(); }
  p2pfl::SimTime now() const override { return inner_.now(); }
  p2pfl::net::TimerToken schedule_after(p2pfl::SimDuration delay,
                                        std::function<void()> fn) override;
  bool cancel(p2pfl::net::TimerToken token) override {
    return inner_.cancel(token);
  }
  void send_frame(p2pfl::net::Envelope&& env,
                  p2pfl::SimDuration model_delay) override;
  void set_sink(p2pfl::net::FrameSink* sink) override;
  p2pfl::obs::Observability& obs() override { return inner_.obs(); }
  p2pfl::Rng& rng() override { return inner_.rng(); }
  p2pfl::sim::Simulator* simulator() override { return inner_.simulator(); }
  void start() override { inner_.start(); }
  void shutdown() override { inner_.shutdown(); }
  void inject_connection_reset(p2pfl::PeerId a, p2pfl::PeerId b) override {
    inner_.inject_connection_reset(a, b);
  }

  /// Called by the workload's on_round_started hook (inside the round
  /// driver's timer callback): marks that callback as the round's tick.
  void note_round_started();
  /// Lateness of the timer tick that started the most recent round, in
  /// transport microseconds (virtual on the simulator: always 0 there).
  p2pfl::SimDuration last_tick_lag_us() const { return last_tick_lag_; }

 private:
  void fire(p2pfl::SimTime due, const std::function<void()>& fn);
  void transport_deliver(p2pfl::net::Envelope& env) override;
  void transport_peer_up(p2pfl::PeerId peer) override;
  void transport_peer_down(p2pfl::PeerId peer, const char* reason) override;

  p2pfl::net::Transport& inner_;
  LayerClock& clock_;
  p2pfl::net::FrameSink* sink_ = nullptr;
  p2pfl::SimTime firing_due_ = 0;
  bool firing_ = false;
  bool round_started_in_fire_ = false;
  p2pfl::SimDuration last_tick_lag_ = 0;
};

/// Timing decorator around one model layer.
class TimedLayer final : public p2pfl::fl::Layer {
 public:
  TimedLayer(std::unique_ptr<p2pfl::fl::Layer> inner, LayerClock& clock);

  std::string name() const override { return inner_->name(); }
  p2pfl::fl::Tensor forward(const p2pfl::fl::Tensor& x, bool train,
                            p2pfl::Rng& rng) override;
  p2pfl::fl::Tensor backward(const p2pfl::fl::Tensor& grad_out) override;
  std::span<float> params() override { return inner_->params(); }
  std::span<float> grads() override { return inner_->grads(); }
  void init(p2pfl::Rng& rng) override { inner_->init(rng); }

 private:
  std::unique_ptr<p2pfl::fl::Layer> inner_;
  LayerClock& clock_;
  Cat fwd_;
  Cat bwd_;
};

/// fl::Model::paper_cnn / fl::Model::mlp rebuilt layer by layer, each
/// layer wrapped in a TimedLayer on `clock`.
p2pfl::fl::Model timed_paper_cnn(LayerClock& clock, std::size_t channels,
                                 std::size_t hw, std::size_t dense_width,
                                 std::size_t classes);
p2pfl::fl::Model timed_mlp(LayerClock& clock, std::size_t inputs,
                           const std::vector<std::size_t>& hidden,
                           std::size_t classes);

/// Bit-identity check of a decorated model against the plain one: same
/// parameters after init from one seed, and the same logits and
/// gradients after one training-mode forward/backward pass on a random
/// batch of shape `input_shape` (batch dimension first).
bool models_bit_identical(p2pfl::fl::Model plain, p2pfl::fl::Model timed,
                          const std::vector<std::size_t>& input_shape,
                          std::uint64_t seed, std::string* why);

const char* cat_name(Cat c);

}  // namespace perfbench
