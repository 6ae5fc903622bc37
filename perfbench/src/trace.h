#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// \brief In-memory span recorder for the traced run.
///
/// Spans are recorded by the benchmark around its calls into each layer —
/// never inside the library. Each span has a name, start and end (ns since
/// the tracer was created), the id of the span that caused it (kNoParent for
/// a root) and the id of the operation it belongs to. Slots are preallocated
/// and claimed with one atomic increment, so recording is lock-free and
/// allocation-free; once `capacity` spans exist further spans are counted as
/// dropped instead of growing memory. WriteJsonLines dumps them at exit.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::uint32_t kDropped = 0xfffffffeu;

  explicit Tracer(std::size_t capacity)
      : epoch_(Clock::now()), capacity_(capacity), spans_(new Record[capacity]) {}

  /// Opens a span and returns its id (kDropped when the buffer is full).
  std::uint32_t Begin(const char* name, std::uint32_t parent, std::uint64_t op) {
    const std::uint64_t id = next_.fetch_add(1, std::memory_order_relaxed);
    if (id >= capacity_) return kDropped;
    Record& r = spans_[id];
    r.name = name;
    r.parent = parent;
    r.op = op;
    r.start_ns = NowNanos();
    return static_cast<std::uint32_t>(id);
  }

  void End(std::uint32_t id) {
    if (id < capacity_) spans_[id].end_ns = NowNanos();
  }

  std::uint64_t recorded() const {
    const std::uint64_t n = next_.load(std::memory_order_relaxed);
    return n < capacity_ ? n : capacity_;
  }
  std::uint64_t dropped() const {
    const std::uint64_t n = next_.load(std::memory_order_relaxed);
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// One JSON object per line: {"id","name","start_ns","end_ns","parent","op"}.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::uint64_t n = recorded();
    for (std::uint64_t i = 0; i < n; ++i) {
      const Record& r = spans_[i];
      std::fprintf(out,
                   "{\"id\":%llu,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%lld,\"op\":%llu}\n",
                   static_cast<unsigned long long>(i), r.name,
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns),
                   r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.op));
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Record {
    const char* name = "";
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::uint64_t NowNanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
            .count());
  }

  Clock::time_point epoch_;
  std::size_t capacity_;
  std::unique_ptr<Record[]> spans_;
  std::atomic<std::uint64_t> next_{0};
};

/// \brief RAII span that also times itself. With a null tracer it is a
/// plain stopwatch, so untraced and traced code paths are the same code.
class Span {
 public:
  Span(Tracer* tracer, const char* name,
       std::uint32_t parent = Tracer::kNoParent, std::uint64_t op = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, op) : Tracer::kDropped),
        start_(Clock::now()) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double Stop() {
    if (!stopped_) {
      seconds_ = SecondsBetween(start_, Clock::now());
      if (tracer_ != nullptr) tracer_->End(id_);
      stopped_ = true;
    }
    return seconds_;
  }

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
