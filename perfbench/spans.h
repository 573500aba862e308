// In-memory span recorder for the benchmark's traced runs.
//
// The driver opens a span around each call it makes into a library layer
// ("runtime.process_batch", "query.parse", ...) and around each of its own
// reps ("driver.closed_rep", ...). A span records its name, start, end, the
// span that was open when it started (its parent) and the rep it belongs
// to. Nothing leaves memory until WriteCsv at exit. A disabled recorder
// reads no clock, so the untraced runs pay one branch per call.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  // "<layer>.<call>"; always a string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // index into the recorder's spans, -1 for a root
  uint32_t run = 0;     // rep id
};

class SpanRecorder {
 public:
  // Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, int32_t index)
        : recorder_(recorder), index_(index) {}
    ~Scope() {
      if (index_ >= 0) recorder_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int32_t index_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_run(uint32_t run) { run_ = run; }

  Scope Open(const char* name) {
    if (!enabled_) return Scope(this, -1);
    Span s;
    s.name = name;
    s.parent = open_;
    s.run = run_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return Scope(this, open_);
  }

  // Self time (duration minus the time its children cover) summed over the
  // spans named `name` in rep `run`, and how many there were.
  uint64_t SelfNs(const char* name, uint32_t run, size_t* count = nullptr) {
    RefreshChildTotals();
    uint64_t total = 0;
    size_t n = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run || std::strcmp(s.name, name) != 0) continue;
      total += (s.end_ns - s.start_ns) - child_ns_[i];
      ++n;
    }
    if (count != nullptr) *count = n;
    return total;
  }

  // Wall time of the root spans named `root` in rep `run`, and the part of
  // it that their direct children (the calls into the library) cover.
  void RootCoverage(const char* root, uint32_t run, uint64_t* root_ns,
                    uint64_t* covered_ns) {
    RefreshChildTotals();
    *root_ns = 0;
    *covered_ns = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run || s.parent >= 0 || std::strcmp(s.name, root) != 0) {
        continue;
      }
      *root_ns += s.end_ns - s.start_ns;
      *covered_ns += child_ns_[i];
    }
  }

  // One line per span: run,name,start_ns,end_ns,parent.
  bool WriteCsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "run,name,start_ns,end_ns,parent\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%u,%s,%llu,%llu,%d\n", s.run, s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  void Close(int32_t index) {
    spans_[index].end_ns = NowNs();
    open_ = spans_[index].parent;
  }

  void RefreshChildTotals() {
    child_ns_.assign(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns_[s.parent] += s.end_ns - s.start_ns;
    }
  }

  bool enabled_ = false;
  uint32_t run_ = 0;
  int32_t open_ = -1;
  std::vector<Span> spans_;
  std::vector<uint64_t> child_ns_;  // per span: time its children cover
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
