// Shared plumbing of the end-to-end benchmark: clocks, order statistics,
// seed derivation, the in-memory span recorder behind the traced run, and
// the per-run report every workload fills in.

#ifndef EMX_E2E_BENCH_BENCH_UTIL_H_
#define EMX_E2E_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/block/candidate_set.h"
#include "src/core/result.h"

namespace emx_e2e {

// The workloads are chosen so that no program call fails; one that does
// makes the run invalid, so it exits non-zero without printing a result.
[[noreturn]] void Die(const std::string& what, const emx::Status& status);

inline void OrDie(const emx::Status& status, const char* what) {
  if (!status.ok()) Die(what, status);
}

template <typename T>
T OrDie(emx::Result<T> result, const char* what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

// --- clocks ------------------------------------------------------------------

int64_t NowNs();       // steady clock
double ProcessCpuS();  // CPU seconds of every thread of this process
double ThreadCpuS();   // CPU seconds of the calling thread
double PeakRssMb();    // VmHWM of this process

// Host-speed calibration: on a shared host the program's speed drifts by
// tens of percent over minutes. Calibrate() times a fixed, L1-resident
// integer kernel in thread CPU time on one thread pinned to each CPU the
// caller may run on, for 100 ms, and records its time over the time on an
// uncontended vCPU of the reference class (1.0 at reference speed, 1.3
// when the host ran 30% slower). It must run only between measured units,
// while the program is idle, so the program's own load cannot leak into
// it. Slowdown() is the median of the run's calibrations; one calibration
// follows the host's second-to-second noise, their median the slower
// drift (README.md, "Host speed").
class HostSpeed {
 public:
  void Calibrate();
  double Slowdown() const;
  size_t calibrations() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
};

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> v);
// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

// --- seeds -------------------------------------------------------------------

// Independent streams derived from the one --seed argument, so the corpus,
// the label sample, the query order and the write mix each move with it.
enum SeedStream : uint64_t {
  kCorpusStream = 1,
  kLabelStream = 2,
  kQueryStream = 3,
  kMixStream = 4,
  kOracleStream = 5,
  kEvalStream = 6,
  kCheckStream = 7,
};
uint64_t DeriveSeed(uint64_t seed, SeedStream stream);

// Order-independent FNV-1a hash of a (sorted) match set.
uint64_t HashMatches(const emx::CandidateSet& matches);

// --- tracing -----------------------------------------------------------------

// In-memory span recorder for the traced run. Spans are recorded only by
// the benchmark's own code, around calls into the program's public
// functions; when disabled, Span costs one branch. The span name's prefix
// before the first '.' names the layer ("block", "feature.vectorize" ->
// "feature"), which is what self times are aggregated by.
class Trace {
 public:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    double cpu_s = 0;     // process CPU over the span (-1: not measured)
    int parent = -1;      // index of the enclosing span, -1 for roots
    uint64_t request = 0; // shared by every span of one request or job
    uint32_t track = 0;   // 0 = benchmark thread, 1 = in-flight requests
  };

  static Trace& Get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span nested under the innermost open span; returns its index.
  int Begin(const std::string& name, uint64_t request);
  void End(int index);
  // Records an already-finished span (e.g. a request from its intended send
  // time to its response), returning its index for use as a parent.
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, uint64_t request, uint32_t track);

  // Span duration minus the part of it covered by its children, summed by
  // layer, in seconds.
  std::map<std::string, double> LayerSelfSeconds() const;
  // Total seconds and CPU seconds of every span with this exact name.
  double TotalSeconds(const std::string& name) const;
  double TotalCpuSeconds(const std::string& name) const;

  // Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<Record> spans_;
  std::vector<int> open_;  // stack of open spans (benchmark thread only)
};

// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(const std::string& name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

std::string LayerOf(const std::string& span_name);

// --- run report --------------------------------------------------------------

// Deliberate output corruptions used by the self-test: each must trip the
// output check of the workload it targets.
enum class Corruption {
  kNone,
  kDropMatches,     // batch: drop a tenth of the final matches
  kUnstableOutput,  // batch: perturb the second (traced: the staged) job's
                    // output
  kCorruptCsv,      // batch: drop the last row of the written matches CSV
  kWrongLookup,     // serve_read: alter one sampled lookup response
  kDropServed,      // serve: ignore the matches of every other lookup
  kLateSend,        // serve: stall the generator 50 ms mid-schedule
  kLostWrite,       // serve_mixed: under-count one acknowledged insert
};

struct RunOptions {
  std::string workload;
  std::string dir;  // generated inputs; outputs are written here too
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (traced runs)
  bool tiny = false;      // self-test sizing
  Corruption corrupt = Corruption::kNone;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;

  // Records a failed output check, counting `failures` failed operations.
  void Check(bool ok, const std::string& what, uint64_t failures = 1);
};

}  // namespace emx_e2e

#endif  // EMX_E2E_BENCH_BENCH_UTIL_H_
