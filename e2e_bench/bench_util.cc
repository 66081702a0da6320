#include "e2e_bench/bench_util.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace emx_e2e {

void Die(const std::string& what, const emx::Status& status) {
  std::fprintf(stderr, "e2e_bench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(1);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

namespace {

// Kernel iterations per sample, and the kernel's CPU time per iteration on
// an uncontended vCPU of the reference host class (Xeon, 2.1 GHz).
constexpr int kProbeIterations = 100000;
constexpr double kProbeReferenceS = 2.0e-9 * kProbeIterations;
constexpr int64_t kCalibrationNs = 100000000;

double ProbeKernelS() {
  static thread_local uint32_t table[1024];
  double t0 = ThreadCpuS();
  uint32_t x = 12345;
  uint64_t acc = 0;
  for (int i = 0; i < kProbeIterations; ++i) {
    x = x * 1664525u + 1013904223u;
    acc += table[x & 1023] ^ (acc >> 3);
    table[(x >> 10) & 1023] += static_cast<uint32_t>(acc);
  }
  volatile uint64_t sink = acc;
  (void)sink;
  return ThreadCpuS() - t0;
}

}  // namespace

void HostSpeed::Calibrate() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: one unpinned thread
  std::vector<double> mean_s(cpus.size(), 0);
  std::vector<std::thread> threads;
  const int64_t until = NowNs() + kCalibrationNs;
  for (size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      if (cpus[i] >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      }
      double sum = 0;
      int n = 0;
      do {
        sum += ProbeKernelS();
        ++n;
      } while (NowNs() < until);
      mean_s[i] = sum / n;
    });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0;
  for (double s : mean_s) sum += s;
  samples_.push_back(sum / static_cast<double>(mean_s.size()) /
                     kProbeReferenceS);
}

double HostSpeed::Slowdown() const {
  return samples_.empty() ? 1.0 : Median(samples_);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

uint64_t DeriveSeed(uint64_t seed, SeedStream stream) {
  // SplitMix64 over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(stream);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t HashMatches(const emx::CandidateSet& matches) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const emx::RecordPair& p : matches) {
    mix(p.left);
    mix(p.right);
  }
  return h;
}

// --- Trace ------------------------------------------------------------------

Trace& Trace::Get() {
  static Trace* trace = new Trace();
  return *trace;
}

int Trace::Begin(const std::string& name, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.request = request;
  r.cpu_s = ProcessCpuS();
  r.start_ns = NowNs();
  spans_.push_back(std::move(r));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Trace::End(int index) {
  int64_t end = NowNs();
  double cpu = ProcessCpuS();
  std::lock_guard<std::mutex> lock(mu_);
  Record& r = spans_[index];
  r.end_ns = end;
  r.cpu_s = cpu - r.cpu_s;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Trace::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
               int parent, uint64_t request, uint32_t track) {
  std::lock_guard<std::mutex> lock(mu_);
  Record r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.cpu_s = -1;
  r.parent = parent;
  r.request = request;
  r.track = track;
  spans_.push_back(std::move(r));
  return static_cast<int>(spans_.size()) - 1;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> Trace::LayerSelfSeconds() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Record& r : spans_) {
    if (r.parent >= 0) children[r.parent].push_back({r.start_ns, r.end_ns});
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, r.start_ns);
      hi = std::min(hi, r.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[LayerOf(r.name)] += (r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return out;
}

double Trace::TotalSeconds(const std::string& name) const {
  double s = 0;
  for (const Record& r : spans_) {
    if (r.name == name) s += (r.end_ns - r.start_ns) * 1e-9;
  }
  return s;
}

double Trace::TotalCpuSeconds(const std::string& name) const {
  double s = 0;
  for (const Record& r : spans_) {
    if (r.name == name && r.cpu_s >= 0) s += r.cpu_s;
  }
  return s;
}

bool Trace::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Record& r : spans_) origin = std::min(origin, r.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request\":%llu,\"cpu_s\":%.6f}}",
                 i == 0 ? "" : ",\n", r.name.c_str(), LayerOf(r.name).c_str(),
                 r.track, (r.start_ns - origin) * 1e-3,
                 (r.end_ns - r.start_ns) * 1e-3, i, r.parent,
                 static_cast<unsigned long long>(r.request), r.cpu_s);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const std::string& name, uint64_t request) {
  if (Trace::Get().enabled()) index_ = Trace::Get().Begin(name, request);
}

Span::~Span() {
  if (index_ >= 0) Trace::Get().End(index_);
}

void RunReport::Check(bool ok, const std::string& what, uint64_t failures) {
  if (ok) return;
  correct = false;
  failed += failures;
  check_failures.push_back(what);
}

}  // namespace emx_e2e
