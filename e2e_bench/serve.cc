// The two serving workloads: a MatchService over the scale corpus behind a
// ServeLoop, driven open loop.
//
//   serve_read   every op is a lookup of a left record; each record is
//                looked up at most once per run, in a seeded order.
//   serve_mixed  90% lookups, 5% inserts of held-out right rows, 5% removes
//                of records this run inserted.
//
// One generator thread sends each request at its scheduled time, and the
// ServeLoop's response stream stamps every line as it is written, so a
// request's latency runs from its INTENDED send time to its response: a
// stall delays every request due during it, and none of that wait is lost.
// Generator thread + ServeLoop drain thread + executor workers = nproc
// threads, the generator on a CPU of its own.
//
// A run sets up several times (train + MatchService::Create) and offers
// kFixedRate ops/s for --seconds (in-service and end-to-end latency, CPU,
// gold, output checks). A traced run then also keeps kInFlight requests
// outstanding for up to kSaturationS (serve.saturated_ops_per_s).

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <ostream>
#include <random>
#include <thread>

#include "e2e_bench/inputs.h"
#include "e2e_bench/workloads.h"
#include "src/serve/json.h"
#include "src/serve/match_service.h"
#include "src/serve/serve_loop.h"
#include "src/table/csv.h"

namespace emx_e2e {

using namespace emx;

namespace {

// Offered load of the fixed-rate phase.
constexpr double kFixedRate = 1000;
// Saturation phase (traced runs): requests kept outstanding — below the
// ServeLoop's 128-slot queue, so nothing is shed — and its length.
constexpr size_t kInFlight = 64;
constexpr double kSaturationS = 2.0;
// Saturated throughput is the best completion rate over windows of this
// length: a host stall (a vCPU descheduled for milliseconds holds up the
// whole batch the drain thread waits on) only ever lowers a window's rate,
// so the best window measures the program's capacity rather than how often
// the host stalled it during the run.
constexpr int64_t kRateWindowNs = 250000000;
// A run whose generator sent more than 1% of requests over 10 ms late did
// not offer the load it claims; it is invalid.
constexpr double kMaxLagP99Us = 10000;
// Half the default, so that serve_mixed's writes at kFixedRate compact the
// delta index about four times per 8 s run.
constexpr size_t kCompactThreshold = 2048;
constexpr size_t kOracleSample = 64;
// Left records kept out of the open-loop plan: warm-up and the traced
// run's direct-lookup burst.
constexpr size_t kReservedRows = 600;
constexpr size_t kWarmLookups = 100;

// The load generator gets a CPU of its own, so the program's threads never
// preempt it (nor it them): the main thread narrows itself to all allowed
// CPUs but the last before the executor and the ServeLoop start their
// threads, which inherit that set, and moves itself to the last CPU only
// while it generates load.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
    CPU_ZERO(&program_);
    CPU_ZERO(&generator_);
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) last = c;
    }
    for (int c = 0; c < last; ++c) {
      if (CPU_ISSET(c, &all)) {
        CPU_SET(c, &program_);
        ++program_cpus_;
      }
    }
    if (program_cpus_ == 0) return;  // one CPU: nothing to split
    CPU_SET(last, &generator_);
    split_ = true;
    ToProgram();
  }
  // Executor threads for the program: its CPUs, one of which is the
  // ServeLoop drain thread that calls into the executor.
  size_t program_threads() const { return split_ ? program_cpus_ : 1; }
  void ToProgram() const {
    if (split_) {
      pthread_setaffinity_np(pthread_self(), sizeof(program_), &program_);
    }
  }
  void ToGenerator() const {
    if (split_) {
      pthread_setaffinity_np(pthread_self(), sizeof(generator_),
                             &generator_);
    }
  }

 private:
  bool split_ = false;
  size_t program_cpus_ = 0;
  cpu_set_t program_, generator_;
};

// The ServeLoop's output stream: every response line is stamped with the
// steady clock as it is written. ServeLoop writes under its own mutex, one
// line at a time, so there is a single writer at any moment. Lines may
// only be read back (Take) once every request sent has been answered.
class StampedLines : public std::streambuf {
 public:
  struct Line {
    int64_t ns = 0;
    std::string text;
  };

  size_t count() const { return count_.load(std::memory_order_acquire); }

  std::vector<Line> Take() {
    std::vector<Line> out = std::move(lines_);
    lines_.clear();
    count_.store(0, std::memory_order_release);
    return out;
  }

  // Record ids acknowledged by insert responses, oldest first; the
  // generator removes only records whose insert was acknowledged.
  std::optional<uint32_t> PopInserted() {
    std::lock_guard<std::mutex> lock(ids_mu_);
    if (inserted_.empty()) return std::nullopt;
    uint32_t id = inserted_.front();
    inserted_.pop_front();
    return id;
  }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) Put(static_cast<char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) Put(s[i]);
    return n;
  }

 private:
  void Put(char c) {
    if (c != '\n') {
      current_.push_back(c);
      return;
    }
    int64_t now = NowNs();
    size_t pos = current_.find("\"record_id\":");
    if (pos != std::string::npos &&
        current_.find("\"ok\":true") != std::string::npos) {
      std::lock_guard<std::mutex> lock(ids_mu_);
      inserted_.push_back(static_cast<uint32_t>(
          std::strtoul(current_.c_str() + pos + 12, nullptr, 10)));
    }
    lines_.push_back({now, std::move(current_)});
    current_.clear();
    count_.fetch_add(1, std::memory_order_release);
  }

  std::string current_;
  std::vector<Line> lines_;
  std::atomic<size_t> count_{0};
  std::mutex ids_mu_;
  std::deque<uint32_t> inserted_;
};

enum class OpKind { kLookup, kInsert, kRemove };

// The seeded traffic plan: which op comes next, and which record it reads.
class Plan {
 public:
  Plan(const std::string& workload, uint64_t seed, const Table& left,
       const Table& heldout, const Schema& corpus_schema)
      : mixed_(workload == "serve_mixed"),
        left_(left),
        heldout_(heldout),
        corpus_schema_(corpus_schema),
        mix_rng_(DeriveSeed(seed, kMixStream)) {
    std::vector<size_t> order(left.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937_64 rng(DeriveSeed(seed, kQueryStream));
    std::shuffle(order.begin(), order.end(), rng);
    size_t reserved = std::min(kReservedRows, order.size() / 4);
    reserved_.assign(order.end() - reserved, order.end());
    queries_.assign(order.begin(), order.end() - reserved);
  }

  const std::vector<size_t>& reserved_rows() const { return reserved_; }

  struct Next {
    OpKind kind;
    size_t row;  // left row (lookup) or held-out row (insert)
  };
  Next Draw() {
    if (mixed_) {
      double u = std::uniform_real_distribution<double>(0, 1)(mix_rng_);
      // Removes need acknowledged inserts to target: keep >= 8 outstanding.
      if (u >= 0.95 && inserts_ - removes_ >= 8) {
        ++removes_;
        return {OpKind::kRemove, 0};
      }
      if (u >= 0.90 && u < 0.95 && inserts_ < heldout_.num_rows()) {
        return {OpKind::kInsert, inserts_++};
      }
    }
    return DrawLookup();
  }
  Next DrawLookup() {
    // Wraps only when --seconds exceeds the ~19 s the plan covers at
    // kFixedRate; the saturation phase stops before it would.
    if (next_query_ == queries_.size()) next_query_ = 0;
    return {OpKind::kLookup, queries_[next_query_++]};
  }
  size_t lookups_left() const { return queries_.size() - next_query_; }

  // The request line after its leading {"id":N (a remove still needs
  // its record id and closing brace).
  std::string Body(const Next& op) const {
    std::string s;
    if (op.kind == OpKind::kLookup) {
      s = ",\"op\":\"lookup\",\"record\":";
      AppendRecord(left_.schema(), left_.Row(op.row), &s);
      s.push_back('}');
    } else if (op.kind == OpKind::kInsert) {
      s = ",\"op\":\"insert\",\"record\":";
      AppendRecord(corpus_schema_, heldout_.Row(op.row), &s);
      s.push_back('}');
    } else {
      s = ",\"op\":\"remove\",\"record_id\":";
    }
    return s;
  }

 private:
  static void AppendRecord(const Schema& schema, const std::vector<Value>& row,
                           std::string* out) {
    out->push_back('{');
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out->push_back(',');
      AppendJsonString(schema.field(i).name, out);
      out->push_back(':');
      const Value& v = row[i];
      if (v.is_null()) {
        out->append("null");
      } else if (v.is_int()) {
        out->append(std::to_string(v.AsInt()));
      } else if (v.is_double()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
        out->append(buf);
      } else {
        AppendJsonString(v.AsString(), out);
      }
    }
    out->push_back('}');
  }

  bool mixed_;
  const Table& left_;
  const Table& heldout_;
  Schema corpus_schema_;
  std::mt19937_64 mix_rng_;
  std::vector<size_t> queries_, reserved_;
  size_t next_query_ = 0, inserts_ = 0, removes_ = 0;
};

// One request as sent and as answered.
struct Request {
  OpKind kind = OpKind::kLookup;
  size_t row = 0;            // left row / held-out row
  int64_t due_ns = 0;        // intended send time
  int64_t submit_ns = 0;     // Submit call start
  int64_t submitted_ns = 0;  // Submit call end
  int64_t answered_ns = 0;   // response line written
  bool ok = false;
  std::string error;
  std::map<uint32_t, std::string> matches;  // record -> provenance
  size_t candidates = 0, sure = 0;
  int64_t record_id = -1;                   // insert: assigned id
  double latency_us() const { return (answered_ns - due_ns) * 1e-3; }
};

struct Phase {
  std::vector<Request> requests;
  int64_t start_ns = 0;
  int64_t end_ns = 0;     // last send
  double lag_p99_us = 0, lag_max_us = 0;
  uint64_t backlog = 0;  // admitted but unanswered when the schedule ended
  uint64_t shed = 0, errors = 0, parse_errors = 0;

  std::vector<double> Latencies(OpKind kind) const {
    std::vector<double> out;
    for (const Request& r : requests) {
      if (r.kind == kind && r.ok) out.push_back(r.latency_us());
    }
    return out;
  }
};

// Drives one phase through `loop`, then waits for every response.
//   rate > 0   open loop: rate x seconds ops, op i due at start + i / rate.
//   rate == 0  saturation: for `seconds`, or until the plan's unused
//              lookups run out, a new op is sent whenever fewer than
//              kInFlight are unanswered (due = sent).
// The generator spins between sends rather than sleeping: a sleeping vCPU
// can take milliseconds to wake on a busy host, and that lag would read as
// service latency. Its CPU time is not charged to cpu_s. `late_send` (the
// self-test) stalls the generator for 50 ms halfway through the schedule.
Phase RunPhase(ServeLoop& loop, StampedLines& lines, Plan& plan, double rate,
               double seconds, bool late_send) {
  Phase phase;
  const bool open = rate > 0;
  const size_t n = open ? static_cast<size_t>(rate * seconds) : SIZE_MAX;
  const uint64_t admitted0 = loop.counters().admitted.load();
  const uint64_t processed0 = loop.counters().processed.load();
  const uint64_t shed0 = loop.counters().shed.load();
  const uint64_t parse0 = loop.counters().parse_errors.load();
  const double interval_ns = open ? 1e9 / rate : 0;
  std::vector<double> lag_us;
  // Open loop: the first send is due 2 ms out, so it is not already late.
  phase.start_ns = NowNs() + (open ? 2000000 : 0);
  const int64_t stop_ns = phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; i < n; ++i) {
    Plan::Next op = plan.Draw();
    std::string line = "{\"id\":" + std::to_string(i) + plan.Body(op);
    if (op.kind == OpKind::kRemove) {
      if (std::optional<uint32_t> id = lines.PopInserted()) {
        line += std::to_string(*id) + "}";
      } else {  // no acknowledged insert to remove yet: look up instead
        op = plan.DrawLookup();
        line = "{\"id\":" + std::to_string(i) + plan.Body(op);
      }
    }
    Request req;
    req.kind = op.kind;
    req.row = op.row;
    int64_t now = NowNs();
    if (open) {
      if (late_send && i == n / 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      req.due_ns = phase.start_ns + static_cast<int64_t>(i * interval_ns);
      while ((now = NowNs()) < req.due_ns) {
      }
      lag_us.push_back((now - req.due_ns) * 1e-3);
    } else {
      if (now >= stop_ns || plan.lookups_left() < 2) break;
      while (i - lines.count() >= kInFlight) {
      }
      now = NowNs();
      req.due_ns = now;
    }
    req.submit_ns = now;
    loop.Submit(line);
    req.submitted_ns = NowNs();
    phase.requests.push_back(std::move(req));
  }
  const int64_t end_ns = NowNs();
  const size_t sent = phase.requests.size();
  phase.backlog = (loop.counters().admitted.load() - admitted0) -
                  (loop.counters().processed.load() - processed0);
  // Every request gets exactly one response line (answer, shed or error).
  while (lines.count() < sent) {
    if (NowNs() - end_ns > 60 * 1000000000LL) {
      Die("serve phase", Status::Internal("responses missing after 60 s"));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  phase.end_ns = end_ns;
  phase.lag_p99_us = Quantile(lag_us, 0.99);
  phase.lag_max_us = Quantile(lag_us, 1.0);
  phase.shed = loop.counters().shed.load() - shed0;
  phase.parse_errors = loop.counters().parse_errors.load() - parse0;

  for (StampedLines::Line& l : lines.Take()) {
    Result<JsonValue> parsed = ParseJson(l.text);
    const JsonValue* id = parsed.ok() ? parsed->Find("id") : nullptr;
    if (id == nullptr || !id->is_number() || id->number_value() < 0 ||
        id->number_value() >= static_cast<double>(sent)) {
      if (phase.errors++ == 0) {
        std::fprintf(stderr, "unattributable response: %s\n", l.text.c_str());
      }
      continue;
    }
    Request& req = phase.requests[static_cast<size_t>(id->number_value())];
    req.answered_ns = l.ns;
    const JsonValue* ok = parsed->Find("ok");
    req.ok = ok != nullptr && ok->is_bool() && ok->bool_value();
    if (!req.ok) {
      const JsonValue* err = parsed->Find("error");
      req.error =
          err != nullptr && err->is_string() ? err->string_value() : "?";
      if (req.error != "Unavailable" && phase.errors++ == 0) {
        std::fprintf(stderr, "first failed response: %s\n", l.text.c_str());
      }
      continue;
    }
    if (const JsonValue* m = parsed->Find("matches"); m != nullptr) {
      for (const JsonValue& item : m->array_items()) {
        const JsonValue* rec = item.Find("record");
        const JsonValue* prov = item.Find("provenance");
        if (rec == nullptr || prov == nullptr) continue;
        req.matches[static_cast<uint32_t>(rec->number_value())] =
            prov->string_value();
      }
    }
    if (const JsonValue* c = parsed->Find("candidates")) {
      req.candidates = static_cast<size_t>(c->number_value());
    }
    if (const JsonValue* s = parsed->Find("sure")) {
      req.sure = static_cast<size_t>(s->number_value());
    }
    if (const JsonValue* rid = parsed->Find("record_id")) {
      req.record_id = static_cast<int64_t>(rid->number_value());
    }
  }
  return phase;
}

// Highest completion rate over the windows that end before the phase's
// last send (steady state), in requests per second.
double BestWindowRate(const Phase& p) {
  const int64_t n = (p.end_ns - p.start_ns) / kRateWindowNs;
  std::vector<double> done(std::max<int64_t>(n, 0), 0.0);
  for (const Request& r : p.requests) {
    int64_t w = (r.answered_ns - p.start_ns) / kRateWindowNs;
    if (r.answered_ns >= p.start_ns && w < n) done[w] += 1;
  }
  double best = 0;
  for (int64_t w = 0; w < n; ++w) {
    best = std::max(best, done[w] * (1e9 / kRateWindowNs));
  }
  return best;
}

struct ServeSetup {
  TrainedModel model;
  EmWorkflow wf;
  std::unique_ptr<MatchService> service;
};

ServeSetup SetupServe(const Table& left, const Table& right,
                      const LabeledSet& labels, const ExecutorContext& ctx,
                      PrepTally* tally) {
  Span span("workflow.setup");
  ServeSetup s;
  s.model = TrainLikeEmxRun(left, right, labels, ctx, tally);
  s.wf.AddBlocker(MakeTitleBlocker());
  s.wf.SetMatcher(s.model.matcher, s.model.features, s.model.imputer);
  s.wf.SetExecutor(ctx);
  MatchServiceOptions options;
  options.compact_threshold = kCompactThreshold;
  Span create("serve.create");
  s.service = OrDie(MatchService::Create(s.wf, right, options, ctx),
                    "MatchService::Create");
  return s;
}

// Gold precision over every answered lookup, recall over the gold partners
// of the looked-up records that sit in the base corpus.
void ReportServeGold(const Phase& phase, const CandidateSet& gold,
                     size_t base_rows, Corruption corrupt, RunReport& report) {
  std::map<int64_t, size_t> inserted;  // assigned record id -> right row
  for (const Request& r : phase.requests) {
    if (r.kind == OpKind::kInsert && r.ok) {
      inserted[r.record_id] = base_rows + r.row;
    }
  }
  std::map<uint32_t, size_t> gold_base;  // left row -> gold partners in base
  for (const RecordPair& p : gold) {
    if (p.right < base_rows) ++gold_base[p.left];
  }
  size_t returned = 0, tp = 0, tp_base = 0, expected = 0;
  for (const Request& r : phase.requests) {
    if (r.kind != OpKind::kLookup || !r.ok) continue;
    auto g = gold_base.find(static_cast<uint32_t>(r.row));
    expected += g == gold_base.end() ? 0 : g->second;
    if (corrupt == Corruption::kDropServed && r.row % 2 == 0) continue;
    for (const auto& [record, prov] : r.matches) {
      size_t right = record;
      if (record >= base_rows) {
        auto it = inserted.find(record);
        if (it == inserted.end()) continue;  // inserted in an earlier phase
        right = it->second;
      }
      ++returned;
      bool hit = gold.Contains({static_cast<uint32_t>(r.row),
                                static_cast<uint32_t>(right)});
      tp += hit;
      tp_base += hit && right < base_rows;
    }
  }
  double p = returned ? static_cast<double>(tp) / returned : 0;
  double rcl = expected ? static_cast<double>(tp_base) / expected : 0;
  report.metrics["gold_precision"] = p;
  report.metrics["gold_recall"] = rcl;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "served gold P/R %.4f/%.4f below 0.98", p,
                rcl);
  report.Check(p >= 0.98 && rcl >= 0.98, buf);
}

// serve_read: a seeded sample of answered lookups must equal the batch
// pipeline run over just those records (the bench_serve CheckLookup rule).
void CheckAgainstBatch(const Phase& phase, const Table& left,
                       const Table& right, const EmWorkflow& wf, uint64_t seed,
                       Corruption corrupt, RunReport& report) {
  std::vector<const Request*> answered;
  for (const Request& r : phase.requests) {
    if (r.kind == OpKind::kLookup && r.ok) answered.push_back(&r);
  }
  std::mt19937_64 rng(DeriveSeed(seed, kCheckStream));
  std::shuffle(answered.begin(), answered.end(), rng);
  answered.resize(std::min(answered.size(), kOracleSample));
  Table sample(left.schema());
  for (const Request* r : answered) {
    OrDie(sample.AppendRow(left.Row(r->row)), "oracle sample");
  }
  wf.ClearPrepCache();
  WorkflowRunResult run = OrDie(wf.Run(sample, right), "batch oracle run");
  std::vector<Request> want(answered.size());
  for (const RecordPair& p : run.final_matches) {
    want[p.left].matches[p.right] = run.provenance.ProvenanceOf(p);
  }
  for (const RecordPair& p : run.candidates) ++want[p.left].candidates;
  for (const RecordPair& p : run.sure_matches) ++want[p.left].sure;
  size_t diverged = 0;
  for (size_t i = 0; i < answered.size(); ++i) {
    Request got = *answered[i];
    if (corrupt == Corruption::kWrongLookup && i == 0) {
      got.matches[static_cast<uint32_t>(right.num_rows() - 1)] = "ml";
    }
    diverged += got.matches != want[i].matches ||
                got.candidates != want[i].candidates ||
                got.sure != want[i].sure;
  }
  report.Check(diverged == 0, std::to_string(diverged) + " of " +
                                  std::to_string(answered.size()) +
                                  " sampled lookups differ from the batch run",
               diverged);
  std::printf("batch-oracle check: %zu sampled lookups, %zu diverged\n",
              answered.size(), diverged);
}

}  // namespace

void RunServe(const RunOptions& opts, RunReport& report) {
  CpuSplit cpus;
  Executor pool(cpus.program_threads());
  ExecutorContext ctx;
  ctx.executor = &pool;
  Table left = OrDie(ReadCsvFile(opts.dir + "/left.csv"), "read left");
  Table right = OrDie(ReadCsvFile(opts.dir + "/right.csv"), "read right");
  Table heldout = OrDie(ReadCsvFile(opts.dir + "/heldout.csv"), "read heldout");
  LabeledSet labels = OrDie(ReadLabelsCsv(opts.dir + "/labels.csv"), "labels");
  CandidateSet gold = OrDie(ReadPairsCsv(opts.dir + "/gold.csv"), "read gold");
  const size_t base_rows = right.num_rows();
  Plan plan(opts.workload, opts.seed, left, heldout, right.schema());
  std::optional<ServeSetup> setup;

  // Direct lookups of reserved rows: warm-up, and the traced run's
  // overhead burst.
  auto direct_burst = [&](const std::vector<size_t>& rows) {
    for (size_t row : rows) {
      Span span("serve.lookup", row);
      OrDie(setup->service->Lookup(left, row), "direct lookup");
    }
  };
  const std::vector<size_t>& reserved = plan.reserved_rows();
  std::vector<size_t> warm(
      reserved.begin(),
      reserved.begin() + std::min(kWarmLookups, reserved.size()));
  std::vector<size_t> burst(reserved.begin() + warm.size(), reserved.end());

  StampedLines lines;
  std::ostream out(&lines);
  ServeOptions lopts;  // the `emx serve` defaults: queue 128, batch 16

  if (opts.trace) {
    // Set-up + a burst of direct lookups, untraced twice (the first also
    // warms the caches), then traced; the overhead compares the last two.
    auto pass = [&] {
      return Measure([&] {
        PrepTally unused;
        setup.reset();
        setup.emplace(SetupServe(left, right, labels, ctx, &unused));
        direct_burst(burst);
      });
    };
    Timing warm_pass = pass();
    Timing untraced = pass();
    setup.reset();
    Trace::Get().set_enabled(true);
    PrepTally tally;
    Timing traced = Measure([&] {
      setup.emplace(SetupServe(left, right, labels, ctx, &tally));
      direct_burst(burst);
    });
    Trace::Get().set_enabled(false);
    report.metrics["trace.overhead_frac"] = OverheadFrac(traced, untraced);
    PrintTimings("untraced, untraced, traced pass",
                 {warm_pass, untraced, traced});
    report.metrics["prep.s"] = Trace::Get().TotalSeconds("prep");
    report.metrics["prep.rows"] = tally.rows;
    report.metrics["prep.useful_frac"] =
        tally.rows > 0 ? tally.useful / tally.rows : 0;
    const double vec_s = Trace::Get().TotalSeconds("feature.vectorize");
    report.metrics["feature.vectorize_s"] = vec_s;
    report.metrics["feature.pairs_per_s"] =
        vec_s > 0 ? static_cast<double>(labels.WithoutUnsure().size()) / vec_s
                  : 0;
    report.metrics["ml.fit_s"] = Trace::Get().TotalSeconds("ml.fit");
    report.metrics["serve.create_s"] =
        Trace::Get().TotalSeconds("serve.create");

    ServeLoop loop(setup->service.get(), lopts, &out, ctx);
    loop.Start();
    cpus.ToGenerator();
    Phase phase = RunPhase(loop, lines, plan, kFixedRate, opts.seconds,
                           opts.corrupt == Corruption::kLateSend);
    MatchServiceStats stats = setup->service->Stats();  // the fixed phase's
    Phase saturated = RunPhase(loop, lines, plan, 0, kSaturationS, false);
    cpus.ToProgram();
    loop.Stop();
    report.metrics["serve.saturated_ops_per_s"] = BestWindowRate(saturated);
    // Each request becomes a span from its intended send time to its
    // response, with its Submit call as a child.
    Trace::Get().set_enabled(true);
    for (size_t i = 0; i < phase.requests.size(); ++i) {
      const Request& r = phase.requests[i];
      int parent = Trace::Get().Add("serve.request", r.due_ns, r.answered_ns,
                                    -1, i, 1);
      Trace::Get().Add("serve.submit", r.submit_ns, r.submitted_ns, parent, i,
                       1);
    }
    Trace::Get().set_enabled(false);

    std::vector<double> lookup = phase.Latencies(OpKind::kLookup);
    std::vector<double> submit;
    for (const Request& r : phase.requests) {
      submit.push_back((r.submitted_ns - r.submit_ns) * 1e-3);
    }
    report.metrics["serve.service_p50_us"] = stats.total.p50_us;
    report.metrics["serve.service_p99_us"] = stats.total.p99_us;
    report.metrics["serve.block_p99_us"] = stats.block.p99_us;
    report.metrics["serve.vectorize_p99_us"] = stats.vectorize.p99_us;
    report.metrics["serve.score_p99_us"] = stats.score.p99_us;
    report.metrics["serve.wait_p50_us"] =
        Quantile(lookup, 0.5) - stats.total.p50_us;
    report.metrics["serve.lookup_p50_us"] = Quantile(lookup, 0.5);
    report.metrics["serve.lookup_p90_us"] = Quantile(lookup, 0.9);
    report.metrics["serve.lookup_p99_us"] = Quantile(lookup, 0.99);
    report.metrics["serve.submit_p99_us"] = Quantile(submit, 0.99);
    report.metrics["serve.write_p99_us"] =
        std::max(Quantile(phase.Latencies(OpKind::kInsert), 0.99),
                 Quantile(phase.Latencies(OpKind::kRemove), 0.99));
    report.metrics["serve.compactions"] =
        static_cast<double>(stats.compactions);
    report.metrics["serve.delta_postings"] =
        static_cast<double>(stats.delta_postings);
    report.metrics["serve.dead_postings"] =
        static_cast<double>(stats.dead_postings);
    report.metrics["serve.shed"] = static_cast<double>(phase.shed);
    report.metrics["serve.parse_errors"] =
        static_cast<double>(phase.parse_errors);
    report.metrics["loadgen.lag_p99_ms"] = phase.lag_p99_us * 1e-3;
    report.metrics["loadgen.lag_max_ms"] = phase.lag_max_us * 1e-3;
    report.metrics["loadgen.backlog"] = static_cast<double>(phase.backlog);
    ReportLayerSelfTimes(report);
    report.attempted = phase.requests.size();
    report.failed = phase.shed + phase.errors;
    report.Check(phase.lag_p99_us <= kMaxLagP99Us,
                 "generator lag p99 over bound: run invalid");
    return;
  }

  std::vector<Timing> setups;
  HostSpeed host;
  while (MoreSetups(setups)) {
    setup.reset();
    host.Calibrate();
    setups.push_back(Measure([&] {
      setup.emplace(SetupServe(left, right, labels, ctx, nullptr));
    }));
  }
  direct_burst(warm);

  ServeLoop loop(setup->service.get(), lopts, &out, ctx);
  loop.Start();
  host.Calibrate();
  cpus.ToGenerator();
  double c0 = ProcessCpuS();
  double g0 = ThreadCpuS();
  Phase fixed = RunPhase(loop, lines, plan, kFixedRate, opts.seconds,
                         opts.corrupt == Corruption::kLateSend);
  // The program's CPU: the generator thread's own spinning is left out,
  // its Submit calls into the ServeLoop are kept.
  double submit_s = 0;
  for (const Request& r : fixed.requests) {
    submit_s += (r.submitted_ns - r.submit_ns) * 1e-9;
  }
  double cpu_s = ProcessCpuS() - c0 - (ThreadCpuS() - g0 - submit_s);
  // In-service lookup time of the fixed phase's last 4096 lookups.
  const LatencySummary service = setup->service->Stats().total;
  double peak_mb = PeakRssMb();
  cpus.ToProgram();
  loop.Stop();
  host.Calibrate();

  std::vector<double> lookup = fixed.Latencies(OpKind::kLookup);
  PrintTimings("set-up", setups);
  std::printf(
      "fixed %g/s: %zu ops, lookup p50 %.0f us p90 %.0f us p99 %.0f us, "
      "lag p99 %.0f us max %.0f us, backlog %llu, shed %llu, errors %llu, "
      "in-service p50 %.0f us\n",
      kFixedRate, fixed.requests.size(), Quantile(lookup, 0.5),
      Quantile(lookup, 0.9), Quantile(lookup, 0.99), fixed.lag_p99_us,
      fixed.lag_max_us, static_cast<unsigned long long>(fixed.backlog),
      static_cast<unsigned long long>(fixed.shed),
      static_cast<unsigned long long>(fixed.errors),
      service.p50_us);

  ReportTimes(MedianOf(setups, &Timing::wall_s), service.p50_us * 1e-3, cpu_s,
              host, report);
  report.metrics["peak_rss_mb"] = peak_mb;
  report.attempted = fixed.requests.size();
  report.failed = fixed.shed + fixed.errors;
  report.Check(fixed.lag_p99_us <= kMaxLagP99Us,
               "generator lag p99 over bound: run invalid");
  ReportServeGold(fixed, gold, base_rows, opts.corrupt, report);
  if (opts.workload == "serve_mixed") {
    // Every acknowledged write must show in the live count.
    size_t inserts = 0, removes = 0;
    for (const Request& r : fixed.requests) {
      inserts += r.ok && r.kind == OpKind::kInsert;
      removes += r.ok && r.kind == OpKind::kRemove;
    }
    if (opts.corrupt == Corruption::kLostWrite) --inserts;
    MatchServiceStats stats = setup->service->Stats();
    report.Check(stats.live_records == base_rows + inserts - removes,
                 "live_records " + std::to_string(stats.live_records) +
                     " != base + inserts - removes = " +
                     std::to_string(base_rows + inserts - removes));
    std::printf(
        "writes: %zu inserts, %zu removes, %llu compactions, live %zu\n",
        inserts, removes, static_cast<unsigned long long>(stats.compactions),
        stats.live_records);
  } else {
    CheckAgainstBatch(fixed, left, right, setup->wf, opts.seed, opts.corrupt,
                      report);
  }
}

}  // namespace emx_e2e
