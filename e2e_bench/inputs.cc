#include "e2e_bench/inputs.h"

#include <thread>

#include "e2e_bench/bench_util.h"
#include "src/block/overlap_blocker.h"
#include "src/core/executor.h"
#include "src/core/strings.h"
#include "src/datagen/scale_corpus.h"
#include "src/labeling/sampler.h"
#include "src/table/csv.h"

namespace emx_e2e {

using namespace emx;

namespace {

// Corpus shape of a scale workload: `sf` thousand rows per side, the last
// `heldout_rows` right rows kept out of the served corpus (serve_mixed
// inserts them), and `labels` pairs sampled from the blocked candidates and
// labelled from gold.
struct ScaleShape {
  double sf = 0;
  size_t heldout_rows = 0;
  size_t labels = 600;
};

ScaleShape ShapeFor(const std::string& workload, bool tiny) {
  ScaleShape s;
  if (workload == "batch_sf100") {
    s.sf = tiny ? 2 : 100;
  } else {
    // Both serving workloads stand on the same corpus, so they differ only
    // in their traffic mix.
    s.sf = tiny ? 4 : 40;
    s.heldout_rows = tiny ? 200 : 4000;
  }
  if (tiny) s.labels = 200;
  return s;
}

}  // namespace

bool IsScaleWorkload(const std::string& workload) {
  return workload == "batch_sf100" || workload == "serve_read" ||
         workload == "serve_mixed";
}

std::shared_ptr<Blocker> MakeTitleBlocker() {
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  return std::make_shared<OverlapBlocker>(opts, 3);
}

Status GenerateScaleInputs(const std::string& workload, uint64_t seed,
                           bool tiny, const std::string& dir) {
  const ScaleShape shape = ShapeFor(workload, tiny);
  Executor pool(std::max(1u, std::thread::hardware_concurrency()));
  ExecutorContext ctx;
  ctx.executor = &pool;

  ScaleCorpusOptions opts;
  opts.seed = DeriveSeed(seed, kCorpusStream);
  opts.scale_factor = shape.sf;
  EMX_ASSIGN_OR_RETURN(ScaleCorpus corpus, GenerateScaleCorpus(opts, ctx));

  const size_t total = corpus.right.num_rows();
  if (shape.heldout_rows >= total) {
    return Status::InvalidArgument("held-out slice larger than the corpus");
  }
  const size_t base = total - shape.heldout_rows;
  Table right(corpus.right.schema());
  Table heldout(corpus.right.schema());
  for (size_t r = 0; r < total; ++r) {
    Table& side = r < base ? right : heldout;
    EMX_RETURN_IF_ERROR(side.AppendRow(corpus.right.Row(r)));
  }

  // Labels: a seeded sample of the blocked candidates, labelled from gold —
  // the stand-in for the expert who labels a sample in the paper's §8.
  EMX_ASSIGN_OR_RETURN(CandidateSet candidates,
                       MakeTitleBlocker()->Block(corpus.left, right, ctx));
  CandidateSet sample = SamplePairs(candidates, shape.labels,
                                    DeriveSeed(seed, kLabelStream));
  Table labels(Schema({{"left_id", DataType::kInt64},
                       {"right_id", DataType::kInt64},
                       {"label", DataType::kString}}));
  for (const RecordPair& p : sample) {
    EMX_RETURN_IF_ERROR(labels.AppendRow(
        {Value(static_cast<int64_t>(p.left)),
         Value(static_cast<int64_t>(p.right)),
         Value(std::string(corpus.gold.Contains(p) ? "yes" : "no"))}));
  }

  EMX_RETURN_IF_ERROR(WriteCsvFile(corpus.left, dir + "/left.csv"));
  EMX_RETURN_IF_ERROR(WriteCsvFile(right, dir + "/right.csv"));
  EMX_RETURN_IF_ERROR(WriteCsvFile(heldout, dir + "/heldout.csv"));
  EMX_RETURN_IF_ERROR(WritePairsCsv(corpus.gold, dir + "/gold.csv"));
  return WriteCsvFile(labels, dir + "/labels.csv");
}

Result<CandidateSet> ReadPairsCsv(const std::string& path) {
  EMX_ASSIGN_OR_RETURN(Table t, ReadCsvFile(path));
  if (!t.schema().Contains("left_id") || !t.schema().Contains("right_id")) {
    return Status::InvalidArgument(path + ": expected left_id,right_id");
  }
  std::vector<RecordPair> pairs;
  pairs.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    pairs.push_back({static_cast<uint32_t>(t.at(r, "left_id").AsInt()),
                     static_cast<uint32_t>(t.at(r, "right_id").AsInt())});
  }
  return CandidateSet(std::move(pairs));
}

Result<LabeledSet> ReadLabelsCsv(const std::string& path) {
  EMX_ASSIGN_OR_RETURN(Table t, ReadCsvFile(path));
  if (!t.schema().Contains("label")) {
    return Status::InvalidArgument(path + ": expected a label column");
  }
  LabeledSet out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string raw = AsciiToLower(t.at(r, "label").AsString());
    Label label = raw == "yes" ? Label::kYes
                  : raw == "no" ? Label::kNo
                                : Label::kUnsure;
    out.SetLabel({static_cast<uint32_t>(t.at(r, "left_id").AsInt()),
                  static_cast<uint32_t>(t.at(r, "right_id").AsInt())},
                 label);
  }
  return out;
}

Status WritePairsCsv(const CandidateSet& pairs, const std::string& path) {
  Table t(Schema({{"left_id", DataType::kInt64},
                  {"right_id", DataType::kInt64}}));
  for (const RecordPair& p : pairs) {
    EMX_RETURN_IF_ERROR(t.AppendRow({Value(static_cast<int64_t>(p.left)),
                                     Value(static_cast<int64_t>(p.right))}));
  }
  return WriteCsvFile(t, path);
}

Status WriteMatchesCsv(const CandidateSet& final_matches,
                       const MatchSet& provenance, const std::string& path) {
  Table t(Schema({{"left_id", DataType::kInt64},
                  {"right_id", DataType::kInt64},
                  {"provenance", DataType::kString}}));
  for (const RecordPair& p : final_matches) {
    EMX_RETURN_IF_ERROR(t.AppendRow({Value(static_cast<int64_t>(p.left)),
                                     Value(static_cast<int64_t>(p.right)),
                                     Value(provenance.ProvenanceOf(p))}));
  }
  return WriteCsvFile(t, path);
}

}  // namespace emx_e2e
